// Package blockdev defines the block-device abstractions shared by the HDD
// and SSD models, the RAID engine, and the cache layers.
//
// All addressing is in fixed-size pages (4KB by default): an LBA is a page
// number, not a byte offset. Devices operate in one of two modes:
//
//   - data mode: Read/Write carry real page payloads backed by an in-memory
//     store, so end-to-end correctness (parity math, delta reconstruction,
//     recovery) is verifiable byte-for-byte;
//   - timing mode: payloads may be nil and only the latency/queueing model
//     and operation counters are exercised, which is what the trace-driven
//     simulator uses to process millions of requests quickly.
//
// Every operation takes the virtual arrival time and returns the virtual
// completion time, following the next-free-time simulation style of
// internal/sim.
package blockdev

import (
	"errors"
	"fmt"

	"kddcache/internal/sim"
)

// PageSize is the default page size in bytes used throughout the system,
// matching the paper's 4KB configuration.
const PageSize = 4096

// Op identifies a block operation type.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Errors returned by devices. The taxonomy distinguishes three failure
// scopes so upper layers can react proportionately:
//
//   - ErrFailed: the whole device is gone (fail-stop). RAID declares the
//     member failed and serves degraded until ReplaceDisk.
//   - ErrMedia: one page (or a small range) is unreadable — a latent
//     sector error, detected bit-rot, or a transient glitch. The device
//     as a whole is healthy; RAID reconstructs just the lost page from
//     redundancy and writes it back (read-repair) instead of failing the
//     member.
//   - ErrCrashed: a simulated power-loss point was crossed mid-write;
//     the in-flight write may have torn (a prefix of its pages, or a
//     prefix of a page, persisted). The caller treats this as the crash
//     moment and runs recovery.
var (
	ErrOutOfRange = errors.New("blockdev: LBA out of range")
	ErrFailed     = errors.New("blockdev: device failed")
	ErrMedia      = errors.New("blockdev: unreadable page (media error)")
	ErrCrashed    = errors.New("blockdev: device lost power mid-write (crash point)")
	ErrBadBuffer  = errors.New("blockdev: buffer is not a whole page")
)

// IOError wraps a device error with the device name, operation, and LBA it
// occurred on, so upper layers can attribute failures to a specific device
// (the cache's failover path must distinguish "the SSD died" from "a RAID
// member died") and logs name the failing component. It is transparent to
// errors.Is/errors.As via Unwrap, so existing taxonomy checks
// (errors.Is(err, ErrMedia) etc.) keep working unchanged.
type IOError struct {
	Dev string // device name (Device.Name())
	Op  Op     // operation that failed
	LBA int64  // start LBA of the failed range
	Err error  // underlying taxonomy error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("%s: %s lba %d: %v", e.Dev, e.Op, e.LBA, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

// WrapIOError attaches device/op/LBA context to err unless err already
// carries it (no double wrapping across stacked injectors).
func WrapIOError(dev string, op Op, lba int64, err error) error {
	if err == nil {
		return nil
	}
	var ioe *IOError
	if errors.As(err, &ioe) {
		return err
	}
	return &IOError{Dev: dev, Op: op, LBA: lba, Err: err}
}

// Device is a page-addressed block device with virtual-time semantics.
//
// ReadPages/WritePages cover [lba, lba+count). In data mode buf must be
// count*PageSize bytes; in timing mode buf may be nil.
type Device interface {
	// Name identifies the device in logs and stats.
	Name() string
	// Pages returns the device capacity in pages.
	Pages() int64
	// ReadPages reads count pages starting at lba, arriving at time t,
	// and returns the virtual completion time.
	ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	// WritePages writes count pages starting at lba.
	WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
}

// Trimmer is implemented by devices that support discarding pages (the SSD
// model uses trims to free invalidated cache pages in the FTL).
type Trimmer interface {
	TrimPages(t sim.Time, lba int64, count int) (sim.Time, error)
}

// CheckRange validates [lba, lba+count) against a capacity.
func CheckRange(lba int64, count int, pages int64) error {
	if count < 0 || lba < 0 || lba+int64(count) > pages {
		return fmt.Errorf("%w: lba=%d count=%d pages=%d", ErrOutOfRange, lba, count, pages)
	}
	return nil
}

// CheckBuf validates that buf is nil (timing mode) or exactly count pages.
func CheckBuf(buf []byte, count int) error {
	if buf != nil && len(buf) != count*PageSize {
		return fmt.Errorf("%w: len=%d want %d", ErrBadBuffer, len(buf), count*PageSize)
	}
	return nil
}

// Page returns the i-th page of buf, or nil in timing mode (nil buf).
func Page(buf []byte, i int) []byte {
	if buf == nil {
		return nil
	}
	return buf[i*PageSize : (i+1)*PageSize]
}
