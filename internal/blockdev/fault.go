package blockdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kddcache/internal/sim"
)

// FaultProfile configures seeded probabilistic fault injection. All draws
// come from one xorshift stream seeded at construction, so a given op
// sequence produces the identical fault sequence on every run — chaos
// schedules are reproducible bit for bit.
type FaultProfile struct {
	// TransientProb is the per-read-op probability of a transient error:
	// the op returns ErrMedia but leaves no mark, so an immediate retry
	// succeeds (a recoverable glitch — vibration, a marginal read).
	TransientProb float64
	// LatentProb is the per-read-op probability that the first page of
	// the range develops a latent sector error: the op fails with
	// ErrMedia and the page stays unreadable until it is rewritten
	// (remap-on-write), exactly how latent sector errors surface in the
	// field — discovered on read, cleared by reallocation.
	LatentProb float64
}

// FaultInjector wraps a Device and injects failures at three scopes:
//
//   - whole-device fail-stop (Fail / FailAfterOps → ErrFailed), the
//     paper's §III-E scenarios;
//   - per-page media faults (InjectBadPage / InjectTransient / the
//     probabilistic FaultProfile → ErrMedia), the partial-fault regime a
//     patrol scrub and read-repair must handle;
//   - crash points (ArmCrash → ErrCrashed) that tear an in-flight
//     multi-page write, persisting only a prefix.
//
// The inner device is swapped atomically by Repair, and all mutable
// fault state is mutex-guarded, so injection is safe against concurrent
// I/O (covered by -race tests). An injector with nothing armed — the
// state every device of a fault-free run is in — passes an op through
// without taking the mutex: armed, recomputed under the mutex after every
// change to the fault state, says whether there is anything to check.
type FaultInjector struct {
	inner  atomic.Pointer[Device]
	failed atomic.Bool

	// FailAfterOps, if > 0, fails the device automatically after that many
	// operations have been issued (for deterministic mid-workload faults).
	FailAfterOps int64
	ops          atomic.Int64

	armed      atomic.Bool // some page-, range- or crash-level fault state is set
	mu         sync.Mutex
	rng        *sim.RNG
	profile    FaultProfile
	badPages   map[int64]int // lba -> remaining read failures; <0 = until rewritten
	deadRanges []failRange   // fail-stopped page regions (FailRange)
	crashed    bool
	crashIn    int64 // write ops until the crash point (when armed > 0)
	tornKeep   int   // whole pages of the torn write to persist
	tornByte   int   // extra bytes of the following page to persist

	// Op-trace recording for fault-site enumeration (faultsite.go).
	recording bool
	recorded  []OpRecord

	mediaErrs atomic.Int64
}

// NewFaultInjector wraps inner; seed drives the probabilistic fault
// stream (0 selects a fixed default seed).
func NewFaultInjector(inner Device, seed uint64) *FaultInjector {
	f := &FaultInjector{
		rng:      sim.NewRNG(seed),
		badPages: make(map[int64]int),
	}
	f.inner.Store(&inner)
	return f
}

// Inner returns the wrapped device (swapped atomically by Repair).
func (f *FaultInjector) Inner() Device { return *f.inner.Load() }

// Fail marks the device failed.
func (f *FaultInjector) Fail() { f.failed.Store(true) }

// failRange is one fail-stopped page region, [start, end).
type failRange struct{ start, end int64 }

// FailRange fail-stops the region [start, start+count): every operation
// touching it returns ErrFailed while the rest of the device keeps
// serving. This models the loss of one region of the medium — a die, a
// channel, a shard lane's slice — without whole-device death; Failed()
// stays false.
func (f *FaultInjector) FailRange(start, count int64) {
	if count <= 0 {
		return
	}
	f.mu.Lock()
	f.deadRanges = append(f.deadRanges, failRange{start, start + count})
	f.rearm()
	f.mu.Unlock()
}

// rangeFault reports ErrFailed when [lba, lba+count) touches a
// fail-stopped region. Caller holds f.mu.
func (f *FaultInjector) rangeFault(lba int64, count int) error {
	end := lba + int64(count)
	for _, r := range f.deadRanges {
		if lba < r.end && r.start < end {
			return fmt.Errorf("%w: pages %d-%d dead", ErrFailed, r.start, r.end-1)
		}
	}
	return nil
}

// Repair replaces the device with a fresh (zeroed) one of the same size;
// the caller is responsible for rebuilding contents (RAID rebuild). The
// swap is atomic with respect to in-flight operations, and all page-level
// fault state is cleared along with the old medium. An armed crash point
// (ArmCrash) survives the swap: it models node power loss, which does not
// care that the medium behind this slot is new.
func (f *FaultInjector) Repair(fresh Device) {
	f.mu.Lock()
	f.badPages = make(map[int64]int)
	f.deadRanges = nil
	f.rearm()
	f.mu.Unlock()
	f.inner.Store(&fresh)
	f.failed.Store(false)
	f.ops.Store(0)
}

// Failed reports whether the device has failed.
func (f *FaultInjector) Failed() bool { return f.failed.Load() }

// SetProfile installs a probabilistic fault profile (zero value disables).
func (f *FaultInjector) SetProfile(p FaultProfile) {
	f.mu.Lock()
	f.profile = p
	f.rearm()
	f.mu.Unlock()
}

// InjectBadPage marks one page with a latent sector error: reads covering
// it return ErrMedia until the page is rewritten.
func (f *FaultInjector) InjectBadPage(lba int64) {
	f.mu.Lock()
	f.badPages[lba] = -1
	f.rearm()
	f.mu.Unlock()
}

// InjectTransient makes the next fails reads covering lba return
// ErrMedia, after which the page reads fine again (no rewrite needed).
func (f *FaultInjector) InjectTransient(lba int64, fails int) {
	if fails <= 0 {
		return
	}
	f.mu.Lock()
	f.badPages[lba] = fails
	f.rearm()
	f.mu.Unlock()
}

// ClearBadPage removes any media fault on lba.
func (f *FaultInjector) ClearBadPage(lba int64) {
	f.mu.Lock()
	delete(f.badPages, lba)
	f.rearm()
	f.mu.Unlock()
}

// BadPages returns the number of pages currently marked unreadable.
func (f *FaultInjector) BadPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.badPages)
}

// MediaErrors returns how many operations this injector failed with
// ErrMedia (injected transients, latent hits, and probabilistic faults).
func (f *FaultInjector) MediaErrors() int64 { return f.mediaErrs.Load() }

// Ops returns the number of operations issued since construction/Repair.
func (f *FaultInjector) Ops() int64 { return f.ops.Load() }

// ArmCrash schedules a power-loss point: after afterWrites more write
// ops, the triggering write persists only tornPages whole pages (plus
// tornBytes of the next page) and returns ErrCrashed; every later
// operation returns ErrCrashed until ClearCrash. This models the torn
// multi-page write a real crash leaves behind.
func (f *FaultInjector) ArmCrash(afterWrites int64, tornPages, tornBytes int) {
	f.mu.Lock()
	f.crashIn = afterWrites + 1
	f.tornKeep = tornPages
	f.tornByte = tornBytes
	f.rearm()
	f.mu.Unlock()
}

// ClearCrash restores power: operations flow again (what persisted stays
// torn).
func (f *FaultInjector) ClearCrash() {
	f.mu.Lock()
	f.crashed = false
	f.crashIn = 0
	f.rearm()
	f.mu.Unlock()
}

// Crashed reports whether the device is past its crash point.
func (f *FaultInjector) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// rearm recomputes armed from the fault state. Caller holds f.mu.
func (f *FaultInjector) rearm() {
	f.armed.Store(len(f.badPages) > 0 || len(f.deadRanges) > 0 || f.crashed || f.crashIn > 0 ||
		f.recording || f.profile.TransientProb > 0 || f.profile.LatentProb > 0)
}

func (f *FaultInjector) step() error {
	if f.failed.Load() {
		return ErrFailed
	}
	n := f.ops.Add(1)
	if f.FailAfterOps > 0 && n > f.FailAfterOps {
		f.failed.Store(true)
		return ErrFailed
	}
	return nil
}

// readFault is the one critical section of a read of [lba, lba+count):
// dead-range check, op recording, then the per-page marks and the
// probabilistic profile. It returns a non-nil error when the read must
// fail. An unarmed injector has nothing to check and skips the lock.
func (f *FaultInjector) readFault(lba int64, count int) error {
	if !f.armed.Load() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rangeFault(lba, count); err != nil {
		return err
	}
	f.record(false, lba, count)
	if f.crashed {
		return ErrCrashed
	}
	// Armed without marks (recording, a profile, a pending crash): no map probes.
	for i := int64(0); len(f.badPages) > 0 && i < int64(count); i++ {
		left, ok := f.badPages[lba+i]
		if !ok {
			continue
		}
		if left > 0 {
			if left == 1 {
				delete(f.badPages, lba+i)
				f.rearm()
			} else {
				f.badPages[lba+i] = left - 1
			}
		}
		f.mediaErrs.Add(1)
		return fmt.Errorf("%w: page %d", ErrMedia, lba+i)
	}
	if f.profile.TransientProb > 0 || f.profile.LatentProb > 0 {
		// Two draws per op keeps the stream in lockstep with the op
		// sequence regardless of outcomes.
		t := f.rng.Float64()
		l := f.rng.Float64()
		if l < f.profile.LatentProb {
			f.badPages[lba] = -1
			f.mediaErrs.Add(1)
			return fmt.Errorf("%w: page %d (latent)", ErrMedia, lba)
		}
		if t < f.profile.TransientProb {
			f.mediaErrs.Add(1)
			return fmt.Errorf("%w: page %d (transient)", ErrMedia, lba)
		}
	}
	return nil
}

// writeFault is the one critical section of a write covering
// [lba, lba+count): dead-range check, op recording, then crash points and
// remap-on-write. It returns (tornPages, tornBytes, err): err == nil
// means the write proceeds in full; err == ErrCrashed with tornPages >= 0
// means only that prefix persists.
func (f *FaultInjector) writeFault(lba int64, count int) (int, int, error) {
	if !f.armed.Load() {
		return 0, 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rangeFault(lba, count); err != nil {
		return 0, 0, err
	}
	f.record(true, lba, count)
	if f.crashed {
		return 0, 0, ErrCrashed
	}
	if f.crashIn > 0 {
		f.crashIn--
		if f.crashIn == 0 {
			f.crashed = true
			f.rearm()
			keep := f.tornKeep
			if keep > count {
				keep = count
			}
			return keep, f.tornByte, ErrCrashed
		}
	}
	// A successful write reallocates any bad pages it covers.
	if len(f.badPages) > 0 {
		for i := int64(0); i < int64(count); i++ {
			delete(f.badPages, lba+i)
		}
		f.rearm()
	}
	return 0, 0, nil
}

// trimFault is the critical section of a trim of [lba, lba+count).
func (f *FaultInjector) trimFault(lba int64, count int) error {
	if !f.armed.Load() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rangeFault(lba, count); err != nil {
		return err
	}
	if f.crashed {
		// Power is off: a trim past the crash point must not reach the
		// medium, or "durable" state would mutate after the power loss.
		return ErrCrashed
	}
	return nil
}

// Name implements Device.
func (f *FaultInjector) Name() string { return f.Inner().Name() }

// Pages implements Device.
func (f *FaultInjector) Pages() int64 { return f.Inner().Pages() }

// ioErr attributes err to this device; the name is looked up only when
// there is an error to wrap.
func (f *FaultInjector) ioErr(op Op, lba int64, err error) error {
	if err == nil {
		return nil
	}
	return WrapIOError(f.Name(), op, lba, err)
}

// ReadPages implements Device. Injected and propagated errors are wrapped
// in IOError so callers can attribute the failure to this device.
func (f *FaultInjector) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := f.step(); err != nil {
		return t, f.ioErr(OpRead, lba, err)
	}
	if err := f.readFault(lba, count); err != nil {
		return t, f.ioErr(OpRead, lba, err)
	}
	done, err := f.Inner().ReadPages(t, lba, count, buf)
	return done, f.ioErr(OpRead, lba, err)
}

// WritePages implements Device. Injected and propagated errors are wrapped
// in IOError so callers can attribute the failure to this device.
func (f *FaultInjector) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := f.step(); err != nil {
		return t, f.ioErr(OpWrite, lba, err)
	}
	torn, tornBytes, err := f.writeFault(lba, count)
	if err == nil {
		done, werr := f.Inner().WritePages(t, lba, count, buf)
		return done, f.ioErr(OpWrite, lba, werr)
	}
	if torn > 0 || tornBytes > 0 {
		f.tearWrite(t, lba, count, buf, torn, tornBytes)
	}
	return t, f.ioErr(OpWrite, lba, err)
}

// tearWrite persists the prefix of a crashed write: torn whole pages and
// tornBytes of the page after them (via read-modify-write so the rest of
// that page keeps its old content, like a real torn sector).
func (f *FaultInjector) tearWrite(t sim.Time, lba int64, count int, buf []byte, torn, tornBytes int) {
	inner := f.Inner()
	if torn > 0 {
		var pre []byte
		if buf != nil {
			pre = buf[:torn*PageSize]
		}
		inner.WritePages(t, lba, torn, pre) //nolint:errcheck // crash path is best-effort
	}
	if tornBytes > 0 && torn < count && buf != nil {
		old := make([]byte, PageSize)
		inner.ReadPages(t, lba+int64(torn), 1, old) //nolint:errcheck // zeros on error
		copy(old, buf[torn*PageSize:torn*PageSize+min(tornBytes, PageSize)])
		inner.WritePages(t, lba+int64(torn), 1, old) //nolint:errcheck // crash path
	}
}

// TrimPages implements Trimmer when the inner device does.
func (f *FaultInjector) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	if err := f.step(); err != nil {
		return t, f.ioErr(OpTrim, lba, err)
	}
	if err := f.trimFault(lba, count); err != nil {
		return t, f.ioErr(OpTrim, lba, err)
	}
	if tr, ok := f.Inner().(Trimmer); ok {
		done, err := tr.TrimPages(t, lba, count)
		return done, f.ioErr(OpTrim, lba, err)
	}
	return t, nil
}

// Store exposes the inner device's backing store when it has one (nil
// otherwise) so corruption helpers and data-mode sniffing see through the
// injector.
func (f *FaultInjector) Store() *MemStore {
	if s, ok := f.Inner().(Storer); ok {
		return s.Store()
	}
	return nil
}

// NullDevice is a zero-latency device that stores data when constructed
// with a MemStore, or nothing in timing mode. It is useful in unit tests
// for layers above the device models.
type NullDevice struct {
	name  string
	pages int64
	store *MemStore // nil in timing mode
	// Latency is added to each operation's completion (0 by default).
	Latency sim.Time
	reads   atomic.Int64
	writes  atomic.Int64
}

// NewNullDevice returns a timing-mode null device.
func NewNullDevice(name string, pages int64) *NullDevice {
	return &NullDevice{name: name, pages: pages}
}

// NewNullDataDevice returns a data-mode null device backed by memory.
func NewNullDataDevice(name string, pages int64) *NullDevice {
	return &NullDevice{name: name, pages: pages, store: NewMemStore(pages)}
}

// Name implements Device.
func (d *NullDevice) Name() string { return d.name }

// Pages implements Device.
func (d *NullDevice) Pages() int64 { return d.pages }

// Reads returns the number of read ops issued.
func (d *NullDevice) Reads() int64 { return d.reads.Load() }

// Writes returns the number of write ops issued.
func (d *NullDevice) Writes() int64 { return d.writes.Load() }

// Store exposes the backing store (nil in timing mode).
func (d *NullDevice) Store() *MemStore { return d.store }

// ReadPages implements Device. Data-mode reads verify per-page checksums
// and surface mismatches as ErrMedia (detected bit-rot).
func (d *NullDevice) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := CheckRange(lba, count, d.pages); err != nil {
		return t, err
	}
	if err := CheckBuf(buf, count); err != nil {
		return t, err
	}
	d.reads.Add(1)
	if d.store != nil && buf != nil {
		if err := d.store.ReadPagesChecked(lba, buf); err != nil {
			return t, err
		}
	}
	return t + d.Latency, nil
}

// WritePages implements Device.
func (d *NullDevice) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := CheckRange(lba, count, d.pages); err != nil {
		return t, err
	}
	if err := CheckBuf(buf, count); err != nil {
		return t, err
	}
	d.writes.Add(1)
	if d.store != nil && buf != nil {
		for i := 0; i < count; i++ {
			d.store.WritePage(lba+int64(i), buf[i*PageSize:(i+1)*PageSize])
		}
	}
	return t + d.Latency, nil
}

// TrimPages implements Trimmer.
func (d *NullDevice) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	if err := CheckRange(lba, count, d.pages); err != nil {
		return t, err
	}
	if d.store != nil {
		for i := 0; i < count; i++ {
			d.store.TrimPage(lba + int64(i))
		}
	}
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var (
	_ Device  = (*NullDevice)(nil)
	_ Trimmer = (*NullDevice)(nil)
	_ Device  = (*FaultInjector)(nil)
	_ Trimmer = (*FaultInjector)(nil)
)
