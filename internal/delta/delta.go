// Package delta implements the delta machinery at the heart of KDD: the
// "compressed XORs of the current version of data and the old version"
// (§III-A) that are packed into Delta Zone pages.
//
// Two codecs are provided:
//
//   - ZRLE: XOR + zero-run-length encoding. Real-world deltas are sparse
//     (5–20% of bits change, §II-C), so their XOR is mostly zero bytes and
//     run-length coding captures it at lzo-like speed. This is the
//     prototype-path stand-in for the paper's lzo.
//   - Modelled: draws the compression ratio from a clipped Gaussian, the
//     exact assumption the paper's simulator makes ("delta compression
//     ratio values follow Gaussian distribution with an average equaling
//     50%, 25%, and 12%", §IV-A2). Used by the trace-driven simulator,
//     which carries no real bytes.
package delta

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// Errors returned by codecs.
var (
	ErrCorrupt  = errors.New("delta: corrupt encoding")
	ErrNoBytes  = errors.New("delta: modelled delta carries no bytes")
	ErrTooLarge = errors.New("delta: encoded delta exceeds a page")
)

// Delta is an encoded difference between two versions of a page.
//
// The payloads ZRLE.Encode and NewRaw hand out come from a free list and
// go back to it through Release; who may release, and when, is stated
// once, beside nvram.StagedDelta.
type Delta struct {
	Bytes []byte // encoded payload; nil when produced by the modelled codec
	Len   int    // encoded length in bytes (== len(Bytes) when present)
	Raw   bool   // payload is the full new page, not an encoding (incompressible fallback)

	pooled bool // Bytes came from blockdev.GetBuf (one byte in Raw's padding: timing mode stages millions of these)
}

// Release returns the payload to the free list it came from. The caller
// must be the payload's one owner and must not read Bytes (through this
// or any copy of the Delta) afterwards. Deltas that carry no recyclable
// payload — modelled ones, other codecs', views of a DEZ page — are
// ignored, so every owner may release unconditionally.
func (d Delta) Release() {
	if d.pooled {
		blockdev.PutBuf(d.Bytes)
	}
}

// NewRaw returns an incompressible-delta fallback carrying the full new
// page verbatim. KDD falls back to raw when a delta encodes to at least a
// page, so DEZ space is never wasted on expansion.
func NewRaw(newPage []byte) Delta {
	cp := blockdev.GetBuf(blockdev.PageSize)
	clear(cp[copy(cp, newPage):])
	return Delta{Bytes: cp, Len: blockdev.PageSize, Raw: true, pooled: true}
}

// EncodeOrRaw is the write path's encoder: c's delta from old to new, or
// the raw fallback when that delta would fill a page or more. The
// discarded encoding goes straight back to the free list.
func EncodeOrRaw(c Codec, old, new []byte) Delta {
	d := c.Encode(old, new)
	if d.Len >= blockdev.PageSize {
		d.Release()
		d = NewRaw(new)
	}
	return d
}

// ApplyAny reconstructs the new page from old and d into out, handling
// both codec-encoded and raw deltas.
func ApplyAny(c Codec, old []byte, d Delta, out []byte) error {
	if d.Raw {
		if d.Bytes == nil {
			return ErrNoBytes
		}
		copy(out[:blockdev.PageSize], d.Bytes)
		return nil
	}
	return c.Apply(old, d, out)
}

// Ratio returns the delta size as a fraction of a page.
func (d Delta) Ratio() float64 { return float64(d.Len) / float64(blockdev.PageSize) }

// Codec encodes and applies page deltas.
type Codec interface {
	// Name identifies the codec in stats and ablation benches.
	Name() string
	// Encode produces the delta that transforms old into new. Both pages
	// must be PageSize long, except for the modelled codec which accepts
	// nil pages.
	Encode(old, new []byte) Delta
	// Apply reconstructs new from old and the delta into out (PageSize).
	Apply(old []byte, d Delta, out []byte) error
}

// ---------------------------------------------------------------------------
// ZRLE: XOR + zero-run-length encoding.

// ZRLE is the fast XOR+RLE codec. The zero value is ready to use.
type ZRLE struct{}

// Name implements Codec.
func (ZRLE) Name() string { return "zrle" }

// zrleMaxLen bounds an encoding: only the first group can cost more than
// the zeros it elides (a one-byte zero run of 0 plus a two-byte literal
// length); every later group replaces at least four zero bytes with at
// most four header bytes.
const zrleMaxLen = blockdev.PageSize + 3

// Encode's worst-case buffer comes from the sized free list.
const _ = uint(blockdev.MaxBufBytes - zrleMaxLen)

const (
	lo8 = 0x0101010101010101
	hi8 = 0x8080808080808080
)

// Encode implements Codec. Encoding format: repeated groups of
// (uvarint zeroRun, uvarint litLen, litLen literal bytes) over the XOR of
// the two pages; trailing zeros are implicit. A literal run ends at the
// next stretch of >=4 zeros (shorter zero stretches cost more as tokens
// than as literals).
//
// The scan moves eight bytes at a time over zero stretches and over
// literal words without a zero byte, and falls back to single bytes only
// around the words where a run starts or ends.
//
// The encoding is built in a worst-case buffer from the free list and
// copied out into a buffer of the smallest size class that holds its Len
// bytes: deltas sit in NVRAM staging until they are packed, so slack
// capacity would be carried there. An encoding longer than a page is
// already in its class (the worst case is three bytes past a class
// boundary): it is handed out as built, with no copy, and the write
// path gives it straight back for the raw fallback.
func (ZRLE) Encode(old, new []byte) Delta {
	if len(old) < blockdev.PageSize || len(new) < blockdev.PageSize {
		panic("delta: ZRLE.Encode needs two full pages")
	}
	const n = blockdev.PageSize
	x := blockdev.GetPage() // every byte assigned by the XOR below
	defer blockdev.PutPage(x)
	enc := blockdev.GetBuf(zrleMaxLen)
	subtle.XORBytes(x, old[:n], new[:n])
	o := 0
	i := 0
	for {
		runStart := i
		for i+8 <= n && binary.LittleEndian.Uint64(x[i:]) == 0 {
			i += 8
		}
		if i+8 <= n {
			i += bits.TrailingZeros64(binary.LittleEndian.Uint64(x[i:])) / 8
		} else {
			for i < n && x[i] == 0 {
				i++
			}
			if i == n {
				break // trailing zeros are implicit
			}
		}
		litStart := i
		zeros := 0 // zero bytes immediately before x[i]
	literal:
		for i < n {
			if i+8 <= n {
				w := binary.LittleEndian.Uint64(x[i:])
				if (w-lo8)&^w&hi8 == 0 { // no zero byte in the word
					i += 8
					zeros = 0
					continue
				}
			}
			for end := min(i+8, n); i < end; i++ {
				if x[i] != 0 {
					zeros = 0
					continue
				}
				if zeros++; zeros == 4 {
					break literal
				}
			}
		}
		// x[i] is the fourth zero of a stretch, or i == n after at most
		// three zeros: either way the literal ends before them.
		litEnd := i - zeros
		if zeros == 4 {
			litEnd = i - 3
		}
		o += binary.PutUvarint(enc[o:], uint64(litStart-runStart))
		o += binary.PutUvarint(enc[o:], uint64(litEnd-litStart))
		o += copy(enc[o:], x[litStart:litEnd])
		i = litEnd
	}
	if o > n {
		return Delta{Bytes: enc[:o:o], Len: o, pooled: true}
	}
	out := blockdev.GetBuf(o) // non-nil even when empty: nil marks modelled deltas
	copy(out, enc[:o])
	blockdev.PutBuf(enc)
	return Delta{Bytes: out, Len: o, pooled: true}
}

// Apply implements Codec.
func (ZRLE) Apply(old []byte, d Delta, out []byte) error {
	if d.Bytes == nil {
		return ErrNoBytes
	}
	if len(old) < blockdev.PageSize || len(out) < blockdev.PageSize {
		panic("delta: ZRLE.Apply needs full pages")
	}
	copy(out[:blockdev.PageSize], old[:blockdev.PageSize])
	buf := d.Bytes
	pos := 0
	for len(buf) > 0 {
		zeroRun, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrCorrupt
		}
		buf = buf[n:]
		litLen, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrCorrupt
		}
		buf = buf[n:]
		// Compare as uint64 before converting: a length >= 2^63 would
		// turn into a negative int and slip under a signed bound.
		if zeroRun > uint64(blockdev.PageSize-pos) {
			return ErrCorrupt
		}
		pos += int(zeroRun)
		if litLen > uint64(blockdev.PageSize-pos) || litLen > uint64(len(buf)) {
			return ErrCorrupt
		}
		blockdev.XORInto(out[pos:pos+int(litLen)], buf[:litLen])
		buf = buf[litLen:]
		pos += int(litLen)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Modelled: Gaussian-sized deltas for the trace-driven simulator.

// Modelled draws delta sizes from a clipped Gaussian, matching the
// paper's simulation assumption. It carries no bytes and cannot Apply.
type Modelled struct {
	rng    *sim.RNG
	mean   float64 // mean compression ratio, e.g. 0.25 for "KDD-25%"
	stddev float64
	lo, hi float64
}

// NewModelled returns a modelled codec with the given mean compression
// ratio (fraction of a page). The standard deviation defaults to mean/4
// and samples are clipped to [2%, 100%] of a page.
func NewModelled(seed uint64, meanRatio float64) *Modelled {
	if meanRatio <= 0 || meanRatio > 1 {
		panic("delta: mean ratio out of (0,1]")
	}
	return &Modelled{
		rng:    sim.NewRNG(seed),
		mean:   meanRatio,
		stddev: meanRatio / 4,
		lo:     0.02,
		hi:     1.0,
	}
}

// Name implements Codec.
func (m *Modelled) Name() string { return fmt.Sprintf("model-%d%%", int(m.mean*100+0.5)) }

// MeanRatio returns the configured mean compression ratio.
func (m *Modelled) MeanRatio() float64 { return m.mean }

// Encode implements Codec; pages are ignored and may be nil.
func (m *Modelled) Encode(_, _ []byte) Delta {
	r := m.rng.Gaussian(m.mean, m.stddev, m.lo, m.hi)
	n := int(r * float64(blockdev.PageSize))
	if n < 1 {
		n = 1
	}
	if n > blockdev.PageSize {
		n = blockdev.PageSize
	}
	return Delta{Len: n}
}

// Apply implements Codec; modelled deltas carry no bytes.
func (m *Modelled) Apply(_ []byte, _ Delta, _ []byte) error { return ErrNoBytes }

var (
	_ Codec = ZRLE{}
	_ Codec = (*Modelled)(nil)
)
