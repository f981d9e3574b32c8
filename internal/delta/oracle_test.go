package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// zrleEncodeByteWise is the original one-byte-at-a-time encoder, kept as
// the oracle: encoded bytes land in DEZ pages, so every digest, golden
// and write count in the repo is pinned on ZRLE.Encode reproducing it
// exactly.
func zrleEncodeByteWise(old, new []byte) []byte {
	var x [blockdev.PageSize]byte
	for i := range x {
		x[i] = old[i] ^ new[i]
	}
	out := []byte{}
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(x) {
		runStart := i
		for i < len(x) && x[i] == 0 {
			i++
		}
		zeroRun := i - runStart
		if i == len(x) {
			break
		}
		litStart := i
		zeros := 0
		for i < len(x) {
			if x[i] == 0 {
				zeros++
				if zeros >= 4 {
					i -= zeros - 1
					break
				}
			} else {
				zeros = 0
			}
			i++
		}
		litEnd := i
		for litEnd > litStart && x[litEnd-1] == 0 {
			litEnd--
		}
		n := binary.PutUvarint(tmp[:], uint64(zeroRun))
		out = append(out, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(litEnd-litStart))
		out = append(out, tmp[:n]...)
		out = append(out, x[litStart:litEnd]...)
		i = litEnd
	}
	return out
}

// checkAgainstOracle encodes old→new both ways and requires identical
// bytes, an exact-size buffer and a clean round trip. The XOR image is
// what the encoder sees, so cases are stated as XOR images over a zero
// old page unless the old page matters.
func checkAgainstOracle(t *testing.T, name string, old, new []byte) {
	t.Helper()
	want := zrleEncodeByteWise(old, new)
	d := ZRLE{}.Encode(old, new)
	if d.Bytes == nil {
		t.Fatalf("%s: Encode returned nil Bytes (nil marks modelled deltas)", name)
	}
	if !bytes.Equal(d.Bytes, want) {
		t.Fatalf("%s: encoding differs from the byte-wise oracle: got %d bytes, want %d", name, len(d.Bytes), len(want))
	}
	if d.Len != len(want) || cap(d.Bytes) != len(want) {
		t.Fatalf("%s: Len %d cap %d, want both %d (exact-size output)", name, d.Len, cap(d.Bytes), len(want))
	}
	if len(want) > zrleMaxLen {
		t.Fatalf("%s: oracle encoding %d bytes exceeds zrleMaxLen %d", name, len(want), zrleMaxLen)
	}
	out := make([]byte, blockdev.PageSize)
	if err := (ZRLE{}).Apply(old, d, out); err != nil {
		t.Fatalf("%s: Apply: %v", name, err)
	}
	if !bytes.Equal(out, new[:blockdev.PageSize]) {
		t.Fatalf("%s: round trip mismatch", name)
	}
}

func TestZRLEMatchesByteWiseOracle(t *testing.T) {
	const n = blockdev.PageSize
	zeroPage := make([]byte, n)
	image := func(fill func(x []byte)) []byte {
		x := make([]byte, n)
		fill(x)
		return x
	}
	ones := func(x []byte) {
		for i := range x {
			x[i] = 0xA5
		}
	}

	checkAgainstOracle(t, "all-zero", zeroPage, zeroPage)
	checkAgainstOracle(t, "all-different", zeroPage, image(ones))
	checkAgainstOracle(t, "only byte 0", zeroPage, image(func(x []byte) { x[0] = 1 }))
	checkAgainstOracle(t, "only byte 4095", zeroPage, image(func(x []byte) { x[n-1] = 1 }))
	checkAgainstOracle(t, "literal to page end", zeroPage, image(func(x []byte) { ones(x[n-100:]) }))
	checkAgainstOracle(t, "long zero run then one byte", zeroPage, image(func(x []byte) { x[300] = 7 }))

	// Zero stretches of 1–9 bytes inside a literal, at every offset
	// relative to a word boundary, and against the page end.
	for stretch := 1; stretch <= 9; stretch++ {
		for at := 56; at < 56+17; at++ {
			checkAgainstOracle(t, fmt.Sprintf("stretch %d at %d", stretch, at), zeroPage,
				image(func(x []byte) {
					ones(x[40:200])
					clear(x[at : at+stretch])
				}))
		}
		checkAgainstOracle(t, fmt.Sprintf("stretch %d before the last byte", stretch), zeroPage,
			image(func(x []byte) {
				ones(x[n-64:])
				clear(x[n-1-stretch : n-1])
			}))
		checkAgainstOracle(t, fmt.Sprintf("stretch %d at the page end", stretch), zeroPage,
			image(func(x []byte) {
				ones(x[n-64:])
				clear(x[n-stretch:])
			}))
	}
	// Literal starts at every offset within a word, and at the last
	// seven bytes where the word loads stop.
	for at := 0; at < 16; at++ {
		checkAgainstOracle(t, fmt.Sprintf("start at %d", at), zeroPage, image(func(x []byte) { ones(x[at : at+24]) }))
		checkAgainstOracle(t, fmt.Sprintf("start at end-%d", at), zeroPage, image(func(x []byte) { x[n-1-at] = 9 }))
	}

	// Random pages: the benchmark's clustered rewrites at delta ratios
	// from nothing to everything, and unclustered byte noise at several
	// densities (many short zero stretches).
	rng := sim.NewRNG(42)
	for _, ratio := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.35, 0.5, 0.7, 0.9, 1} {
		mut := NewMutator(rng.Uint64(), ratio)
		for k := 0; k < 50; k++ {
			old := randomPage(rng)
			newPage := append([]byte(nil), old...)
			mut.Mutate(newPage)
			checkAgainstOracle(t, fmt.Sprintf("mutator %.3f #%d", ratio, k), old, newPage)
		}
	}
	for _, density := range []uint64{2, 4, 16, 64, 256, 1024} {
		for k := 0; k < 50; k++ {
			old := randomPage(rng)
			newPage := append([]byte(nil), old...)
			for i := range newPage {
				if rng.Uint64()%density == 0 {
					newPage[i] ^= byte(1 + rng.Uint64()%255)
				}
			}
			checkAgainstOracle(t, fmt.Sprintf("noise 1/%d #%d", density, k), old, newPage)
		}
	}
}

// TestEncodeOrRawMatchesOracle pins the write path's fallback on either
// side of the boundary: an encoding of a page or more becomes the raw
// delta — byte for byte the fresh, exact-size copy of the new page that
// NewRaw made before payloads were recycled — and a shorter one is the
// oracle's encoding. Both come out of the free list, so the sequence is
// run twice with every result released in between: the second pass gets
// recycled buffers and must produce the same bytes.
func TestEncodeOrRawMatchesOracle(t *testing.T) {
	const n = blockdev.PageSize
	zeroPage := make([]byte, n)
	literal := func(length int) []byte { // XOR image: one literal from byte 0
		x := make([]byte, n)
		for i := range x[:length] {
			x[i] = 0xA5
		}
		return x
	}
	rng := sim.NewRNG(7)
	cases := []struct {
		name     string
		old, new []byte
		raw      bool
	}{
		{"4095-byte encoding", zeroPage, literal(n - 4), false}, // 1 + 2 + 4092
		{"4096-byte encoding", zeroPage, literal(n - 3), true},  // 1 + 2 + 4093
		{"4099-byte encoding", zeroPage, literal(n), true},
		{"unrelated pages", randomPage(rng), randomPage(rng), true},
		{"identical pages", zeroPage, zeroPage, false},
	}
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			enc := zrleEncodeByteWise(tc.old, tc.new)
			if (len(enc) >= n) != tc.raw {
				t.Fatalf("%s: oracle encoding is %d bytes, case expects raw=%v", tc.name, len(enc), tc.raw)
			}
			want := enc
			if tc.raw {
				want = make([]byte, n) // NewRaw as it was: make, copy
				copy(want, tc.new)
			}
			d := EncodeOrRaw(ZRLE{}, tc.old, tc.new)
			if d.Raw != tc.raw || d.Len != len(want) || !bytes.Equal(d.Bytes, want) || cap(d.Bytes) != len(want) || d.Bytes == nil {
				t.Fatalf("pass %d, %s: got raw=%v Len=%d len=%d cap=%d, want raw=%v and exactly the oracle's %d bytes",
					pass, tc.name, d.Raw, d.Len, len(d.Bytes), cap(d.Bytes), tc.raw, len(want))
			}
			out := make([]byte, n)
			if err := ApplyAny(ZRLE{}, tc.old, d, out); err != nil || !bytes.Equal(out, tc.new) {
				t.Fatalf("pass %d, %s: round trip: err %v, bytes equal %v", pass, tc.name, err, bytes.Equal(out, tc.new))
			}
			d.Release()
		}
	}
}

// poolDropsPuts is set by race_test.go when the race detector is on.
var poolDropsPuts bool

// TestEncodeReleaseRecycles: an encode-then-release cycle draws on the
// free list and gives back exactly what it drew, at every encoded size
// on either side of a class boundary and of the raw fallback. A buffer
// that went back to another class than it came from would show up here
// as one allocation per cycle (and in a long run as a free list that
// grows without bound).
func TestEncodeReleaseRecycles(t *testing.T) {
	if poolDropsPuts {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = blockdev.PageSize
	zeroPage := make([]byte, n)
	for _, literal := range []int{0, 1, 252, 253, 254, n - 260, n - 259, n - 4, n - 3, n - 2, n - 1, n} {
		x := make([]byte, n)
		for i := range x[:literal] {
			x[i] = 0xA5
		}
		cycle := func() { EncodeOrRaw(ZRLE{}, zeroPage, x).Release() }
		cycle()
		if got := testing.AllocsPerRun(50, cycle); got > 0.5 {
			t.Errorf("literal of %d bytes: %.2f allocations per encode+release cycle, want 0", literal, got)
		}
	}
}

// A zero-run or literal length of 2^63 or more must not wrap to a
// negative int and index out of the page.
func TestZRLEApplyRejectsHugeLengths(t *testing.T) {
	old := make([]byte, blockdev.PageSize)
	out := make([]byte, blockdev.PageSize)
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, enc := range map[string][]byte{
		"zero run 2^63":        append(uv(1<<63, 1), 0xff),
		"zero run 2^64-1":      append(uv(1<<64-1, 1), 0xff),
		"literal 2^63":         append(uv(0, 1<<63), 0xff),
		"run wraps past start": append(uv(10, 1, 1<<64-5, 1), 0xff, 0xff),
		"run past the page":    append(uv(blockdev.PageSize, 1), 0xff),
		"literal past buffer":  append(uv(0, 2), 0xff),
	} {
		if err := (ZRLE{}).Apply(old, Delta{Bytes: enc, Len: len(enc)}, out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Apply = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzZRLEApply: arbitrary delta bytes never panic ZRLE's Apply,
// and Encode→Apply round-trips pages derived from the same input while
// matching the byte-wise oracle.
func FuzzZRLEApply(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<63), 1), 0xff))
	f.Add([]byte{0, 3, 1, 2, 3, 4, 1, 9})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 7}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		old := make([]byte, blockdev.PageSize)
		out := make([]byte, blockdev.PageSize)
		d := Delta{Bytes: data, Len: len(data)}
		if d.Bytes == nil {
			d.Bytes = []byte{}
		}
		_ = ZRLE{}.Apply(old, d, out)

		// The input doubles as page content: tile it over the old page
		// and lay it once, at an input-chosen offset, over the new one.
		if len(data) == 0 {
			return
		}
		for i := range old {
			old[i] = data[i%len(data)] * byte(i/len(data)+1)
		}
		newPage := append([]byte(nil), old...)
		off := (int(data[0])<<8 | len(data)) % blockdev.PageSize
		for i, b := range data {
			if off+i < len(newPage) {
				newPage[off+i] = b
			}
		}
		checkAgainstOracle(t, "fuzz", old, newPage)
	})
}
