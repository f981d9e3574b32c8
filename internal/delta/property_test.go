package delta

import (
	"bytes"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
)

// zrleWorstCase is ZRLE's worst-case encoded size. ZRLE breaks literal
// runs only at zero runs of >= 4, so a fully incompressible XOR image
// costs the page plus a few varint headers. The KDD write path falls back
// to NewRaw at >= PageSize, so DEZ space never holds an expanded delta —
// the bound here keeps that fallback sufficient.
const zrleWorstCase = blockdev.PageSize + 8

// pageShapes builds the content families the cache actually sees: clean
// rewrites, sparse OLTP-style mutations, dense mutations, incompressible
// pages, and first writes over zeros.
func pageShapes(seed uint64) [][2][]byte {
	mut := NewMutator(seed, 0.05)
	dense := NewMutator(seed^1, 0.40)
	var shapes [][2][]byte
	add := func(old, new []byte) { shapes = append(shapes, [2][]byte{old, new}) }

	base := make([]byte, blockdev.PageSize)
	mut.FillRandom(base)
	same := make([]byte, blockdev.PageSize)
	copy(same, base)
	add(base, same) // identical rewrite

	sparse := make([]byte, blockdev.PageSize)
	copy(sparse, base)
	mut.Mutate(sparse)
	add(base, sparse) // ~5% changed

	heavy := make([]byte, blockdev.PageSize)
	copy(heavy, base)
	dense.Mutate(heavy)
	add(base, heavy) // ~40% changed

	random := make([]byte, blockdev.PageSize)
	dense.FillRandom(random)
	add(base, random) // unrelated content: incompressible XOR

	add(make([]byte, blockdev.PageSize), random) // first write over zeros
	return shapes
}

// packedRoundTrip runs the full DEZ life of a delta: encode, pack the
// payload into a shared page image at an offset, unpack by slicing the
// recorded extent back out, and apply to the old page. It returns the
// reconstruction and the encoded delta.
func packedRoundTrip(t *testing.T, c Codec, old, new []byte, off int) ([]byte, Delta) {
	t.Helper()
	d := EncodeOrRaw(c, old, new) // the KDD write path, incompressible fallback included
	if d.Len != len(d.Bytes) {
		t.Fatalf("%s: Len %d != len(Bytes) %d", c.Name(), d.Len, len(d.Bytes))
	}
	image := make([]byte, blockdev.PageSize+d.Len+off)
	copy(image[off:], d.Bytes)
	unpacked := Delta{Bytes: image[off : off+d.Len], Len: d.Len, Raw: d.Raw}
	out := make([]byte, blockdev.PageSize)
	if err := ApplyAny(c, old, unpacked, out); err != nil {
		t.Fatalf("%s: apply: %v", c.Name(), err)
	}
	return out, d
}

// TestRoundTripShapes: compress→pack→unpack→apply reproduces the new page
// over every content family, and every encoded delta respects ZRLE's
// worst-case bound.
func TestRoundTripShapes(t *testing.T) {
	c := ZRLE{}
	for i, sh := range pageShapes(0xBEEF + uint64(len(c.Name()))) {
		old, new := sh[0], sh[1]
		raw := c.Encode(old, new)
		if raw.Len > zrleWorstCase {
			t.Errorf("shape %d: encoded %d bytes, bound %d", i, raw.Len, zrleWorstCase)
		}
		for _, off := range []int{0, 1, 517} {
			got, d := packedRoundTrip(t, c, old, new, off)
			if !bytes.Equal(got, new) {
				t.Fatalf("shape %d off %d: reconstruction diverges", i, off)
			}
			if d.Len > blockdev.PageSize {
				t.Fatalf("shape %d: post-fallback delta %d exceeds a page", i, d.Len)
			}
		}
	}
}

// TestRoundTripQuick: the same property over randomized page pairs driven
// by testing/quick — arbitrary old/new content, arbitrary pack offset.
func TestRoundTripQuick(t *testing.T) {
	f := func(oldSeed, newSeed uint64, ratio16 uint16, off uint16) bool {
		old := make([]byte, blockdev.PageSize)
		NewMutator(oldSeed, 0.5).FillRandom(old)
		new := make([]byte, blockdev.PageSize)
		copy(new, old)
		// +1 keeps the ratio inside NewMutator's (0,1] domain: a raw
		// ratio16 divisible by 1000 would panic.
		NewMutator(newSeed, float64(ratio16%1000+1)/1000).Mutate(new)
		got, _ := packedRoundTrip(t, ZRLE{}, old, new, int(off%2048))
		return bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEncodeDeterministic: encoding is a pure function — the DEZ replay
// path depends on byte-identical re-encodes.
func TestEncodeDeterministic(t *testing.T) {
	for i, sh := range pageShapes(0xD151) {
		a := ZRLE{}.Encode(sh[0], sh[1])
		b := ZRLE{}.Encode(sh[0], sh[1])
		if a.Len != b.Len || a.Raw != b.Raw || !bytes.Equal(a.Bytes, b.Bytes) {
			t.Errorf("shape %d: encode not deterministic", i)
		}
	}
}
