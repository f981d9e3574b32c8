package blockdev

import (
	"bytes"
	"testing"

	"kddcache/internal/sim"
)

// xorLoop is the reference: one byte at a time over the shorter operand.
func xorLoop(dst, src []byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

func TestXORIntoMatchesLoop(t *testing.T) {
	rng := sim.NewRNG(3)
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	const guard = 16 // bytes on either side that must not change
	check := func(dstOff, srcOff, dstLen, srcLen int) {
		t.Helper()
		dstBuf, srcBuf := fill(dstOff+dstLen+guard), fill(srcOff+srcLen)
		want := bytes.Clone(dstBuf)
		xorLoop(want[dstOff:dstOff+dstLen], srcBuf[srcOff:])
		srcBefore := bytes.Clone(srcBuf)
		XORInto(dstBuf[dstOff:dstOff+dstLen], srcBuf[srcOff:])
		if !bytes.Equal(dstBuf, want) {
			t.Fatalf("dst+%d[%d] ^= src+%d[%d]: result (or its surroundings) differs from the byte loop", dstOff, dstLen, srcOff, srcLen)
		}
		if !bytes.Equal(srcBuf, srcBefore) {
			t.Fatalf("dst+%d[%d] ^= src+%d[%d]: src modified", dstOff, dstLen, srcOff, srcLen)
		}
	}
	for n := 0; n <= PageSize; n++ {
		check(n%9, (n+3)%7, n, n)
	}
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4095, PageSize} {
		for off := 0; off < 9; off++ {
			check(off, 0, n, n)
			check(0, off, n, n)
			check(off, 8-off, n, n)
			check(off, 1, n, n/2) // len(src) < len(dst): the tail stays
			check(1, off, n/2, n) // len(src) > len(dst): nothing past dst
		}
	}

	// Nil operands (timing mode) are free no-ops.
	XORInto(nil, nil)
	XORInto(nil, fill(8))
	dst := fill(PageSize)
	before := bytes.Clone(dst)
	XORInto(dst, nil)
	if !bytes.Equal(dst, before) {
		t.Fatal("XORInto(dst, nil) changed dst")
	}
	// Folding the same page in twice restores dst; folding dst into
	// itself clears it (exact overlap is allowed).
	src := fill(PageSize)
	XORInto(dst, src)
	XORInto(dst, src)
	if !bytes.Equal(dst, before) {
		t.Fatal("XORInto is not self-inverse")
	}
	XORInto(dst, dst)
	if !bytes.Equal(dst, make([]byte, PageSize)) {
		t.Fatal("XORInto(dst, dst) did not clear dst")
	}
}

func BenchmarkXORInto(b *testing.B) {
	rng := sim.NewRNG(2)
	dst, src := make([]byte, PageSize), make([]byte, PageSize)
	for i := range src {
		dst[i], src[i] = byte(rng.Uint64()), byte(rng.Uint64())
	}
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(PageSize)
		for i := 0; i < b.N; i++ {
			XORInto(dst, src)
		}
	})
	// The loop both array engines carried before they shared the kernel.
	b.Run("byteloop", func(b *testing.B) {
		b.SetBytes(PageSize)
		for i := 0; i < b.N; i++ {
			xorLoop(dst, src)
		}
	})
}
