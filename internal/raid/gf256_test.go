package raid

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGFMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) || gfMul(1, byte(a)) != byte(a) {
			t.Fatalf("1 is not identity for %d", a)
		}
		if gfMul(byte(a), 0) != 0 || gfMul(0, byte(a)) != 0 {
			t.Fatalf("0 not absorbing for %d", a)
		}
	}
}

func TestGFFieldAxioms(t *testing.T) {
	commutative := func(a, b byte) bool { return gfMul(a, b) == gfMul(b, a) }
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	associative := func(a, b, c byte) bool {
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distributive := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(distributive, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("inv(%d) = %d is not an inverse", a, inv)
		}
	}
}

func TestGFDivRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfMul(gfDiv(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPowGeneratorOrder(t *testing.T) {
	if gfPow(0) != 1 {
		t.Fatal("g^0 != 1")
	}
	if gfPow(255) != 1 {
		t.Fatal("g^255 != 1 (generator order wrong)")
	}
	if gfPow(-1) != gfPow(254) {
		t.Fatal("negative exponent not normalized")
	}
	// g=2 must generate the whole multiplicative group.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[gfPow(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator produced %d distinct elements, want 255", len(seen))
	}
}

func TestGFMulIntoMatchesScalarMul(t *testing.T) {
	f := func(src []byte, c byte) bool {
		dst := make([]byte, len(src))
		gfMulInto(dst, src, c)
		for i := range src {
			if dst[i] != gfMul(src[i], c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFScale(t *testing.T) {
	src := []byte{0, 1, 2, 255, 128}
	dst := make([]byte, len(src))
	gfScale(dst, src, 3)
	for i := range src {
		if dst[i] != gfMul(src[i], 3) {
			t.Fatalf("gfScale mismatch at %d", i)
		}
	}
	gfScale(dst, src, 0)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("scale by 0 should zero dst")
		}
	}
	gfScale(dst, src, 1)
	if !bytes.Equal(dst, src) {
		t.Fatal("scale by 1 should copy")
	}
}

// TestGFPageKernelsExhaustive checks the table-driven page kernels against
// gfMul for every coefficient and every byte value, accumulating onto a
// non-zero destination.
func TestGFPageKernelsExhaustive(t *testing.T) {
	src := make([]byte, 256)
	for x := range src {
		src[x] = byte(x)
	}
	dst := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		for x := range dst {
			dst[x] = byte(x * 7)
		}
		gfMulInto(dst, src, byte(c))
		for x := range src {
			if want := byte(x*7) ^ gfMul(byte(x), byte(c)); dst[x] != want {
				t.Fatalf("gfMulInto c=%d x=%d: got %d, want %d", c, x, dst[x], want)
			}
		}
		gfScale(dst, src, byte(c))
		for x := range src {
			if want := gfMul(byte(x), byte(c)); dst[x] != want {
				t.Fatalf("gfScale c=%d x=%d: got %d, want %d", c, x, dst[x], want)
			}
		}
	}
}
