// Package raid implements the parity-based disk array the paper's cache
// sits in front of: RAID-5/6 with byte-accurate parity, the
// small-write paths (read-modify-write and reconstruct-write), degraded
// operation, rebuild, and the two interfaces the paper adds for delayed
// parity maintenance (§III-A): write-without-parity-update and
// parity-update.
package raid

// GF(2^8) arithmetic with the polynomial x^8+x^4+x^3+x^2+1 (0x11d), the
// field used by Linux MD and most RAID-6 implementations. RAID-6 Q parity
// is computed as Q = Σ g^i · D_i with generator g = 2.

import "kddcache/internal/blockdev"

const gfPoly = 0x11d

var (
	gfExp [512]byte // g^i for i in [0,510); doubled to avoid mod 255
	gfLog [256]byte // log_g(x) for x != 0

	// gfProd[c][x] = c·x: a page multiply is one lookup a byte, with no
	// branch on the byte's value (64 KiB, built once).
	gfProd [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range gfProd {
		for x := range gfProd[c] {
			gfProd[c][x] = gfMul(byte(c), byte(x))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b (b must be non-zero).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("raid: GF division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a (a must be non-zero).
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow returns g^n for the generator g=2.
func gfPow(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// gfMulInto dst ^= c·src (multiply-accumulate over GF(2^8)).
func gfMulInto(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		blockdev.XORInto(dst, src)
		return
	}
	// Four bytes a step: the byte-at-a-time loop ran 60 % slower at one
	// code alignment than at another; this body does not.
	prod := &gfProd[c]
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s, d := src[i:i+4:i+4], dst[i:i+4:i+4]
		d[0] ^= prod[s[0]]
		d[1] ^= prod[s[1]]
		d[2] ^= prod[s[2]]
		d[3] ^= prod[s[3]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= prod[src[i]]
	}
}

// gfScale dst = c·src.
func gfScale(dst, src []byte, c byte) {
	if c == 1 {
		copy(dst, src)
		return
	}
	prod := &gfProd[c]
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = prod[x]
	}
}
