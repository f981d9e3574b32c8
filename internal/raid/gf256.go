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
	logC := int(gfLog[c])
	for i := range src {
		if src[i] != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[src[i]])]
		}
	}
}

// gfScale dst = c·src.
func gfScale(dst, src []byte, c byte) {
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	logC := int(gfLog[c])
	for i := range src {
		if src[i] == 0 {
			dst[i] = 0
		} else {
			dst[i] = gfExp[logC+int(gfLog[src[i]])]
		}
	}
}
