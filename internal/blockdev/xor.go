package blockdev

import "crypto/subtle"

// XORInto folds src into dst: dst[i] ^= src[i] for i < min(len(dst),
// len(src)). It is the one XOR kernel under both array engines, the
// delta codecs and the parity-logging caches. A nil operand (timing mode
// carries no bytes) makes it a free no-op. dst and src must be the same
// slice or not overlap at all.
func XORInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
