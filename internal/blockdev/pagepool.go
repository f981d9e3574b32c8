package blockdev

import (
	"sync"
	"unsafe"
)

// Page-buffer pool. Content mode allocates single-page scratch buffers
// on nearly every operation — read staging, parity accumulators, delta
// expansion — and at simulation rates those allocations dominate GC
// pressure. The pool recycles them.
//
// Ownership rules (see DESIGN.md "Performance"):
//
//   - GetPage returns a buffer with ARBITRARY content; callers that
//     accumulate into it (XOR/parity targets) must use GetZeroPage.
//   - PutPage hands the buffer back; the caller must not retain any
//     reference to it afterwards. Double-put is a caller bug the pool
//     cannot detect.
//   - Only return buffers whose lifetime provably ends: never a buffer
//     stored into a cache, staged as an NVRAM delta, or handed to a
//     device that retains it. When in doubt, don't put — an unpooled
//     buffer is garbage, never a correctness bug.
//   - PutPage silently drops buffers of the wrong shape, so foreign
//     slices (sub-slices of multi-page buffers, nil in timing mode) are
//     always safe to pass.
//   - A MemStore's stored pages are pool pages too: WritePage takes one
//     for an unwritten address and TrimPage puts it back.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// GetPage returns a PageSize scratch buffer with arbitrary content.
func GetPage() []byte { return pagePool.Get().(*[PageSize]byte)[:] }

// GetZeroPage returns a zeroed PageSize buffer — for XOR and parity
// accumulators that fold pages into an all-zero start state.
func GetZeroPage() []byte {
	b := GetPage()
	clear(b)
	return b
}

// PutPage returns a buffer obtained from GetPage to the pool. Buffers
// that are nil (timing mode) or not exactly one pooled page are ignored.
func PutPage(b []byte) {
	if len(b) != PageSize || cap(b) != PageSize {
		return
	}
	if poisonRecycled {
		fill(b, poisonByte)
	}
	pagePool.Put((*[PageSize]byte)(b))
}

// Sized free list. Delta payloads are shorter than a page and live
// longer than a call — from Encode until NVRAM staging lets go of them —
// so they come from size-classed free lists instead of the page pool.
// The bytes handed out are a view of exactly the requested length AND
// capacity, so nothing downstream can grow into the slack of the class.
//
// Ownership follows the PutPage convention: a buffer has one owner at a
// time, an unreleased buffer is garbage (never a bug), and releasing
// twice or reading the bytes after PutBuf is a caller bug the pool
// cannot detect — the ownership test (poisonRecycled) exists to catch it.
// Unlike PutPage, PutBuf cannot tell a foreign slice from its own: pass
// it only what GetBuf returned.

// bufClassBytes is the size-class granularity: class c holds buffers of
// c*bufClassBytes bytes, so a view wastes less than one class step.
const bufClassBytes = 256

// MaxBufBytes is the largest buffer GetBuf serves: a page plus one class
// step, which covers the worst-case ZRLE encoding.
const MaxBufBytes = PageSize + bufClassBytes

// bufPools[c] holds the first byte of free class-c buffers: a pointer
// goes into a sync.Pool without the allocation a slice header would
// cost, and unsafe.Slice turns it back into the buffer.
var bufPools [MaxBufBytes/bufClassBytes + 1]sync.Pool

func bufClass(n int) int { return (n + bufClassBytes - 1) / bufClassBytes }

// poisonRecycled, set only by tests, overwrites every page and buffer
// with poisonByte as PutPage or PutBuf takes it back (a MemStore's trimmed
// pages included), so a reader that kept a reference past the release
// sees garbage instead of plausible stale bytes.
var poisonRecycled bool

const poisonByte = 0xDB

// GetBuf returns n <= MaxBufBytes bytes of arbitrary content, len and
// cap both n, non-nil even when n is zero.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if p, _ := bufPools[c].Get().(*byte); p != nil {
		return unsafe.Slice(p, c*bufClassBytes)[:n:n]
	}
	return make([]byte, c*bufClassBytes)[:n:n]
}

// PutBuf returns a slice obtained from GetBuf, at the length GetBuf
// returned it: the length is what selects the class it goes back to.
func PutBuf(b []byte) {
	if len(b) == 0 {
		return
	}
	if poisonRecycled {
		fill(b, poisonByte)
	}
	bufPools[bufClass(len(b))].Put(unsafe.SliceData(b))
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}
