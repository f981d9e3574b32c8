package obs

import (
	"sync"

	"kddcache/internal/sim"
)

// This file implements the span recorder. Rendering every span to JSONL
// text as its tree closed — string formatting on the hot path of every
// traced operation — was measured at ~70% overhead. The Ring instead
// stores each span as a compact fixed-size binary record in chunked,
// append-only storage and defers all text rendering (and the
// phase-attribution sweep) to export time. Recording a span is a handful
// of word stores plus an occasional chunk allocation; the JSONL produced
// at export is byte-identical to encoding each span with AppendRecord as
// its tree closed.
//
// Records do not store span IDs at all. The tracer assigns IDs in open
// order and records each tree's spans in that same order, so within a
// tree the i-th record's ID is base+i, where base is the root's ID.
// The ring keeps one small side entry per tree (start index + base ID)
// and reconstructs ID, Parent, and Req on export. Likewise the end time
// is stored as a 32-bit duration (virtual spans longer than ~4.29
// virtual seconds spill to a side map — rebuild windows, essentially).
// Together that trims the record from three uint64 IDs plus two int64
// times to 32 bytes — half the memory streamed and retained per span.

// ringRec is the compact binary form of one Record. Device names are
// interned in the ring's string table so the record stays fixed-size
// and pointer-free (the GC never scans chunk interiors); dev is a
// 1-based index into that table (0 = no device).
type ringRec struct {
	begin  int64
	lba    int64
	dur    uint32 // End-Begin; durOverflow means the exact end is in durOver
	parent int32  // offset of parent within the tree, -1 for a root
	n      int32
	dev    uint16
	phase  uint8
}

// durOverflow marks a duration too large for 32 bits; maxDur is the
// largest representable one.
const (
	durOverflow = ^uint32(0)
	maxDur      = int64(durOverflow) - 1
)

// ringTree locates one span tree in the ring.
type ringTree struct {
	start int    // ring index of the tree's first (root) record
	base  uint64 // ID of the root span; span i of the tree has ID base+i
}

// ringChunk is the number of records per storage chunk. Chunked growth
// keeps recording O(1) per span: the ring never re-copies old records
// the way a single doubling slice would.
const ringChunk = 4096

// Ring is the span recorder a Tracer writes into. It is not safe for
// concurrent use; like the Tracer, each parallel harness job owns its
// own ring.
type Ring struct {
	chunks   [][]ringRec
	cur      []ringRec // chunk currently being filled (= chunks[n/ringChunk])
	pos      int       // next free slot in cur
	n        int       // records stored, including a partially built tree
	complete int       // records belonging to completed trees (export bound)
	trees    []ringTree
	devs     []string
	durOver  map[int32]int64 // exact end times of duration-overflow spans
}

// ringPool recycles rings — chunk storage, tree table, device table —
// between runs. Zeroing fresh chunks is a measurable slice of recording
// cost (make clears 128 KiB per chunk, megabytes per traced run); a
// recycled ring's chunks arrive dirty, which grow's contract already
// allows.
var ringPool sync.Pool

// newPooledRing returns a reset ring from the pool, or a fresh one.
func newPooledRing() *Ring {
	if v := ringPool.Get(); v != nil {
		return v.(*Ring)
	}
	return &Ring{}
}

// release resets r and returns it to the pool. The caller must not use
// r afterwards; exported byte slices and Records are unaffected (they
// never alias ring storage).
func (r *Ring) release() {
	r.n, r.pos, r.complete = 0, 0, 0
	if len(r.chunks) > 0 {
		r.cur = r.chunks[0]
	} else {
		r.cur = nil
	}
	r.trees = r.trees[:0]
	r.devs = r.devs[:0]
	clear(r.durOver)
	ringPool.Put(r)
}

// grow returns the next free record slot, allocating a chunk if needed.
// The caller must assign every field: slots are dirty after pool
// recycling and are not re-zeroed. The fast path — a bounds check and
// three word updates — inlines into BeginDev.
func (r *Ring) grow() *ringRec {
	if r.pos == len(r.cur) {
		r.nextChunk()
	}
	c := &r.cur[r.pos]
	r.pos++
	r.n++
	return c
}

// nextChunk advances cur to the chunk holding record r.n, allocating it
// if the ring has never been this large.
func (r *Ring) nextChunk() {
	ci := r.n / ringChunk
	if ci == len(r.chunks) {
		r.chunks = append(r.chunks, make([]ringRec, ringChunk))
	}
	r.cur = r.chunks[ci]
	r.pos = 0
}

func (r *Ring) at(i int) *ringRec { return &r.chunks[i/ringChunk][i%ringChunk] }

// setEnd stores the end time of the record at ring index i, spilling to
// the overflow map when the duration exceeds 32 bits. The common case is
// a single compare and store, inlined into Span.End.
func (r *Ring) setEnd(i int32, c *ringRec, end int64) {
	d := end - c.begin
	if uint64(d) <= uint64(maxDur) { // in-range and non-negative in one test
		c.dur = uint32(d)
		return
	}
	r.setEndSlow(i, c, d)
}

func (r *Ring) setEndSlow(i int32, c *ringRec, d int64) {
	if d < 0 {
		c.dur = 0 // End before Begin is clamped to a zero-length span
		return
	}
	if r.durOver == nil {
		r.durOver = make(map[int32]int64)
	}
	r.durOver[i] = c.begin + d
	c.dur = durOverflow
}

// end returns the end time of the record at ring index i.
func (r *Ring) end(i int, c *ringRec) int64 {
	if c.dur == durOverflow {
		return r.durOver[int32(i)]
	}
	return c.begin + int64(c.dur)
}

// intern maps a device name to its 1-based table index (0 for "").
// A traced run touches a handful of devices, so a linear scan — whose
// comparisons are pointer-equal hits for the fixed name strings devices
// carry — beats a map lookup on the hot path.
func (r *Ring) intern(dev string) uint16 {
	if dev == "" {
		return 0
	}
	for i, d := range r.devs {
		if d == dev {
			return uint16(i + 1)
		}
	}
	r.devs = append(r.devs, dev)
	return uint16(len(r.devs))
}

// Spans returns how many spans the ring holds in completed trees.
func (r *Ring) Spans() int { return r.complete }

// spanMeta reconstructs the ID and phase of the span at ring index i,
// for structural-error messages (binary search over the tree table;
// never on the hot path).
func (r *Ring) spanMeta(i int) (id uint64, ph Phase) {
	lo, hi := 0, len(r.trees)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.trees[mid].start <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t := &r.trees[lo-1]
	return t.base + uint64(i-t.start), Phase(r.at(i).phase)
}

// reconstruct rebuilds the full Record for ring index i of tree t.
func (r *Ring) reconstruct(i int, t *ringTree, out *Record) {
	c := r.at(i)
	out.ID = t.base + uint64(i-t.start)
	if c.parent < 0 {
		out.Parent = 0
	} else {
		out.Parent = t.base + uint64(c.parent)
	}
	out.Req = t.base
	out.Phase = Phase(c.phase)
	out.LBA = c.lba
	out.N = int(c.n)
	out.Begin = sim.Time(c.begin)
	out.End = sim.Time(r.end(i, c))
	if c.dev == 0 {
		out.Dev = ""
	} else {
		out.Dev = r.devs[c.dev-1]
	}
}

// AppendJSONL appends the canonical JSONL rendering (AppendRecord, one
// span per line) of every completed tree to b and returns the extended
// slice.
func (r *Ring) AppendJSONL(b []byte) []byte {
	var rec Record
	ti := 0
	for i := 0; i < r.complete; i++ {
		for ti+1 < len(r.trees) && r.trees[ti+1].start <= i {
			ti++
		}
		r.reconstruct(i, &r.trees[ti], &rec)
		b = AppendRecord(b, &rec)
		b = append(b, '\n')
	}
	return b
}

// Trees replays the completed trees to fn one at a time, in recording
// order, each as the tracer built it (spans in open order) — the input
// Profile.Tree and Digest.Tree consume. The slice passed to fn is reused
// between calls; fn must not retain it.
func (r *Ring) Trees(fn func(spans []Record)) {
	var tree []Record
	for ti := range r.trees {
		start := r.trees[ti].start
		end := r.complete
		if ti+1 < len(r.trees) {
			end = r.trees[ti+1].start
		}
		if start >= end {
			continue // partially built tree past the completion bound
		}
		tree = tree[:0]
		for i := start; i < end; i++ {
			var rec Record
			r.reconstruct(i, &r.trees[ti], &rec)
			tree = append(tree, rec)
		}
		fn(tree)
	}
}
