package obs

import (
	"fmt"

	"kddcache/internal/sim"
)

// Record is one completed span. Begin/End are virtual times; a span may
// end after its parent when the modelled work completes asynchronously
// (e.g. a cache fill whose SSD write outlives the request), so nesting
// is defined on begin times and attribution clips to the root window.
type Record struct {
	ID     uint64 // unique per tracer, assigned in open order, starts at 1
	Parent uint64 // 0 for a root span
	Req    uint64 // ID of the enclosing root span (own ID for roots)
	Phase  Phase
	Dev    string // device name for dev_* spans, "" otherwise
	LBA    int64  // target LBA, -1 when not applicable
	N      int    // page count, 0 when not applicable
	Begin  sim.Time
	End    sim.Time
}

// Duration returns the span length (never negative; End is clamped to
// Begin at close time).
func (r *Record) Duration() sim.Time { return r.End - r.Begin }

// Tracer records spans into per-request trees, writing each span
// straight into its Ring's binary storage as it opens; End patches the
// stored duration in place. Get one from obs.New.
//
// The tracer keeps no explicit stack of open spans: because every
// span's parent is the innermost open span at its Begin, the open spans
// always form exactly the parent chain from the newest span to the
// root. Tracking the chain head (openTop) and its length (depth) is
// enough — End restores the head from the closing record's parent
// offset, and the error paths walk the chain through the stored
// records. A Span handle names its record by ring index, which is
// unique over the ring's life, so a stale handle from a finished tree
// is recognised as closed twice and never touches the open tree.
//
// A nil *Tracer is valid and free: every method no-ops, and Begin
// returns a Span whose End also no-ops — instrumented code needs no
// branches beyond the ones it writes for deferred closes.
//
// The tracer is not safe for concurrent use; the harness gives each
// parallel job its own tracer so IDs (and therefore trace bytes) do not
// depend on pool width.
type Tracer struct {
	ring      *Ring
	nextID    uint64
	treeStart int32 // ring index of the current tree's root
	openTop   int32 // ring index of the innermost open span
	depth     int32 // number of open spans
	err       error // first structural misuse observed (unbalanced End)
}

// Span is a handle to an open span. The zero value is inert: End on it
// is a no-op, which is what Begin on a nil tracer returns.
type Span struct {
	tr  *Tracer
	rec *ringRec // the span's record, for O(1) patching on End
	idx int32
}

// Begin opens a span of phase p at virtual time t.
func (tr *Tracer) Begin(t sim.Time, p Phase) Span {
	return tr.BeginDev(t, p, "", -1, 0)
}

// BeginLBA opens a span annotated with its target LBA.
func (tr *Tracer) BeginLBA(t sim.Time, p Phase, lba int64) Span {
	return tr.BeginDev(t, p, "", lba, 1)
}

// BeginDev opens a fully annotated span (device name, LBA, page count).
// Pass lba < 0 and n == 0 to omit the annotations from the trace.
func (tr *Tracer) BeginDev(t sim.Time, p Phase, dev string, lba int64, n int) Span {
	if tr == nil {
		return Span{}
	}
	tr.nextID++
	r := tr.ring
	parent := int32(-1)
	if tr.depth == 0 {
		tr.treeStart = int32(r.n)
		r.trees = append(r.trees, ringTree{start: r.n, base: tr.nextID})
	} else {
		parent = tr.openTop - tr.treeStart
	}
	var dv uint16
	if dev != "" {
		dv = r.intern(dev)
	}
	idx := int32(r.n)
	c := r.grow()
	// One struct-literal assignment so the compiler emits wide
	// stores for the whole 32-byte record (dur zeroes implicitly).
	*c = ringRec{begin: int64(t), lba: lba, parent: parent, n: int32(n), dev: dv, phase: uint8(p)}
	tr.openTop = idx
	tr.depth++
	return Span{tr: tr, rec: c, idx: idx}
}

// Mark records an instantaneous (zero-duration) span at t under the
// currently open span. Used for events like an NVRAM stage that occupy
// no virtual time but belong in the trace.
func (tr *Tracer) Mark(t sim.Time, p Phase, lba int64) {
	if tr == nil {
		return
	}
	if tr.depth > 0 {
		// Fast path: a nested mark is a single record store, with no
		// open-chain traffic — identical to BeginLBA followed at once
		// by End(t).
		tr.nextID++
		c := tr.ring.grow()
		*c = ringRec{begin: int64(t), lba: lba, parent: tr.openTop - tr.treeStart, n: 1, phase: uint8(p)}
		return
	}
	sp := tr.BeginLBA(t, p, lba)
	sp.End(t)
}

// End closes the span at virtual time t. End before Begin is clamped
// (zero-length span). Closing out of stack order force-closes the
// intervening spans at t and records a structural error on the tracer,
// so the property tests can assert the instrumentation is balanced.
func (s Span) End(t sim.Time) {
	tr := s.tr
	if tr == nil {
		return
	}
	if tr.depth > 0 && tr.openTop == s.idx { // common case: innermost span closes
		r, c := tr.ring, s.rec
		r.setEnd(s.idx, c, int64(t))
		tr.depth--
		if tr.depth == 0 {
			tr.openTop = -1
			r.complete = r.n // root closed: tree becomes exportable
		} else {
			tr.openTop = tr.treeStart + c.parent
		}
		return
	}
	s.endSlow(t)
}

// endSlow handles the cases the fast path rejects: a double close or a
// close over still-open children. The open chain is walked through the
// stored parent offsets; a span not on it was closed before.
func (s Span) endSlow(t sim.Time) {
	tr, r := s.tr, s.tr.ring
	found := false
	skipped := 0
	if tr.depth > 0 {
		j := tr.openTop
		for {
			if j == s.idx {
				found = true
				break
			}
			c := r.at(int(j))
			if c.parent < 0 {
				break
			}
			j = tr.treeStart + c.parent
			skipped++
		}
	}
	if !found {
		if tr.err == nil {
			id, ph := r.spanMeta(int(s.idx))
			tr.err = fmt.Errorf("obs: span %d (%s) closed twice", id, ph)
		}
		return
	}
	if skipped > 0 && tr.err == nil {
		id, ph := r.spanMeta(int(s.idx))
		tr.err = fmt.Errorf("obs: span %d (%s) closed with %d children still open",
			id, ph, skipped)
	}
	for {
		j := tr.openTop
		c := r.at(int(j))
		r.setEnd(j, c, int64(t))
		tr.depth--
		if tr.depth == 0 {
			tr.openTop = -1
			r.complete = r.n
		} else {
			tr.openTop = tr.treeStart + c.parent
		}
		if j == s.idx {
			return
		}
	}
}

// OpenSpans returns how many spans are currently open. After any
// complete operation (including one unwound by an injected crash) this
// must be zero; the crash-consistency rig asserts it.
func (tr *Tracer) OpenSpans() int {
	if tr == nil {
		return 0
	}
	return int(tr.depth)
}

// Spans returns the total number of spans opened over the tracer's
// lifetime (marks included).
func (tr *Tracer) Spans() uint64 {
	if tr == nil {
		return 0
	}
	return tr.nextID
}

// Err returns the first structural misuse observed (a span closed twice
// or closed over still-open children), or nil.
func (tr *Tracer) Err() error {
	if tr == nil {
		return nil
	}
	return tr.err
}
