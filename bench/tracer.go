package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// seam identifies one interface boundary the benchmark wraps. A span is
// one call across a seam; spans nest exactly as the calls do, because
// every traced replay runs on one goroutine.
type seam uint8

const (
	seamRoot    seam = iota // cache.Policy call, or Plane.RunBatch
	seamSSDMeta             // SSD blockdev.Device, metadata partition
	seamSSDData             // SSD blockdev.Device, cache data partition
	seamArray               // cache.Backend (the RAID array)
	seamMember              // member blockdev.Device
	seamCodec               // delta.Codec
	numSeams
)

var seamNames = [numSeams]string{"root", "ssd.meta", "ssd.data", "array", "member", "codec"}

// method identifies the call within its seam.
type method uint8

const (
	mRead method = iota
	mWrite
	mTrim
	mClean
	mBatch
	mNoParity
	mWriteRow
	mParityFix
	mEncode
	mApply
	numMethods
)

var methodNames = [numMethods]string{"read", "write", "trim", "clean", "batch",
	"noparity", "writerow", "parityfix", "encode", "apply"}

// aggregate is what every traced call updates for its (seam, method).
type aggregate struct {
	calls int64
	ns    int64 // Σ span duration
	self  int64 // Σ duration not covered by child spans
	units int64 // pages moved (devices, array) or encoded bytes (codec)
}

// span is one full record, kept only for sampled requests.
type span struct {
	Req    int64  `json:"req"`    // request id: ordinal of the root span
	ID     int    `json:"id"`     // index of this span within the sample
	Parent int    `json:"parent"` // ID of the enclosing span, -1 for a root
	Name   string `json:"name"`   // "<seam>.<method>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	seam   seam
	method method
	start  int64
	child  int64 // Σ duration of direct children closed so far
	rec    int   // index into tracer.spans, -1 when the request is unsampled
}

// tracer times calls at the seams. It is not synchronised: traced
// replays are single-goroutine (the plane runs its deterministic
// scheduler when traced).
type tracer struct {
	base     time.Time
	stack    []openSpan
	agg      [numSeams][numMethods]aggregate
	roots    int64
	every    int64 // keep full records for one root span in every
	sampling bool
	spans    []span
	frozen   bool // after the replay: the epilogue is not part of the ledger
}

// newTracer samples one root span in every (the issue's 1-in-1024
// requests: 1024 on per-page roots, 4 on 256-op batch roots).
func newTracer(every int64) *tracer {
	return &tracer{base: time.Now(), stack: make([]openSpan, 0, 16), every: every}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(s seam, m method) {
	if t.frozen {
		return
	}
	if len(t.stack) == 0 {
		t.sampling = t.roots%t.every == 0
		t.roots++
	}
	rec := -1
	if t.sampling {
		rec = len(t.spans)
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		t.spans = append(t.spans, span{Req: t.roots - 1, ID: rec, Parent: parent,
			Name: seamNames[s] + "." + methodNames[m]})
	}
	t.stack = append(t.stack, openSpan{seam: s, method: m, rec: rec, start: t.now()})
}

func (t *tracer) end(units int) {
	if t.frozen {
		return
	}
	now := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - o.start
	a := &t.agg[o.seam][o.method]
	a.calls++
	a.ns += dur
	a.self += dur - o.child
	a.units += int64(units)
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if o.rec >= 0 {
		t.spans[o.rec].Start = o.start
		t.spans[o.rec].End = now
	}
}

// freeze stops recording; calls through the seams keep working.
func (t *tracer) freeze() { t.frozen = true }

// seamTotal sums one seam's aggregates over its methods.
func (t *tracer) seamTotal(s seam) aggregate {
	var sum aggregate
	for _, a := range t.agg[s] {
		sum.calls += a.calls
		sum.ns += a.ns
		sum.self += a.self
		sum.units += a.units
	}
	return sum
}

// writeSpans writes the sampled span records as JSONL.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("encode span %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
