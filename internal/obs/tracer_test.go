package obs

import (
	"bytes"
	"strings"
	"testing"

	"kddcache/internal/sim"
)

// trees returns a copy of every completed tree in o's ring.
func trees(o *Obs) [][]Record {
	var out [][]Record
	o.Ring().Trees(func(spans []Record) { out = append(out, append([]Record(nil), spans...)) })
	return out
}

func TestTracerNesting(t *testing.T) {
	o := New()
	tr := o.Tracer

	root := tr.BeginLBA(100, PhaseRead, 7)
	child := tr.Begin(150, PhaseDAZRead)
	grand := tr.BeginDev(160, PhaseDevRead, "ssd", 9, 1)
	grand.End(180)
	child.End(200)
	tr.Mark(210, PhaseNVRAMStage, 7)
	root.End(300)

	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", tr.OpenSpans())
	}
	got := trees(o)
	if len(got) != 1 {
		t.Fatalf("got %d trees, want 1", len(got))
	}
	spans := got[0]
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	r := spans[0]
	if r.ID != 1 || r.Parent != 0 || r.Req != 1 || r.Phase != PhaseRead || r.Begin != 100 || r.End != 300 {
		t.Fatalf("bad root: %+v", r)
	}
	if spans[1].Parent != r.ID || spans[1].Req != r.ID || spans[1].Phase != PhaseDAZRead {
		t.Fatalf("bad child: %+v", spans[1])
	}
	if spans[2].Parent != spans[1].ID || spans[2].Dev != "ssd" || spans[2].LBA != 9 {
		t.Fatalf("bad grandchild: %+v", spans[2])
	}
	mark := spans[3]
	if mark.Parent != r.ID || mark.Begin != mark.End || mark.Begin != 210 {
		t.Fatalf("bad mark: %+v", mark)
	}
	if tr.Spans() != 4 {
		t.Fatalf("Spans = %d, want 4", tr.Spans())
	}
}

func TestTracerSequentialTreesReuseBuffer(t *testing.T) {
	o := New()
	for i := 0; i < 3; i++ {
		sp := o.Tracer.Begin(sim.Time(i*100), PhaseWrite)
		sp.End(sim.Time(i*100 + 50))
	}
	got := trees(o)
	if len(got) != 3 {
		t.Fatalf("got %d trees, want 3", len(got))
	}
	for i, tree := range got {
		if len(tree) != 1 || tree[0].ID != uint64(i+1) {
			t.Fatalf("tree %d: %+v", i, tree)
		}
	}
}

func TestTracerEndClampsBeforeBegin(t *testing.T) {
	o := New()
	sp := o.Tracer.Begin(100, PhaseClean)
	sp.End(50)
	if got := trees(o)[0][0]; got.End != got.Begin {
		t.Fatalf("End not clamped: %+v", got)
	}
	if o.Tracer.Err() != nil {
		t.Fatalf("clamp should not be an error: %v", o.Tracer.Err())
	}
}

func TestTracerChildMayEndAfterParent(t *testing.T) {
	// An async fill's SSD write outlives the request; the tracer must
	// accept the parent closing at an earlier virtual time than the
	// already-closed child's end.
	o := New()
	root := o.Tracer.Begin(0, PhaseRead)
	fill := o.Tracer.Begin(10, PhaseFill)
	fill.End(500)
	root.End(100)
	if err := o.Tracer.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	spans := trees(o)[0]
	if spans[1].End != 500 || spans[0].End != 100 {
		t.Fatalf("unexpected ends: %+v", spans)
	}
}

func TestTracerUnbalancedEndIsAnError(t *testing.T) {
	t.Run("parent closed over open child", func(t *testing.T) {
		o := New()
		tr := o.Tracer
		root := tr.Begin(0, PhaseRead)
		tr.Begin(1, PhaseDAZRead) // never closed
		root.End(10)
		if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "span 1 (read) closed with 1 children still open") {
			t.Fatalf("want structural error, got %v", tr.Err())
		}
		if tr.OpenSpans() != 0 {
			t.Fatalf("force-close left %d open", tr.OpenSpans())
		}
		// The force-closed child ends with its parent.
		if spans := trees(o)[0]; len(spans) != 2 || spans[1].End != 10 {
			t.Fatalf("force-closed tree: %+v", spans)
		}
	})
	t.Run("double close", func(t *testing.T) {
		tr := New().Tracer
		sp := tr.Begin(0, PhaseRead)
		sp.End(1)
		sp.End(2)
		if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "span 1 (read) closed twice") {
			t.Fatalf("want double-close error, got %v", tr.Err())
		}
	})
}

// TestStaleSpanHandleClosedTwice closes a handle from a finished tree
// while a new tree is open. The handle names its record by ring index,
// so the tracer reports the double close and the open tree keeps its own
// end times; a recorder that matched handles by their index within a
// tree would instead close the new root early.
func TestStaleSpanHandleClosedTwice(t *testing.T) {
	o := New()
	tr := o.Tracer
	a := tr.Begin(0, PhaseRead)
	a.End(10)
	b := tr.Begin(20, PhaseWrite)
	child := tr.Begin(22, PhaseDAZRead)
	a.End(25) // stale: A's tree completed at 10
	child.End(26)
	b.End(30)

	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "span 1 (read) closed twice") {
		t.Fatalf("want stale-handle double close, got %v", tr.Err())
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d, want 0", tr.OpenSpans())
	}
	recs, err := ReadTrace(bytes.NewReader(o.TraceJSONL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("trace has %d spans, want 3: %+v", len(recs), recs)
	}
	if a := recs[0]; a.End != 10 {
		t.Fatalf("A re-closed by its stale handle: %+v", a)
	}
	if b, c := recs[1], recs[2]; b.Phase != PhaseWrite || b.End != 30 || c.Parent != b.ID || c.End != 26 {
		t.Fatalf("B and its child lost their end times: %+v %+v", b, c)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.BeginDev(1, PhaseRead, "ssd", 3, 1)
	sp.End(2)
	tr.Mark(1, PhaseNVRAMStage, 3)
	if tr.OpenSpans() != 0 || tr.Spans() != 0 || tr.Err() != nil {
		t.Fatal("nil tracer must be fully inert")
	}
	// The zero Span must also be inert.
	Span{}.End(9)
}

func TestDisabledTracingIsZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.BeginLBA(1, PhaseRead, 42)
		child := tr.BeginDev(2, PhaseDevRead, "ssd", 42, 1)
		tr.Mark(3, PhaseNVRAMStage, 42)
		child.End(4)
		sp.End(5)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

func TestPhaseRoundTrip(t *testing.T) {
	for _, p := range Phases() {
		got, err := ParsePhase(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParsePhase("none"); err == nil {
		t.Fatal("ParsePhase must reject the zero phase name")
	}
	if _, err := ParsePhase("bogus"); err == nil {
		t.Fatal("ParsePhase must reject unknown names")
	}
}

func TestPhaseClassification(t *testing.T) {
	roots := 0
	for _, p := range Phases() {
		if p.IsRoot() {
			roots++
			if p.Attributable() {
				t.Fatalf("root phase %v must not be attributable", p)
			}
		}
	}
	if roots != 4 {
		t.Fatalf("want 4 root phases, have %d", roots)
	}
	for _, p := range []Phase{PhaseDevRead, PhaseDevWrite} {
		if p.Attributable() {
			t.Fatalf("device phase %v must not be attributable", p)
		}
	}
	for _, p := range []Phase{PhaseDAZRead, PhaseMetaAppend, PhaseParityRMW} {
		if !p.Attributable() {
			t.Fatalf("phase %v must be attributable", p)
		}
	}
}
