package obs

import (
	"bytes"
	"fmt"
	"testing"

	"kddcache/internal/sim"
)

// recorder is the span-opening surface the synthetic workloads drive:
// the ring tracer (S = Span) and the reference recorder (S = refSpan).
type recorder[S interface{ End(sim.Time) }] interface {
	BeginLBA(t sim.Time, p Phase, lba int64) S
	BeginDev(t sim.Time, p Phase, dev string, lba int64, n int) S
	Mark(t sim.Time, p Phase, lba int64)
}

// refTracer is the oracle the ring is checked against: an explicit stack
// of open Records, each tree handed to emit, in open order, as its root
// closes — the eager recording the ring defers to export time. It
// supports balanced use only.
type refTracer struct {
	nextID uint64
	tree   []Record
	open   []int
	emit   func(tree []Record)
}

type refSpan struct {
	r *refTracer
	i int
}

func (r *refTracer) BeginDev(t sim.Time, p Phase, dev string, lba int64, n int) refSpan {
	r.nextID++
	rec := Record{ID: r.nextID, Req: r.nextID, Phase: p, Dev: dev, LBA: lba, N: n, Begin: t, End: t}
	if len(r.open) > 0 {
		rec.Parent = r.tree[r.open[len(r.open)-1]].ID
		rec.Req = r.tree[0].ID
	}
	r.tree = append(r.tree, rec)
	r.open = append(r.open, len(r.tree)-1)
	return refSpan{r, len(r.tree) - 1}
}

func (r *refTracer) BeginLBA(t sim.Time, p Phase, lba int64) refSpan {
	return r.BeginDev(t, p, "", lba, 1)
}

func (r *refTracer) Mark(t sim.Time, p Phase, lba int64) { r.BeginLBA(t, p, lba).End(t) }

func (s refSpan) End(t sim.Time) {
	r := s.r
	r.tree[s.i].End = max(t, r.tree[s.i].Begin)
	r.open = r.open[:len(r.open)-1]
	if len(r.open) == 0 {
		r.emit(r.tree)
		r.tree = r.tree[:0]
	}
}

// refJSONL returns the reference recorder's JSONL for the workload drive
// runs against it.
func refJSONL(drive func(*refTracer)) []byte {
	var out []byte
	drive(&refTracer{emit: func(tree []Record) {
		for i := range tree {
			out = AppendRecord(out, &tree[i])
			out = append(out, '\n')
		}
	}})
	return out
}

// driveTracer runs a deterministic synthetic workload of span trees
// through tr: a mix of root-only ops, nested device spans, marks, and
// spans that end after their parent (async fills).
func driveTracer[S interface{ End(sim.Time) }](tr recorder[S], trees int) {
	t := sim.Time(0)
	for i := 0; i < trees; i++ {
		root := tr.BeginLBA(t, PhaseRead, int64(i))
		d := tr.BeginDev(t, PhaseDevRead, "ssd", int64(i), 1)
		d.End(t + 100)
		if i%3 == 0 {
			tr.Mark(t+50, PhaseNVRAMStage, int64(i))
		}
		if i%5 == 0 {
			r := tr.BeginDev(t+10, PhaseRAIDRead, "raid5", int64(i*2), 2)
			h := tr.BeginDev(t+10, PhaseDevRead, fmt.Sprintf("hdd%d", i%4), int64(i*2), 1)
			h.End(t + 400)
			r.End(t + 400)
		}
		root.End(t + 500)
		t += 1000
	}
}

// TestRingJSONLMatchesEagerWriter pins the recorder contract: the ring
// rendered at export is byte-identical to encoding every span eagerly as
// its tree closed.
func TestRingJSONLMatchesEagerWriter(t *testing.T) {
	o := New()
	driveTracer[Span](o.Tracer, 200)
	want := refJSONL(func(r *refTracer) { driveTracer[refSpan](r, 200) })
	if got := o.TraceJSONL(); !bytes.Equal(got, want) {
		t.Fatalf("ring JSONL differs from eager encoding:\nring:  %q\neager: %q",
			truncate(got), truncate(want))
	}
	if o.Ring().Spans() == 0 || uint64(o.Ring().Spans()) != o.Tracer.Spans() {
		t.Fatalf("ring holds %d spans, tracer opened %d", o.Ring().Spans(), o.Tracer.Spans())
	}
}

func truncate(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

// TestRingTreesMatchesDirectSink verifies Trees replays exactly the trees
// the reference recorder delivers directly as each root closes: same tree
// boundaries, same spans — so a Profile built from the ring equals one
// fed eagerly.
func TestRingTreesMatchesDirectSink(t *testing.T) {
	o := New()
	driveTracer[Span](o.Tracer, 120)

	eagerProf := NewProfile()
	var eagerTrees [][]Record
	driveTracer[refSpan](&refTracer{emit: func(spans []Record) {
		eagerTrees = append(eagerTrees, append([]Record(nil), spans...))
		eagerProf.Tree(spans)
	}}, 120)

	i := 0
	o.Ring().Trees(func(spans []Record) {
		if i >= len(eagerTrees) {
			t.Fatalf("ring replayed more trees than the reference delivered (%d)", len(eagerTrees))
		}
		want := eagerTrees[i]
		if len(spans) != len(want) {
			t.Fatalf("tree %d: %d spans, want %d", i, len(spans), len(want))
		}
		for j := range spans {
			if spans[j] != want[j] {
				t.Fatalf("tree %d span %d: %+v != %+v", i, j, spans[j], want[j])
			}
		}
		i++
	})
	if i != len(eagerTrees) {
		t.Fatalf("ring replayed %d trees, reference delivered %d", i, len(eagerTrees))
	}

	ringProf := o.Profile()
	for _, op := range Phases() {
		if ringProf.Ops(op) != eagerProf.Ops(op) || ringProf.TotalNs(op) != eagerProf.TotalNs(op) ||
			ringProf.SelfNs(op) != eagerProf.SelfNs(op) {
			t.Fatalf("profile mismatch for op %v", op)
		}
		for _, ph := range Phases() {
			if ringProf.PhaseNs(op, ph) != eagerProf.PhaseNs(op, ph) {
				t.Fatalf("profile mismatch for op %v phase %v", op, ph)
			}
		}
	}
}

// TestRingChunkBoundary exercises storage across multiple chunks.
func TestRingChunkBoundary(t *testing.T) {
	o := New()
	trees := ringChunk // 2 spans minimum per tree -> crosses chunks
	driveTracer[Span](o.Tracer, trees)
	if o.Ring().Spans() <= ringChunk {
		t.Fatalf("want > %d spans to cross a chunk boundary, got %d", ringChunk, o.Ring().Spans())
	}
	want := refJSONL(func(r *refTracer) { driveTracer[refSpan](r, trees) })
	if !bytes.Equal(o.TraceJSONL(), want) {
		t.Fatal("multi-chunk ring JSONL differs from eager encoding")
	}
}

// TestObsLazyProfile verifies the cached profile refreshes when more
// spans arrive after a Profile() call.
func TestObsLazyProfile(t *testing.T) {
	o := New()
	driveTracer[Span](o.Tracer, 10)
	p1 := o.Profile()
	n1 := p1.Ops(PhaseRead)
	if n1 != 10 {
		t.Fatalf("first profile saw %d reads, want 10", n1)
	}
	if o.Profile() != p1 {
		t.Fatal("profile not cached while ring is unchanged")
	}
	driveTracer[Span](o.Tracer, 5)
	if got := o.Profile().Ops(PhaseRead); got != 15 {
		t.Fatalf("refreshed profile saw %d reads, want 15", got)
	}
}

// BenchmarkSpanRecord measures the per-span recording cost of the ring
// tracer: one synthetic tree (two to six spans) per iteration.
func BenchmarkSpanRecord(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		driveTracer[Span](o.Tracer, 1)
	}
}

// BenchmarkRingExport measures the deferred cost: rendering JSONL and
// building the profile from a populated ring.
func BenchmarkRingExport(b *testing.B) {
	o := New()
	driveTracer[Span](o.Tracer, 10000)
	ring := o.Ring()
	b.Run("jsonl", func(b *testing.B) {
		var out []byte
		for i := 0; i < b.N; i++ {
			out = ring.AppendJSONL(out[:0])
		}
	})
	b.Run("profile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewProfile()
			ring.Trees(p.Tree)
		}
	})
}

// driveOverflow records a span longer than the 32-bit duration field
// holds, inside a tree that closes after it, then a short tree.
func driveOverflow[S interface{ End(sim.Time) }](tr recorder[S], long sim.Time) {
	root := tr.BeginLBA(0, PhaseWrite, 7)
	d := tr.BeginDev(10, PhaseDevWrite, "ssd", 7, 1)
	d.End(10 + long)
	root.End(long + 500)
	short := tr.BeginLBA(long+1000, PhaseRead, 8)
	short.End(long + 1100)
}

// TestRingDurationOverflow pins the 32-bit duration spill path: spans
// longer than ~4.29 virtual seconds (and marks recorded after them in
// the same tree) must survive the overflow map and render the same
// JSONL the eager encoding produces.
func TestRingDurationOverflow(t *testing.T) {
	long := sim.Time(maxDur) + 12345 // doesn't fit in ringRec.dur
	o := New()
	driveOverflow[Span](o.Tracer, long)
	want := refJSONL(func(r *refTracer) { driveOverflow[refSpan](r, long) })
	got := o.TraceJSONL()
	if !bytes.Equal(got, want) {
		t.Fatalf("overflow-span JSONL differs:\nring:  %s\neager: %s", got, want)
	}
	recs, err := ReadTrace(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Duration() == long {
			found = true
		}
	}
	if !found {
		t.Fatalf("no decoded span has the overflowed duration %d", long)
	}

	// End before Begin is clamped to zero length.
	o2 := New()
	sp := o2.Tracer.Begin(100, PhaseRead)
	sp.End(40)
	recs, err = ReadTrace(bytes.NewReader(o2.TraceJSONL()))
	if err != nil {
		t.Fatal(err)
	}
	if d := recs[0].Duration(); d != 0 {
		t.Fatalf("backwards span duration = %d, want 0 clamp", d)
	}
}
