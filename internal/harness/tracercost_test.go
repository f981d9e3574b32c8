package harness

import (
	"testing"
	"time"

	"kddcache/internal/obs"
	"kddcache/internal/workload"
)

// tracerBudgetNs is the span tracer's cost budget in host nanoseconds per
// span emitted. Measured 27–72 ns per span on a 2-vCPU host (6.25 M spans
// over a 0.9 s untraced replay at scale 0.16); the budget is about twice
// the worst of that.
const tracerBudgetNs = 150

// obsOverheadRun replays the Fin1 workload through the KDD timing stack
// once, with or without the span tracer attached, and returns the number
// of spans the traced run emitted (0 untraced).
func obsOverheadRun(scale float64, traced bool) (spans uint64, err error) {
	var ob *obs.Obs
	if traced {
		ob = obs.New()
		defer ob.Release() // recycle ring storage across timing runs
	}
	s, tr := fig9Trace(workload.TableI()[0], scale)
	if _, _, err := fig9Cell(s, tr, StackOpts{Policy: PolicyKDD, DeltaMean: 0.25}, ob); err != nil {
		return 0, err
	}
	if traced {
		spans = ob.Tracer.Spans()
	}
	return spans, nil
}

// TestObsOverheadRun exercises both arms of BenchmarkTracerCost's
// comparison so they stay deterministic: only the traced arm emits spans,
// and the same number every time.
func TestObsOverheadRun(t *testing.T) {
	var counts []uint64
	for _, traced := range []bool{false, true, true} {
		spans, err := obsOverheadRun(0.0005, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		counts = append(counts, spans)
	}
	if counts[0] != 0 || counts[1] == 0 || counts[1] != counts[2] {
		t.Fatalf("spans emitted untraced, traced, traced = %v", counts)
	}
}

// BenchmarkTracerCost is the tracer's cost gate: (traced - untraced) /
// spans emitted over the Fin1 KDD Fig. 9 cell, which fails above
// tracerBudgetNs. The scale doubles from 0.01 until the untraced replay
// runs for half a second, so the difference is not a few milliseconds of
// scheduler noise. The arms are interleaved, best of five each:
// interleaving keeps slow drift (page cache, thermal, other tenants of
// the host) from landing on one arm, and the minimum discards scheduling
// hiccups. The budget is absolute; a tracer's share of the replay rises
// whenever the replay gets faster, so the share is not gated.
//
//	go test ./internal/harness/ -run '^$' -bench '^BenchmarkTracerCost$' -benchtime 1x
func BenchmarkTracerCost(b *testing.B) {
	const minUntraced = 500 * time.Millisecond
	run := func(scale float64, traced bool) (time.Duration, uint64) {
		start := time.Now()
		spans, err := obsOverheadRun(scale, traced)
		if err != nil {
			b.Fatalf("traced=%v: %v", traced, err)
		}
		return time.Since(start), spans
	}
	scale := 0.01
	for scale < 0.64 {
		if d, _ := run(scale, false); d >= minUntraced {
			break
		}
		scale *= 2
	}
	for i := 0; i < b.N; i++ {
		var untraced, traced time.Duration
		var spans uint64
		for round := 0; round < 5; round++ {
			u, _ := run(scale, false)
			tr, n := run(scale, true)
			if round == 0 || u < untraced {
				untraced = u
			}
			if round == 0 || tr < traced {
				traced, spans = tr, n
			}
		}
		nsPerSpan := float64(traced-untraced) / float64(spans)
		b.ReportMetric(nsPerSpan, "ns/span")
		b.ReportMetric(float64(spans), "spans")
		b.ReportMetric(scale, "scale")
		if nsPerSpan > tracerBudgetNs {
			b.Fatalf("tracing costs %.1f ns per span (%d spans at scale %g, %v traced vs %v untraced), budget %d ns",
				nsPerSpan, spans, scale, traced, untraced, tracerBudgetNs)
		}
	}
}
