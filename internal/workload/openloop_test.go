package workload

import (
	"testing"

	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

func baseOpenLoop() OpenLoop {
	return OpenLoop{
		Name:        "ol",
		Clients:     8,
		OfferedIOPS: 10_000,
		Requests:    20_000,
		Footprint:   4_096,
		ReadRatio:   0.4,
		Seed:        0x01EA,
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	a := baseOpenLoop().Generate()
	b := baseOpenLoop().Generate()
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestOpenLoopShape(t *testing.T) {
	o := baseOpenLoop()
	tr := o.Generate()
	if int64(len(tr.Requests)) != o.Requests {
		t.Fatalf("emitted %d of %d requests", len(tr.Requests), o.Requests)
	}
	var reads int64
	var last sim.Time
	for i, r := range tr.Requests {
		if r.Time < last {
			t.Fatalf("request %d out of time order: %d after %d", i, r.Time, last)
		}
		last = r.Time
		if r.LBA < 0 || r.LBA >= o.Footprint {
			t.Fatalf("request %d outside footprint: lba %d", i, r.LBA)
		}
		if r.Op == trace.Read {
			reads++
		}
	}
	ratio := float64(reads) / float64(len(tr.Requests))
	if ratio < o.ReadRatio-0.05 || ratio > o.ReadRatio+0.05 {
		t.Fatalf("read ratio %.3f far from %.2f", ratio, o.ReadRatio)
	}
	// Offered load: total span should approximate Requests/OfferedIOPS
	// seconds (merged Poisson at the aggregate rate).
	wantSpan := float64(o.Requests) / o.OfferedIOPS * float64(sim.Second)
	gotSpan := float64(last)
	if gotSpan < wantSpan*0.9 || gotSpan > wantSpan*1.1 {
		t.Fatalf("span %.0f not within 10%% of %.0f (offered rate off)", gotSpan, wantSpan)
	}
	// Zipf locality: the hottest page should be requested far more often
	// than the uniform expectation.
	counts := make(map[int64]int64)
	var max int64
	for _, r := range tr.Requests {
		counts[r.LBA]++
		if counts[r.LBA] > max {
			max = counts[r.LBA]
		}
	}
	uniform := o.Requests / o.Footprint
	if max < uniform*10 {
		t.Fatalf("hottest page seen %d times; uniform expectation %d — no locality", max, uniform)
	}
}

// TestOpenLoopClientInvariantRate proves the aggregate offered rate does
// not depend on the population size.
func TestOpenLoopClientInvariantRate(t *testing.T) {
	for _, clients := range []int{1, 4, 32} {
		o := baseOpenLoop()
		o.Clients = clients
		tr := o.Generate()
		span := float64(tr.Requests[len(tr.Requests)-1].Time)
		want := float64(o.Requests) / o.OfferedIOPS * float64(sim.Second)
		if span < want*0.85 || span > want*1.15 {
			t.Fatalf("clients=%d: span %.0f vs want %.0f", clients, span, want)
		}
	}
}

// streamHash folds every field of every request, in order, into FNV-1a.
func streamHash(tr *trace.Trace) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	for _, r := range tr.Requests {
		mix(uint64(r.Time))
		mix(uint64(r.Op))
		mix(uint64(r.LBA))
		mix(uint64(r.Pages))
		mix(uint64(r.Tenant))
	}
	return h
}

// TestOpenLoopStreamPinned pins the generated request order: benchmark
// workloads, saturation sweeps and goldens are all functions of it, so a
// change to the merge sort (or anything before it) must reproduce these
// streams exactly. The second spec offers a request per virtual
// nanosecond, so arrival times collide constantly and the client-index
// tie-break decides the order.
func TestOpenLoopStreamPinned(t *testing.T) {
	dense := baseOpenLoop()
	dense.OfferedIOPS = 1e9
	for _, tc := range []struct {
		name string
		spec OpenLoop
		want uint64
	}{
		{"base", baseOpenLoop(), 0x516bcf05efc1df5b},
		{"colliding arrivals", dense, 0xa979c44b0bee598b},
	} {
		tr := tc.spec.Generate()
		ties := 0
		for i := 1; i < len(tr.Requests); i++ {
			if tr.Requests[i].Time == tr.Requests[i-1].Time {
				ties++
			}
		}
		t.Logf("%s: %d requests, %d with the previous one's arrival time", tc.name, len(tr.Requests), ties)
		if got := streamHash(tr); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
