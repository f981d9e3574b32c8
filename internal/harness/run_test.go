package harness

import (
	"errors"
	"testing"

	"kddcache/internal/core"
	"kddcache/internal/sim"
	"kddcache/internal/workload"
)

// TestRunTraceSurfacesNoPayload: RunTrace replays with nil page buffers,
// which a data-mode KDD engine cannot encode deltas from. The replay must
// stop with core.ErrNoPayload (it used to panic inside the codec on the
// first write hit).
func TestRunTraceSurfacesNoPayload(t *testing.T) {
	st := diffStack(t, "kdd", 3)
	if _, err := RunTrace(st, diffTrace(t, "uniform", 3)); !errors.Is(err, core.ErrNoPayload) {
		t.Fatalf("RunTrace on a data-mode stack = %v, want core.ErrNoPayload", err)
	}
}

func TestClosedLoopDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		st, err := Build(StackOpts{
			Policy: PolicyKDD, DeltaMean: 0.25,
			CachePages: 2048, DiskPages: 65536, Timing: true, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.DefaultFIO(0.25).Scale(0.005)
		r, err := RunClosedLoop(st, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanResponseMs(), r.Cache.SSDWrites()
	}
	m1, w1 := run()
	m2, w2 := run()
	if m1 != m2 || w1 != w2 {
		t.Fatalf("closed loop not deterministic: %f/%d vs %f/%d", m1, w1, m2, w2)
	}
}

func TestClosedLoopThreadBound(t *testing.T) {
	// With one thread everything serializes; with 16 the virtual duration
	// must shrink substantially (throughput scales with concurrency until
	// the devices saturate).
	duration := func(threads int) float64 {
		st, err := Build(StackOpts{
			Policy: PolicyWT, CachePages: 1024, DiskPages: 65536,
			Timing: true, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.DefaultFIO(0.5).Scale(0.002)
		spec.Threads = threads
		r, err := RunClosedLoop(st, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.Duration.Seconds()
	}
	d1 := duration(1)
	d16 := duration(16)
	// Speedup is bounded by device-level parallelism (5 spindles, and an
	// RMW occupies two of them per phase), not by thread count; anything
	// clearly above 1x demonstrates the closed loop overlaps requests.
	if d16 >= d1*3/4 {
		t.Fatalf("16 threads (%.2fs) not faster than 1 (%.2fs)", d16, d1)
	}
}

// TestRunTraceIdleTriggersCleaner checks that a long idle gap in a trace
// wakes the cleaner through the policy's own idle rule: the first request
// after a 10-second gap releases exactly one queued row repair. A first
// run finds a request, two-thirds in or later, that arrives with rows
// queued and leaves the queue as it found it; a second run opens the gap
// just before that request.
func TestRunTraceIdleTriggersCleaner(t *testing.T) {
	spec := workload.Fin1.Scale(0.002)
	spec.MeanIOPS = 50
	run := func(gapAt int) []int {
		t.Helper()
		tr := workload.Synthesize(spec)
		if gapAt >= 0 {
			for i := gapAt; i < len(tr.Requests); i++ {
				tr.Requests[i].Time += 10 * sim.Second
			}
		}
		st, err := Build(CellOpts(spec, tr, StackOpts{Policy: PolicyKDD, DeltaMean: 0.25, CachePages: roundWays(spec.UniqueTotal/5, 256)}))
		if err != nil {
			t.Fatal(err)
		}
		k := st.Policy.(interface{ IdleQueued() int })
		queued := make([]int, len(tr.Requests)+1) // queued rows before request i
		st.PerRequest = func(i int) { queued[i] = k.IdleQueued() }
		if _, err := RunTrace(st, tr); err != nil {
			t.Fatal(err)
		}
		queued[len(tr.Requests)] = k.IdleQueued()
		return queued
	}
	base := run(-1)
	cut := -1
	for i := 2 * (len(base) - 1) / 3; i < len(base)-1; i++ {
		if base[i] >= 2 && base[i+1] == base[i] {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no request arrives with rows queued and leaves the queue unchanged")
	}
	gapped := run(cut)
	if gapped[cut] != base[cut] {
		t.Fatalf("%d rows queued before the gap, %d without it", gapped[cut], base[cut])
	}
	if got, want := gapped[cut+1], base[cut]-1; got != want {
		t.Fatalf("request %d after the idle gap left %d rows queued, want %d (one released)", cut, got, want)
	}
}

func TestMotivationOutput(t *testing.T) {
	out, err := Motivation(0.004, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Nossd", "PLog", "NVB", "WB", "KDD"} {
		if !containsLine(out, w) {
			t.Fatalf("missing %q in:\n%s", w, out)
		}
	}
}

func containsLine(out, w string) bool {
	return len(out) > 0 && (stringIndex(out, w) >= 0)
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPoliciesLineup(t *testing.T) {
	all := Policies(true, true, []float64{0.5, 0.25})
	if len(all) != 6 {
		t.Fatalf("lineup size %d", len(all))
	}
	if all[0].Policy != PolicyNossd || all[1].Policy != PolicyWA {
		t.Fatalf("lineup order wrong: %+v", all[:2])
	}
	none := Policies(false, false, nil)
	if len(none) != 2 {
		t.Fatalf("minimal lineup size %d", len(none))
	}
}
