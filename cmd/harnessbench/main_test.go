package main

import (
	"os"
	"path/filepath"
	"testing"
)

// entry builds a trajectory point whose tracing overhead is ovh percent of
// a half-second untraced replay that emitted a million spans: ovh percent
// is 5*ovh ns per span.
func entry(scale float64, par, maxprocs int, ovh float64, exps ...experimentResult) benchEntry {
	return benchEntry{
		Scale:       scale,
		Parallel:    par,
		GOMAXPROCS:  maxprocs,
		Experiments: exps,
		ObsOverhead: &obsOverheadResult{
			UntracedSec: 0.5, TracedSec: 0.5 * (1 + ovh/100), OverheadPct: ovh,
			Spans: 1e6, NsPerSpan: 5 * ovh,
		},
	}
}

func TestTrajectoryRoundTripAndLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")

	if got := readEntries(path); got != nil {
		t.Fatalf("missing file read as %d entries, want none", len(got))
	}

	// Legacy schema: a single bare entry object at top level.
	legacy := `{"scale":0.008,"parallel":4,"gomaxprocs":1,
		"experiments":[{"name":"fig6","serial_sec":4,"parallel_sec":3.9,"speedup":1.02,"identical":true}],
		"obs_overhead":{"untraced_sec":0.12,"traced_sec":0.2,"overhead_pct":69.7}}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := readEntries(path)
	if len(entries) != 1 || entries[0].Scale != 0.008 || entries[0].Parallel != 4 {
		t.Fatalf("legacy migration read %+v", entries)
	}

	entries = append(entries, entry(0.01, 1, 1, 5.3,
		experimentResult{Name: "fig6", SerialSec: 4.5, ParallelSec: 4.6, Speedup: 0.98, Identical: true}))
	writeEntries(path, entries)
	got := readEntries(path)
	if len(got) != 2 || got[0].Scale != 0.008 || got[1].Scale != 0.01 {
		t.Fatalf("round trip read %+v", got)
	}
	if got[1].ObsOverhead == nil || got[1].ObsOverhead.OverheadPct != 5.3 {
		t.Fatalf("overhead lost in round trip: %+v", got[1].ObsOverhead)
	}

	// Garbage files start a fresh trajectory instead of failing the bench.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readEntries(path); got != nil {
		t.Fatalf("garbage file read as %d entries, want none", len(got))
	}
}

func TestLastComparable(t *testing.T) {
	cur := entry(0.01, 4, 4, 5)
	prev := []benchEntry{
		entry(0.01, 4, 4, 8),  // comparable, but an older one
		entry(0.008, 4, 4, 8), // different scale
		entry(0.01, 2, 4, 8),  // different width
		entry(0.01, 4, 1, 70), // core-starved: gomaxprocs < parallel
		entry(0.01, 4, 4, 6),  // newest comparable — the one to pick
	}
	base := lastComparable(prev, cur)
	if base == nil || base.ObsOverhead.OverheadPct != 6 {
		t.Fatalf("lastComparable = %+v, want the newest same-scale same-width entry", base)
	}
	if got := lastComparable(prev[1:4], cur); got != nil {
		t.Fatalf("lastComparable over incomparable entries = %+v, want nil", got)
	}
}

func TestCheckGate(t *testing.T) {
	base := entry(0.01, 1, 1, 6,
		experimentResult{Name: "fig6", SerialSec: 4.0},
		experimentResult{Name: "fig5", SerialSec: 5.0})

	ok := entry(0.01, 1, 1, 8,
		experimentResult{Name: "fig6", SerialSec: 4.4},
		experimentResult{Name: "fig5", SerialSec: 5.1})
	if errs := checkGate(ok, &base, 75, 1.75, 2.0); len(errs) != 0 {
		t.Fatalf("healthy run failed the gate: %v", errs)
	}

	slow := entry(0.01, 1, 1, 8,
		experimentResult{Name: "fig6", SerialSec: 8.0}, // 2x the base
		experimentResult{Name: "fig5", SerialSec: 5.0})
	if errs := checkGate(slow, &base, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("2x serial regression produced %d gate errors, want 1: %v", len(errs), errs)
	}

	hot := entry(0.01, 1, 1, 22, // 110 ns per span
		experimentResult{Name: "fig6", SerialSec: 4.0})
	if errs := checkGate(hot, &base, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("110 ns per span produced %d gate errors, want 1: %v", len(errs), errs)
	}
	// The budget is absolute: the same 110 ns per span fails however small
	// a share of a slow replay it is, and a large share of a fast replay
	// passes while each span stays cheap.
	slowReplay := hot
	slowReplay.ObsOverhead = &obsOverheadResult{UntracedSec: 5, TracedSec: 5.11, OverheadPct: 2.2, Spans: 1e6, NsPerSpan: 110}
	if errs := checkGate(slowReplay, &base, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("110 ns per span at 2.2%% overhead produced %d gate errors, want 1: %v", len(errs), errs)
	}
	fastReplay := hot
	fastReplay.ObsOverhead = &obsOverheadResult{UntracedSec: 0.5, TracedSec: 0.7, OverheadPct: 40, Spans: 4e6, NsPerSpan: 50}
	if errs := checkGate(fastReplay, &base, 75, 1.75, 2.0); len(errs) != 0 {
		t.Fatalf("50 ns per span at 40%% overhead failed the gate: %v", errs)
	}

	// The slowdown rule needs a baseline long enough to compare against:
	// an experiment that took under a second last time may triple (a busy
	// box does that to a 0.25 s run) without failing the gate.
	quickBase := entry(0.01, 1, 1, 6,
		experimentResult{Name: "chaos", SerialSec: 0.25},
		experimentResult{Name: "fig6", SerialSec: 4.0})
	jittery := entry(0.01, 1, 1, 6,
		experimentResult{Name: "chaos", SerialSec: 0.75},
		experimentResult{Name: "fig6", SerialSec: 4.1})
	if errs := checkGate(jittery, &quickBase, 75, 1.75, 2.0); len(errs) != 0 {
		t.Fatalf("a 0.25s baseline tripping the slowdown rule: %v", errs)
	}

	// No comparable base: absolute checks still apply, ratios don't.
	if errs := checkGate(slow, nil, 75, 1.75, 2.0); len(errs) != 0 {
		t.Fatalf("baseless run failed ratio checks: %v", errs)
	}
	if errs := checkGate(hot, nil, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("baseless overheated run produced %d gate errors, want 1: %v", len(errs), errs)
	}

	// Noisy-neighbor isolation is absolute too: a victim p99 ratio over
	// the budget fails, and so does an unprotected arm that is not
	// strictly worse than the protected one (the experiment would no
	// longer demonstrate interference being prevented).
	leaky := ok
	leaky.Noisy = &noisyResult{VictimP99Ratio: 2.6, UnprotectedRatio: 40}
	if errs := checkGate(leaky, nil, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("2.6x victim ratio produced %d gate errors, want 1: %v", len(errs), errs)
	}
	pointless := ok
	pointless.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 1.5}
	if errs := checkGate(pointless, nil, 75, 1.75, 2.0); len(errs) != 1 {
		t.Fatalf("flat unprotected arm produced %d gate errors, want 1: %v", len(errs), errs)
	}
	isolated := ok
	isolated.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 40}
	if errs := checkGate(isolated, &base, 75, 1.75, 2.0); len(errs) != 0 {
		t.Fatalf("healthy noisy-neighbor result failed the gate: %v", errs)
	}
}
