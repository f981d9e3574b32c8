package main

import (
	"bytes"
	"encoding/json"
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

func TestTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")

	if got := readEntries(path); got != nil {
		t.Fatalf("missing file read as %d entries, want none", len(got))
	}

	var entries []json.RawMessage
	for _, e := range []benchEntry{
		entry(0.008, 4, 4, 8),
		entry(0.01, 1, 1, 5.3,
			experimentResult{Name: "fig6", SerialSec: 4.5, ParallelSec: 4.6, Speedup: 0.98, Identical: true}),
	} {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, raw)
	}
	// An entry written by an older harnessbench, carrying a section
	// benchEntry no longer declares: it must come back unchanged but for
	// the file's indentation, and rewriting the file must not move a byte.
	old := json.RawMessage(`{"scale":0.01,"parallel":2,"gomaxprocs":2,"experiments":[],"saturation":{"sec":0.5,"sustained_iops":{"shards=1":30000},"scaling_4x1":3.3333333333333335}}`)
	entries = append([]json.RawMessage{old}, entries...)
	writeEntries(path, entries)
	got := readEntries(path)
	if len(got) != 3 {
		t.Fatalf("round trip read %d entries, want 3", len(got))
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), old) {
		t.Fatalf("older entry rewritten:\n got: %s\nwant: %s", compact.Bytes(), old)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeEntries(path, got)
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("rewriting the trajectory changed it (err %v):\n%s\nvs\n%s", err, after, before)
	}
	var e0, e2 benchEntry
	if err := json.Unmarshal(got[1], &e0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got[2], &e2); err != nil {
		t.Fatal(err)
	}
	if e0.Scale != 0.008 || e2.Scale != 0.01 {
		t.Fatalf("round trip read scales %v, %v", e0.Scale, e2.Scale)
	}
	if e2.ObsOverhead == nil || e2.ObsOverhead.OverheadPct != 5.3 {
		t.Fatalf("overhead lost in round trip: %+v", e2.ObsOverhead)
	}

	// Garbage files — a bare entry object included — start a fresh
	// trajectory instead of failing the bench.
	for _, junk := range []string{"not json", `{"scale":0.008,"experiments":[{"name":"fig6"}]}`, `{"entries":[1]}`} {
		if err := os.WriteFile(path, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := readEntries(path); got != nil {
			t.Fatalf("%q read as %d entries, want none", junk, len(got))
		}
	}
}

func TestCheckGate(t *testing.T) {
	ok := entry(0.01, 1, 1, 8,
		experimentResult{Name: "fig6", SerialSec: 4.4},
		experimentResult{Name: "fig5", SerialSec: 5.1})
	if errs := checkGate(ok, 75, 2.0); len(errs) != 0 {
		t.Fatalf("healthy run failed the gate: %v", errs)
	}

	hot := entry(0.01, 1, 1, 22, // 110 ns per span
		experimentResult{Name: "fig6", SerialSec: 4.0})
	if errs := checkGate(hot, 75, 2.0); len(errs) != 1 {
		t.Fatalf("110 ns per span produced %d gate errors, want 1: %v", len(errs), errs)
	}
	// The budget is absolute: the same 110 ns per span fails however small
	// a share of a slow replay it is, and a large share of a fast replay
	// passes while each span stays cheap.
	slowReplay := hot
	slowReplay.ObsOverhead = &obsOverheadResult{UntracedSec: 5, TracedSec: 5.11, OverheadPct: 2.2, Spans: 1e6, NsPerSpan: 110}
	if errs := checkGate(slowReplay, 75, 2.0); len(errs) != 1 {
		t.Fatalf("110 ns per span at 2.2%% overhead produced %d gate errors, want 1: %v", len(errs), errs)
	}
	fastReplay := hot
	fastReplay.ObsOverhead = &obsOverheadResult{UntracedSec: 0.5, TracedSec: 0.7, OverheadPct: 40, Spans: 4e6, NsPerSpan: 50}
	if errs := checkGate(fastReplay, 75, 2.0); len(errs) != 0 {
		t.Fatalf("50 ns per span at 40%% overhead failed the gate: %v", errs)
	}

	// Noisy-neighbor isolation is absolute too: a victim p99 ratio over
	// the budget fails, and so does an unprotected arm that is not
	// strictly worse than the protected one (the experiment would no
	// longer demonstrate interference being prevented).
	leaky := ok
	leaky.Noisy = &noisyResult{VictimP99Ratio: 2.6, UnprotectedRatio: 40}
	if errs := checkGate(leaky, 75, 2.0); len(errs) != 1 {
		t.Fatalf("2.6x victim ratio produced %d gate errors, want 1: %v", len(errs), errs)
	}
	pointless := ok
	pointless.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 1.5}
	if errs := checkGate(pointless, 75, 2.0); len(errs) != 1 {
		t.Fatalf("flat unprotected arm produced %d gate errors, want 1: %v", len(errs), errs)
	}
	isolated := ok
	isolated.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 40}
	if errs := checkGate(isolated, 75, 2.0); len(errs) != 0 {
		t.Fatalf("healthy noisy-neighbor result failed the gate: %v", errs)
	}
}
