package kddcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// pairsEntry is the trajectory entry scripts/pairs-verdict.awk appends to
// BENCH_harness.json for one workload's paired runs.
type pairsEntry struct {
	Time     string  `json:"time"`
	Kind     string  `json:"kind"`
	Base     string  `json:"base"`
	Change   string  `json:"change"`
	Workload string  `json:"workload"`
	Pairs    int     `json:"pairs"`
	Seeds    []int   `json:"seeds"`
	Metrics  []pairs `json:"metrics"`
}

// pairs is one end-to-end metric's verdict in a pairsEntry.
type pairs struct {
	Name         string  `json:"name"`
	Better       string  `json:"better"`
	Bound        float64 `json:"bound"`
	BaseQ1       float64 `json:"base_q1"`
	BaseMedian   float64 `json:"base_median"`
	BaseQ3       float64 `json:"base_q3"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ3     float64 `json:"change_q3"`
	Win          int     `json:"win"`
	Loss         int     `json:"loss"`
	Tie          int     `json:"tie"`
	MedianPct    float64 `json:"median_pct"`
	Verdict      string  `json:"verdict"`
}

// jsonKeys lists the keys a struct's json tags name, sorted.
func jsonKeys(v any) []string {
	var keys []string
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		keys = append(keys, typ.Field(i).Tag.Get("json"))
	}
	sort.Strings(keys)
	return keys
}

// sortedKeys lists an object's keys, sorted.
func sortedKeys(m map[string]json.RawMessage) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runVerdict runs scripts/pairs-verdict.awk on BENCHMARK.json and tsv,
// appending to trajectory, and returns its stdout.
func runVerdict(t *testing.T, tsv, trajectory string) (string, error) {
	t.Helper()
	cmd := exec.Command("awk", "-v", "workload=fixture", "-v", "base=basesha", "-v", "change=changesha+worktree",
		"-v", "seed0=200", "-v", "time=2026-01-02T03:04:05Z", "-v", "trajectory="+trajectory,
		"-f", filepath.Join("scripts", "pairs-verdict.awk"), "BENCHMARK.json", tsv)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		err = fmt.Errorf("%v: %s", err, stderr.String())
	}
	return stdout.String(), err
}

// TestPairsVerdict holds bench-pairs' verdict rule and its trajectory
// append to their contracts: one fixture of ten pairs reaches every
// verdict, and the append to a copy of the committed BENCH_harness.json
// keeps every earlier entry's bytes and adds one entry that decodes with
// exactly the documented fields.
func TestPairsVerdict(t *testing.T) {
	if _, err := exec.LookPath("awk"); err != nil {
		t.Skip("awk not on PATH")
	}
	// Per pair i: base and change values of five end-to-end metrics, and
	// a sixth that only the base side printed.
	const n = 10
	var tsv strings.Builder
	row := func(side string, i int, metric string, v float64) {
		fmt.Fprintf(&tsv, "%s\t%d\t%s\t%g\n", side, i, metric, v)
	}
	for i := 1; i <= n; i++ {
		jitter := float64(i % 3)
		// Higher is better: the change wins nine pairs of ten, by far more
		// than the parent's spread.
		change := 130 + jitter
		if i == n {
			change = 90
		}
		row("base", i, "replay_kops_per_s", 100+jitter)
		row("change", i, "replay_kops_per_s", change)
		// Lower is better: the change loses every pair, by 20 % against a
		// 4 % bound.
		row("base", i, "allocs_per_op", 10+jitter/100)
		row("change", i, "allocs_per_op", 12+jitter/100)
		// It loses every pair by 3 %, inside the 6 % bound.
		row("base", i, "alloc_bytes_per_op", 1000+jitter)
		row("change", i, "alloc_bytes_per_op", 1030+jitter)
		// Every pair ties.
		row("base", i, "live_heap_mb", 7.5)
		row("change", i, "live_heap_mb", 7.5)
		// The change wins eight pairs of ten by far more than the spread:
		// short of nine tenths.
		change = 0.5
		if i > 8 {
			change = 1.5
		}
		row("base", i, "setup_s", 1+jitter/100)
		row("change", i, "setup_s", change)
		row("base", i, "virt_mean_ms", 3)
	}
	dir := t.TempDir()
	fixture := filepath.Join(dir, "pairs.tsv")
	if err := os.WriteFile(fixture, []byte(tsv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile("BENCH_harness.json")
	if err != nil {
		t.Fatal(err)
	}
	trajectory := filepath.Join(dir, "BENCH_harness.json")
	if err := os.WriteFile(trajectory, before, 0o644); err != nil {
		t.Fatal(err)
	}

	table, err := runVerdict(t, fixture, trajectory)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, verdict string }{
		{"replay_kops_per_s", "better"},
		{"allocs_per_op", "worse"},
		{"alloc_bytes_per_op", "worse (inside bound)"},
		{"live_heap_mb", "same"},
		{"setup_s", "unresolved"},
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("table has %d lines, want a header and %d rows:\n%s", len(lines), len(want), table)
	}
	for i, w := range want {
		if f := strings.Fields(lines[1+i]); f[0] != w.name || !strings.HasSuffix(lines[1+i], "  "+w.verdict) {
			t.Errorf("table row %d: got %q, want %s ending in %q", i, lines[1+i], w.name, w.verdict)
		}
	}

	// The append: every earlier byte up to the last entry's closing brace
	// stays, and the file decodes with one entry more.
	after, err := os.ReadFile(trajectory)
	if err != nil {
		t.Fatal(err)
	}
	kept := bytes.TrimSuffix(before, []byte("\n  ]\n}\n"))
	if len(kept) == len(before) || !bytes.HasPrefix(after, kept) || !bytes.HasPrefix(after[len(kept):], []byte(",\n")) {
		t.Fatalf("the append rewrote earlier bytes of BENCH_harness.json; new tail:\n%s", after[len(kept)-min(len(kept), 200):])
	}
	var file struct{ Entries []json.RawMessage }
	var old struct{ Entries []json.RawMessage }
	if err := json.Unmarshal(after, &file); err != nil {
		t.Fatalf("trajectory after the append does not decode: %v", err)
	}
	if err := json.Unmarshal(before, &old); err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != len(old.Entries)+1 {
		t.Fatalf("%d entries after the append, want %d", len(file.Entries), len(old.Entries)+1)
	}
	last := file.Entries[len(file.Entries)-1]
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(last, &fields); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(fields), jsonKeys(pairsEntry{}); !reflect.DeepEqual(got, want) {
		t.Errorf("entry fields %v, want %v", got, want)
	}
	var metrics []map[string]json.RawMessage
	if err := json.Unmarshal(fields["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		if got, want := sortedKeys(m), jsonKeys(pairs{}); !reflect.DeepEqual(got, want) {
			t.Errorf("metric fields %v, want %v", got, want)
		}
	}
	var e pairsEntry
	if err := json.Unmarshal(last, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "pairs" || e.Workload != "fixture" || e.Base != "basesha" || e.Change != "changesha+worktree" ||
		e.Time != "2026-01-02T03:04:05Z" || e.Pairs != n || len(e.Seeds) != n || e.Seeds[0] != 201 || e.Seeds[n-1] != 200+n {
		t.Errorf("entry header %+v", e)
	}
	if len(e.Metrics) != len(want) {
		t.Fatalf("entry has %d metrics, want %d (a metric one side never printed has no verdict)", len(e.Metrics), len(want))
	}
	for i, w := range want {
		if m := e.Metrics[i]; m.Name != w.name || m.Verdict != w.verdict {
			t.Errorf("entry metric %d: %s %q, want %s %q", i, m.Name, m.Verdict, w.name, w.verdict)
		}
	}
	if m := e.Metrics[0]; m.Better != "higher" || m.Bound != 0.25 || m.Win != 9 || m.Loss != 1 || m.Tie != 0 ||
		m.BaseQ1 != 100.25 || m.BaseMedian != 101 || m.BaseQ3 != 101.75 || m.ChangeMedian != 131 || m.MedianPct <= 29 || m.MedianPct >= 30 {
		t.Errorf("replay_kops_per_s entry %+v", m)
	}

	// A missing trajectory starts a new one; a file that does not end in
	// an entries list is left as it is.
	fresh := filepath.Join(dir, "fresh.json")
	if _, err := runVerdict(t, fixture, fresh); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(fresh); err != nil || json.Unmarshal(data, &file) != nil || len(file.Entries) != 1 {
		t.Fatalf("fresh trajectory (err %v):\n%s", err, data)
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not a trajectory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runVerdict(t, fixture, junk); err == nil {
		t.Error("appending to a file that is not a trajectory succeeded")
	}
	if data, _ := os.ReadFile(junk); string(data) != "not a trajectory\n" {
		t.Errorf("a refused append rewrote the file: %q", data)
	}
}
