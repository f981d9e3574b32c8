package harness_test

import (
	"strings"
	"testing"

	"kddcache/internal/check"
)

// The chaos plans run on internal/check's fault rig, fanned out on this
// package's FanOut (check imports harness, hence the external test
// package). The full-table golden and the plan-table tests live beside
// the rig; what stays here are the subset runs `make chaos-ssd`,
// `make chaos-rebuild`, `make qos-test` and `make race` name, which put
// the runner and the rig under the race detector together.

func chaos(t *testing.T, o check.ChaosOpts) *check.ChaosReport {
	t.Helper()
	rep, err := check.Chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosSSD runs only the whole-SSD-failure plans: fail-stop kill,
// kill landing mid-clean, a breaker-tripping media storm, and
// reattach-then-rekill. `make chaos-ssd` runs this under the race
// detector; the acceptance bar is zero user-visible errors while the
// RAID members stay healthy.
func TestChaosSSD(t *testing.T) {
	const kinds = "ssd-kill,ssd-kill-clean,ssd-breaker,ssd-reattach"
	rep := chaos(t, check.ChaosOpts{Kind: kinds, Schedules: 8})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	seen := make(map[string]bool)
	var failovers, reattaches int64
	for _, res := range rep.Results {
		seen[res.Kind] = true
		failovers += res.Failovers
		reattaches += res.Reattaches
	}
	for _, k := range strings.Split(kinds, ",") {
		if !seen[k] {
			t.Errorf("plan %q never ran", k)
		}
	}
	if failovers == 0 {
		t.Error("no cache failover engaged across the SSD-failure schedules")
	}
	if reattaches == 0 {
		t.Error("no reattach completed")
	}
}

// TestChaosRebuild runs only the rebuild-window plans: a member kill with
// a hot spare (the pump attaches and paces the rebuild under load), power
// losses landing inside the rebuild window (recovery resumes from the
// NVRAM checkpoint), and a second member kill mid-window on RAID-6.
// `make chaos-rebuild` runs this under the race detector; the acceptance
// bar is full redundancy, zero lost rows, and deterministic fingerprints.
func TestChaosRebuild(t *testing.T) {
	const kinds = "disk-kill,rebuild-crash,double-kill"
	rep := chaos(t, check.ChaosOpts{Kind: kinds, Schedules: 9})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	seen := make(map[string]bool)
	var attaches, rows int64
	var crashes int
	for _, res := range rep.Results {
		seen[res.Kind] = true
		attaches += res.SpareAttaches
		rows += res.RebuildRows
		crashes += res.Crashes
	}
	for _, k := range strings.Split(kinds, ",") {
		if !seen[k] {
			t.Errorf("plan %q never ran", k)
		}
	}
	if attaches == 0 {
		t.Error("no spare was attached across the rebuild schedules")
	}
	if rows == 0 {
		t.Error("no rebuild rows were pumped across the rebuild schedules")
	}
	if crashes == 0 {
		t.Error("no crash landed inside a rebuild window")
	}
}

// TestChaosLaneKill runs only the sharded-plane lane-kill plan: one
// lane's slice of the SSD fail-stops mid-batch, that lane alone must
// fold to pass-through with zero user-visible errors, and the other
// seven lanes keep serving from cache. `make qos-test` runs this under
// the race detector alongside the noisy-neighbor isolation proof.
func TestChaosLaneKill(t *testing.T) {
	rep := chaos(t, check.ChaosOpts{Kind: "ssd-lane-kill", Schedules: 6})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	if len(rep.Results) != 6 {
		t.Fatalf("got %d schedules, want 6", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Kind != "ssd-lane-kill" {
			t.Fatalf("schedule %d ran plan %q", res.Schedule, res.Kind)
		}
		// Exactly one failover per schedule: the killed lane and only the
		// killed lane left the cache path.
		if res.Failovers != 1 {
			t.Errorf("schedule %d: %d failovers, want exactly 1", res.Schedule, res.Failovers)
		}
	}
}

// TestChaosDeterministicAcrossParallelism runs two small chaos batches,
// the default plan mix and the rebuild-window plans, serially and in
// parallel; each rendered table (fingerprints included) must match byte
// for byte.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	for _, o := range []check.ChaosOpts{
		{Schedules: 4, Ops: 160},
		{Schedules: 4, Ops: 160, Kind: "disk-kill,rebuild-crash,double-kill"},
	} {
		tables := make(map[int]string)
		for _, par := range []int{1, 4} {
			o.Parallel = par
			rep := chaos(t, o)
			if v := rep.Violations(); len(v) != 0 {
				t.Fatalf("kinds %q: chaos violations at width %d: %v", o.Kind, par, v)
			}
			tables[par] = rep.Table()
		}
		if tables[1] != tables[4] {
			t.Fatalf("kinds %q: chaos table differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
				o.Kind, tables[1], tables[4])
		}
	}
}
