package check

import (
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"kddcache/internal/harness"
	"kddcache/internal/raid"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func chaos(t *testing.T, o ChaosOpts) *ChaosReport {
	t.Helper()
	rep, err := Chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaos runs the full default chaos suite: at least 20 distinct
// seeded fault schedules, each executed twice (determinism), with zero
// invariant violations and zero undetected corruption — and every
// column of the table, the span count, trace digest and fingerprint
// included, pinned by testdata/chaos.golden: a refactor of the rig or of
// anything under it that claims "same behaviour" is held to it here.
func TestChaos(t *testing.T) {
	rep := chaos(t, ChaosOpts{})
	const golden = "testdata/chaos.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(rep.Table()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/check -run 'TestChaos$' -update` to create it", err)
	}
	if got := rep.Table(); got != string(want) {
		t.Errorf("chaos table differs from %s (-update regenerates it after an intended change):\n%s", golden, got)
	}
	if len(rep.Results) < 20 {
		t.Fatalf("want >= 20 schedules, got %d", len(rep.Results))
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}

	kinds := make(map[string]bool)
	var crashes, unrec int
	var detected, repaired int64
	for _, res := range rep.Results {
		kinds[res.Kind] = true
		crashes += res.Crashes
		detected += res.Detected
		repaired += res.Repaired
		unrec += res.Unrecoverable
		if res.Unrecoverable > 0 && res.Kind != "unrecoverable" {
			t.Errorf("schedule %d (%s): unexpected unrecoverable rows", res.Schedule, res.Kind)
		}
	}
	for _, plan := range chaosPlans {
		if !kinds[plan.kind] {
			t.Errorf("plan %q never ran", plan.kind)
		}
	}
	if crashes == 0 {
		t.Error("no crash was injected across all schedules")
	}
	if detected == 0 {
		t.Error("no media error was detected across all schedules")
	}
	if repaired == 0 {
		t.Error("nothing was repaired across all schedules")
	}
	if unrec == 0 {
		t.Error("the unrecoverable plan reported no unrecoverable rows")
	}
}

// TestChaosSeedSensitivity checks that different master seeds change the
// schedule fingerprints (the fault streams really are seed-driven).
func TestChaosSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two extra chaos runs")
	}
	a := chaos(t, ChaosOpts{Schedules: len(chaosPlans), Seed: 1})
	b := chaos(t, ChaosOpts{Schedules: len(chaosPlans), Seed: 2})
	same := 0
	for i := range a.Results {
		if a.Results[i].Fingerprint == b.Results[i].Fingerprint {
			same++
		}
	}
	if same == len(a.Results) {
		t.Error("fingerprints identical across different master seeds")
	}
}

// TestUsageErrors: what a flag or a caller's Options can get wrong comes
// back from the one stack builder as an error — never a panic, never a
// sweep that "passes" by ignoring the option or "fails" with one
// out-of-range violation per op. What harness.Build refuses wraps
// harness.ErrOptions.
func TestUsageErrors(t *testing.T) {
	chaosErr := func(o ChaosOpts) func() error {
		return func() error { _, err := Chaos(o); return err }
	}
	checkErr := func(run func(Options) (*Report, error), o Options) func() error {
		return func() error { _, err := run(o); return err }
	}
	lsraid6 := spec{StackOpts: checkGeometry, footprint: 48}
	lsraid6.Backend, lsraid6.Level, lsraid6.CachePages = "lsraid", raid.Level6, 128
	for _, tc := range []struct {
		name string
		run  func() error
		want string // substring of the error
		opts bool   // the error wraps harness.ErrOptions
	}{
		{"chaos footprint below the hot eighth", chaosErr(ChaosOpts{Footprint: 4}), "footprint 4", false},
		{"chaos footprint past the array", chaosErr(ChaosOpts{Footprint: 100000}), "footprint 100000", false},
		{"chaos cache below one set", chaosErr(ChaosOpts{CachePages: 4}), "below one set", true},
		{"chaos plane cache below one set", chaosErr(ChaosOpts{Kind: "ssd-lane-kill", CachePages: 4}), "below one set", true},
		{"chaos plane cache not divisible into lanes", chaosErr(ChaosOpts{Kind: "ssd-lane-kill", CachePages: 132}), "not divisible", false},
		{"chaos unknown kind", chaosErr(ChaosOpts{Kind: "nope"}), `no chaos plan matches kind "nope"`, false},
		{"check footprint past the array", checkErr(Run, Options{Footprint: 100000}), "footprint 100000", false},
		{"check cache below one set", checkErr(Run, Options{CachePages: 8}), "below one set", true},
		{"check unknown backend", checkErr(Run, Options{Backend: "x"}), `unknown backend "x"`, true},
		{"rig RAID-6 on lsraid", func() error { _, err := newRig(1, lsraid6); return err }, "single-parity", true},
		{"shard cache below one set per lane", checkErr(RunShard, Options{CachePages: 8}), "below one", false},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if errors.Is(err, harness.ErrOptions) != tc.opts {
			t.Errorf("%s: error %v wraps harness.ErrOptions: %v, want %v", tc.name, err, !tc.opts, tc.opts)
		}
	}
}
