//go:build !kddbug

package check

import "testing"

// TestCheckerCIMode is the deterministic CI sweep, the matrix `kddcheck
// -ci` runs: {kdd, lsraid} x {engine, plane} x {plain, rebuild}, every
// crash point and media-fault site enumerated from the profile trace,
// zero violations expected. The site table is pinned — the sweep has the
// teeth it had, and a refactor that claims "same behaviour" enumerates
// the same sites — and every armed crash point must actually fire.
func TestCheckerCIMode(t *testing.T) {
	type row [3]int // crash, media, kill sites of one seed
	want := [][]row{
		{{50, 172, 8}, {54, 202, 8}},   // kdd engine
		{{43, 0, 0}, {45, 0, 0}},       // kdd plane
		{{352, 635, 8}, {372, 713, 8}}, // kdd engine, rebuild (media sites 1 in 4)
		{{128, 0, 0}, {108, 0, 0}},     // kdd plane, rebuild
		{{106, 304, 8}, {105, 310, 8}}, // lsraid engine (240 ops, a log that wraps)
		{{90, 0, 0}, {84, 0, 0}},       // lsraid plane
		{{162, 298, 8}, {150, 300, 8}}, // lsraid engine, rebuild
		{{155, 0, 0}, {149, 0, 0}},     // lsraid plane, rebuild
	}
	var reps []*Report
	if testing.Short() {
		// One seed and a smaller workload on the kdd engine: the -race
		// sweep in CI runs with -short, where the full site fan-out is
		// ~20x slower than native.
		reps = []*Report{sweepOK(t, Run, Options{Seeds: 1, Ops: 80, Footprint: 32})}
		want = [][]row{{{33, 122, 8}}}
	} else {
		var err error
		if reps, err = RunCI(Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for c, rep := range reps {
		o := rep.Opts
		if v := rep.Violations(); len(v) > 0 {
			t.Fatalf("%s rebuild=%v %q: %d violations (showing up to 10):\n%s",
				o.Backend, o.Rebuild, rep.Kind, len(v), joinLines(v[:min(len(v), 10)]))
		}
		for i, res := range rep.Results {
			if got := (row{res.CrashSites, res.MediaSites, res.KillSites}); got != want[c][i] {
				t.Errorf("%s rebuild=%v %q seed %#x: crash/media/kill sites %v, want %v",
					o.Backend, o.Rebuild, rep.Kind, res.Seed, got, want[c][i])
			}
			if res.Crashes != res.CrashSites {
				t.Errorf("%s rebuild=%v %q seed %#x: %d crashes recovered but %d crash sites armed",
					o.Backend, o.Rebuild, rep.Kind, res.Seed, res.Crashes, res.CrashSites)
			}
		}
	}
}

// TestCheckerRebuildScenario sweeps every crash point and fault site
// against a stack that is rebuilding a killed member online, on both
// backends and both subjects: crash sites inside the rebuild window must
// resume from the NVRAM checkpoint (twice, with equal digests), no site
// may corrupt data silently or leave the window open, and none may cost
// data despite the member hole — except a member media fault on the
// single-parity log, whose loss must then be loud. On the plane the one
// rebuild pump runs at the batch barrier, attaches the parked spare
// itself, and the sweep arms the rebuild target's member writes too.
func TestCheckerRebuildScenario(t *testing.T) {
	o := Options{Seeds: 2, Ops: 120, Footprint: 48, Rebuild: true}
	if testing.Short() {
		// One seed, and member media sites sampled 1-in-12: the rebuild
		// touches every page of every member, so the exhaustive member
		// fault fan-out alone is ~2500 replays — far past the -race CI
		// budget. Crash sites (the checkpoint/resume coverage this
		// scenario exists for) stay exhaustive.
		o = Options{Seeds: 1, Ops: 90, Footprint: 32, Rebuild: true, MediaStride: 12}
	}
	kddOps := o.Ops
	for _, backend := range []string{"kdd", "lsraid"} {
		o.Backend = backend
		if backend == "lsraid" {
			o.Ops = 2 * kddOps // as in RunCI: enough writes to wrap the log, so GC runs
		}
		for _, run := range []func(Options) (*Report, error){Run, RunShard} {
			rep := sweepOK(t, run, o)
			if v := rep.Violations(); len(v) > 0 {
				t.Fatalf("%s %q: %d violations (showing up to 10):\n%s", backend, rep.Kind, len(v), joinLines(v[:min(len(v), 10)]))
			}
			for _, res := range rep.Results {
				if res.CrashSites == 0 {
					t.Errorf("%s %q seed %#x: no crash sites enumerated", backend, rep.Kind, res.Seed)
				}
				if res.Crashes != res.CrashSites {
					t.Errorf("%s %q seed %#x: %d crashes recovered but %d crash sites armed",
						backend, rep.Kind, res.Seed, res.Crashes, res.CrashSites)
				}
			}
		}
	}
}

// TestCheckerDeterministic: the same options must produce the identical
// report — the replay-from-seed promise printed on failure depends on it.
func TestCheckerDeterministic(t *testing.T) {
	o := Options{Seeds: 1, Ops: 60, Footprint: 32}
	a, b := sweepOK(t, Run, o), sweepOK(t, Run, o)
	if a.Table() != b.Table() {
		t.Fatalf("reports diverge:\n--- first\n%s--- second\n%s", a.Table(), b.Table())
	}
}

func joinLines(v []string) string {
	out := ""
	for _, s := range v {
		out += "  " + s + "\n"
	}
	return out
}

// TestCheckerIdleQueue sweeps every crash point of a bare-engine workload
// whose footprint overflows the low-water mark, so the cleaner plans row
// repairs into its idle queue, and crashes strike while rows wait there:
// recovery must lose nothing (the queue is volatile; the rows' Old pages
// and deltas are durable and the next pass repairs them).
func TestCheckerIdleQueue(t *testing.T) {
	rep := sweepOK(t, Run, idleQueueOptions)
	if v := rep.Violations(); len(v) > 0 {
		t.Fatalf("%d violations; first: %s", len(v), v[0])
	}
	pending := 0
	for _, res := range rep.Results {
		pending += res.PendingCrashes
		t.Logf("seed %#x: %d of %d crashes struck with rows queued", res.Seed, res.PendingCrashes, res.Crashes)
	}
	if pending == 0 {
		t.Fatal("no crash struck with rows queued")
	}
}
