package check

import (
	"strings"
	"testing"
)

// sweepOK runs one sweep whose options are known good.
func sweepOK(t *testing.T, run func(Options) (*Report, error), o Options) *Report {
	t.Helper()
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShardCheckerClean sweeps every crash point of the sharded plane's
// batched workload across two seeds and expects zero violations: every
// acked write survives a crash landing with multiple lanes' metadata
// entries in flight, and every recovery demultiplexes the shared log
// identically twice.
func TestShardCheckerClean(t *testing.T) {
	rep := sweepOK(t, RunShard, Options{Seeds: 2, Ops: 120, Footprint: 48})
	if v := rep.Violations(); len(v) > 0 {
		max := len(v)
		if max > 10 {
			max = 10
		}
		t.Fatalf("shard sweep found %d violations; first %d:\n%s",
			len(v), max, strings.Join(v[:max], "\n"))
	}
	for _, res := range rep.Results {
		if res.CrashSites == 0 {
			t.Fatalf("seed %#x enumerated zero crash sites", res.Seed)
		}
		if res.Crashes < res.CrashSites {
			t.Fatalf("seed %#x: only %d of %d armed crash points fired",
				res.Seed, res.Crashes, res.CrashSites)
		}
	}
	if !strings.Contains(rep.Table(), "sharded plane") {
		t.Fatalf("report table missing the sweep kind:\n%s", rep.Table())
	}
}

// TestShardCheckerDeterministic proves the shard sweep is replayable:
// two runs with identical options render identical reports, at any
// fan-out width.
func TestShardCheckerDeterministic(t *testing.T) {
	o := Options{Seeds: 1, Ops: 96, Footprint: 32, Parallel: 1}
	a := sweepOK(t, RunShard, o)
	o.Parallel = 4
	b := sweepOK(t, RunShard, o)
	if a.Table() != b.Table() {
		t.Fatalf("shard reports diverge across fan-out widths:\n--- serial\n%s--- parallel\n%s",
			a.Table(), b.Table())
	}
}

// idleQueueOptions is a crash sweep whose footprint overflows the cache's
// low-water mark, so the cleaner queues rows for idle-time repair
// (TestCheckerIdleQueue, and the kddbug_idle mutation's self-test).
var idleQueueOptions = Options{Seeds: 2, Ops: 200, Footprint: 96, CrashOnly: true}
