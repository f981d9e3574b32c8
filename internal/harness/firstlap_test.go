package harness

import (
	"runtime"
	"testing"

	"kddcache/internal/workload"
)

// TestFirstLapAllocs replays a Fin1 trace through fresh KDD timing stacks
// on both backends and bounds the heap allocations of the replay alone,
// per request. A fresh stack pays its bookkeeping's first lap here: the
// metadata log's ring slots and, on lsraid, every segment's summary are
// allocated once each, at their final size, when first used, and the
// latency reservoir doubles to its bound. Appending them from nil
// instead measured 0.0026 allocs a request on kdd and 0.0198 on lsraid
// (each log slot regrown about ten times, each summary about eight, the
// reservoir in 1.25x steps); one allocation each measures 0.0007 and
// 0.0029. Sizing the per-row and per-page scratch of the cache, its
// cleaner and its staging buffer at first use as well (about 43 appends
// from nil a replay) measures 0.0004 and 0.0026: nearly all of it one
// per log slot and one per segment opened.
func TestFirstLapAllocs(t *testing.T) {
	spec, tr := fig9Trace(workload.Fin1, 0.02)
	for _, tc := range []struct {
		backend string
		ceil    float64
	}{
		{"kdd", 0.0006},
		{"lsraid", 0.004},
	} {
		st, err := Build(CellOpts(spec, tr, StackOpts{
			Backend: tc.backend, DeltaMean: 0.25, CachePages: quarterCache(spec), Timing: true,
		}))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := RunTrace(st, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		per := float64(m1.Mallocs-m0.Mallocs) / float64(len(tr.Requests))
		t.Logf("%s: %d requests, %.4f allocs/request", tc.backend, len(tr.Requests), per)
		if per > tc.ceil {
			t.Errorf("%s: the first lap allocates %.4f times a request, budget %.4f (a structure appended from nil is back)",
				tc.backend, per, tc.ceil)
		}
	}
}
