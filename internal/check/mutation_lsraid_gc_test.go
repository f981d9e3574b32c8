//go:build kddbug_lsraid_gc

package check

import "testing"

// TestMutationCaughtLSRaidGC proves the sweep catches a segment GC that
// frees its victim too early. The kddbug_lsraid_gc build returns the
// victim to the free list before staging its swept pages, so the
// copy-forward can reopen it and overwrite rows the map still names. The
// rig's lsraid log is sized to the footprint and wraps, so the plain
// sweep must catch it, on the bare engine and on the plane.
func TestMutationCaughtLSRaidGC(t *testing.T) {
	for _, sw := range []struct {
		name string
		run  func(Options) (*Report, error)
	}{{"engine", Run}, {"plane", RunShard}} {
		rep := sweepOK(t, sw.run, Options{Seeds: 2, Ops: 240, Footprint: 48, Backend: "lsraid", CrashOnly: true})
		v := rep.Violations()
		if len(v) == 0 {
			t.Errorf("%s: kddbug_lsraid_gc mutation produced zero violations; "+
				"the checker cannot detect a GC victim freed before its live pages moved", sw.name)
			continue
		}
		t.Logf("%s: caught (%d violations); first: %s", sw.name, len(v), v[0])
	}
}
