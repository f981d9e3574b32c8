//go:build kddbug_lsraid

package check

import "testing"

// TestMutationCaughtLSRaidSummaryFirst proves the sweep catches a log
// that makes a row durable before its data. The kddbug_lsraid build flips
// the mapping and appends the segment summary before the row's member
// writes: a crash on one of those writes then leaves NVRAM naming member
// pages that never received the row, and recovery serves their stale
// bytes as the acked values. Crash points on member writes are the
// rebuild target's, so the rebuild sweep must catch it, on the bare
// engine and on the plane.
func TestMutationCaughtLSRaidSummaryFirst(t *testing.T) {
	for _, sw := range []struct {
		name string
		run  func(Options) (*Report, error)
	}{{"engine", Run}, {"plane", RunShard}} {
		rep := sweepOK(t, sw.run, Options{
			Seeds: 2, Ops: 240, Footprint: 48, Backend: "lsraid", Rebuild: true, CrashOnly: true,
		})
		v := rep.Violations()
		if len(v) == 0 {
			t.Errorf("%s: kddbug_lsraid mutation produced zero violations across every crash point; "+
				"the checker cannot detect a segment summary made durable before its row", sw.name)
			continue
		}
		t.Logf("%s: caught (%d violations); first: %s", sw.name, len(v), v[0])
	}
}
