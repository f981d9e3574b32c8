//go:build kddbug_idle

package check

import "testing"

// TestMutationCaughtIdleReclaim proves the sweep catches a cleaner that
// retires a row's deltas before repairing its parity. The kddbug_idle
// build reclaims each planned row's Old pages when the row is queued for
// idle-time repair, not after the repair: the row then leaves the queue
// with nothing to repair, and its parity stays stale with no delta left
// to fold. The parity engine is the one that owes parity, so the sweep
// must catch it there, on the bare engine and on the plane.
func TestMutationCaughtIdleReclaim(t *testing.T) {
	for _, sw := range []struct {
		name string
		run  func(Options) (*Report, error)
	}{{"engine", Run}, {"plane", RunShard}} {
		rep := sweepOK(t, sw.run, idleQueueOptions)
		v := rep.Violations()
		if len(v) == 0 {
			t.Errorf("%s: kddbug_idle mutation produced zero violations across every crash point; "+
				"the checker cannot detect parity left stale by an early reclaim", sw.name)
			continue
		}
		t.Logf("%s: caught (%d violations); first: %s", sw.name, len(v), v[0])
	}
}
