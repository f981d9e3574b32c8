//go:build kddbug

package check

import "testing"

// TestMutationCaught proves the checker can actually fail. The kddbug
// build flips one ordering edge in core.commitDez: DEZ mapping entries
// are logged (and staging drained) BEFORE the DEZ page is durable, with
// no undo on error. A crash on the DEZ write ordinal then leaves the
// metadata log owning pointers into a never-written (or torn) page, so
// recovery serves stale or garbage content for ACKED writes — exactly
// the class of bug exhaustive crash-point exploration exists to catch.
func TestMutationCaught(t *testing.T) {
	o := Options{Seeds: 2, CrashOnly: true}
	rep := sweepOK(t, Run, o)
	v := rep.Violations()
	if len(v) == 0 {
		t.Fatal("kddbug mutation produced zero violations across every crash point; " +
			"the checker cannot detect the DEZ log-before-durable ordering bug")
	}
	t.Logf("checker caught the mutation (%d violations); first: %s", len(v), v[0])
	t.Logf("replay: go run ./cmd/kddcheck -seed %#x -seeds 1 (kddbug build)", rep.Results[0].Seed)
}
