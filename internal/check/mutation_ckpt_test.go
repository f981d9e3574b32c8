//go:build kddbug_checkpoint

package check

import "testing"

// TestMutationCaughtCheckpointAhead proves the rebuild sweep can actually
// fail. The kddbug_checkpoint build flips one ordering edge in the
// rebuild pump: the NVRAM checkpoint records the watermark a step will
// reach BEFORE the step runs. A crash on one of the step's member writes
// then leaves the checkpoint past rows never rebuilt; recovery resumes
// there and serves those rows of the replacement as valid — the bug the
// checkpoint-after-the-step rule exists to prevent. The pump is one type
// under both subjects, so the sweep must catch it on the bare engine and
// on the plane, over both backends.
func TestMutationCaughtCheckpointAhead(t *testing.T) {
	for _, backend := range []string{"kdd", "lsraid"} {
		for _, sw := range []struct {
			name string
			run  func(Options) (*Report, error)
		}{{"engine", Run}, {"plane", RunShard}} {
			rep := sweepOK(t, sw.run, Options{
				Seeds: 2, Ops: 120, Footprint: 48, Backend: backend, Rebuild: true, CrashOnly: true,
			})
			v := rep.Violations()
			if len(v) == 0 {
				t.Errorf("%s %s: kddbug_checkpoint mutation produced zero violations across every crash point; "+
					"the rebuild sweep cannot detect a checkpoint that runs ahead of the rebuild", backend, sw.name)
				continue
			}
			t.Logf("%s %s: caught (%d violations); first: %s", backend, sw.name, len(v), v[0])
		}
	}
}
