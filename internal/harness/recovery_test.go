package harness

import (
	"slices"
	"strings"
	"testing"

	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

func TestRecoveryTradeoffOutput(t *testing.T) {
	res, err := RecoveryTradeoff(Env{Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Text
	for _, w := range []string{"partition", "recovery time", "0.39%", "3.94%"} {
		if !strings.Contains(out, w) {
			t.Fatalf("missing %q in:\n%s", w, out)
		}
	}
	// The qualitative tradeoff must be visible: parse the GC-pages and
	// recovery columns from first and last rows.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.Contains(l, "%") && !strings.Contains(l, "partition") &&
			!strings.Contains(l, "Bigger") {
			rows = append(rows, l)
		}
	}
	if len(rows) < 5 {
		t.Fatalf("expected 5 rows, got %d:\n%s", len(rows), out)
	}
}

// TestRecoveryTimeIndependentOfBackend: the recovery scan reads the same
// metadata log under either array, and the crash waits for the SSD to
// drain, so the recovery column may not depend on the backend.
func TestRecoveryTimeIndependentOfBackend(t *testing.T) {
	backends := []string{"kdd", "lsraid"}
	cols := make([][]string, len(backends))
	// Cleanup runs once both parallel subtests are done.
	t.Cleanup(func() {
		if !t.Failed() && !slices.Equal(cols[0], cols[1]) {
			t.Errorf("recovery times differ by backend: kdd %v, lsraid %v", cols[0], cols[1])
		}
	})
	for i, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			out, err := RecoveryTradeoff(Env{Scale: 0.004, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range strings.Split(out.Text, "\n") {
				if f := strings.Fields(l); len(f) == 5 && strings.HasSuffix(f[0], "%") {
					cols[i] = append(cols[i], f[4])
				}
			}
			if len(cols[i]) != 5 {
				t.Fatalf("found %d rows, want 5:\n%s", len(cols[i]), out.Text)
			}
		})
	}
}

func TestDegradedPerformanceOutput(t *testing.T) {
	out, err := DegradedPerformance(Env{Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"healthy", "degraded", "post-rebuild", "WT", "KDD"} {
		if !strings.Contains(out.Text, w) {
			t.Fatalf("missing %q in:\n%s", w, out.Text)
		}
	}
}

func TestAblationAdmissionOutput(t *testing.T) {
	out, err := AblationAdmission(Env{Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"LARC", "always", "rejects"} {
		if !strings.Contains(out.Text, w) {
			t.Fatalf("missing %q in:\n%s", w, out.Text)
		}
	}
}

func TestSelectiveAdmissionReducesAllocWritesInSim(t *testing.T) {
	spec := wlFin1Tiny()
	tr := synth(spec)
	cache := roundWays(int64(0.1*float64(spec.UniqueTotal)), 256)
	base, err := runSim(spec, tr, StackOpts{Policy: PolicyKDD, DeltaMean: 0.25, CachePages: cache})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := runSim(spec, tr, StackOpts{Policy: PolicyKDD, DeltaMean: 0.25,
		CachePages: cache, SelectiveAdmission: true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cache.AdmissionRejects == 0 {
		t.Fatal("filter never rejected")
	}
	baseAllocs := base.Cache.ReadFills + base.Cache.WriteAllocs
	selAllocs := sel.Cache.ReadFills + sel.Cache.WriteAllocs
	if selAllocs >= baseAllocs {
		t.Fatalf("allocation writes not reduced: %d vs %d", selAllocs, baseAllocs)
	}
}

// helpers shared by the extension tests.
func wlFin1Tiny() workload.Spec { return workload.Fin1.Scale(0.004) }

func synth(s workload.Spec) *trace.Trace { return workload.Synthesize(s) }
