package harness

import (
	"math"
	"strings"
	"testing"

	"kddcache/internal/workload"
)

// TestRebuildImpact runs the rebuild-impact experiment at a tiny scale:
// both policies must reach full redundancy (a rebuild time is printed,
// not "-"), and the table must carry one row per compared policy.
func TestRebuildImpact(t *testing.T) {
	res, err := RebuildImpact(Env{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Text
	for _, want := range []string{"Nossd", "KDD-25%", "rebuild/healthy", "rebuild time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != "Nossd" && f[0] != "KDD-25%") {
			continue
		}
		if strings.Contains(line, " - ") {
			t.Fatalf("policy %s never reached full redundancy:\n%s", f[0], out)
		}
	}
}

// TestRebuildImpactDeterministic: the experiment fans simulations over the
// worker pool; its table must be byte-identical at any width.
func TestRebuildImpactDeterministic(t *testing.T) {
	t.Parallel()
	a, errA := RebuildImpact(Env{Scale: 0.002, Parallel: 1})
	b, errB := RebuildImpact(Env{Scale: 0.002, Parallel: 4})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Text != b.Text {
		t.Fatalf("serial and parallel tables diverge:\n--- serial\n%s--- parallel\n%s", a.Text, b.Text)
	}
}

// TestRebuildTimeMatchesRate checks rebuild-impact's clock against its
// closed form. On a light trace each of the cache-less baseline's
// fixed-rate steps finishes before the next request arrives, so the
// rebuild runs at nossdRebuildRows rows per request, and the time from
// the failure to full redundancy must be rows ÷ (rows per request ×
// IOPS) — within the Poisson spread of the arrivals that carry it.
func TestRebuildTimeMatchesRate(t *testing.T) {
	spec := workload.Fin2.Scale(0.002)
	spec.MeanIOPS = 10
	rows, err := rebuildImpact(Env{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.name != "Nossd" || r.drainRows != 0 {
		t.Fatalf("row %+v: want the Nossd baseline, rebuilt while requests arrived", r)
	}
	want := float64(r.fgRows) / (nossdRebuildRows * spec.MeanIOPS)
	got := r.rebuild.Seconds()
	t.Logf("%d rows at %d rows × %.0f IOPS: %.2f s, closed form %.2f s", r.fgRows, nossdRebuildRows, spec.MeanIOPS, got, want)
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("time to redundancy %.2f s, rows ÷ rate is %.2f s", got, want)
	}
}
