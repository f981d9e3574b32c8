package harness

import (
	"testing"

	"kddcache/internal/workload"
)

// Shape tests for the figure curves themselves: the qualitative
// relationships the paper's plots exhibit must hold at every sweep point,
// not just the endpoints.

// sweep runs a cache-size sweep of all policies over one workload.
func sweep(spec workload.Spec, scale float64, withWA bool) (*sweepResult, error) {
	srs, err := sweepAll(Env{Scale: scale}, []workload.Spec{spec}, withWA)
	if err != nil {
		return nil, err
	}
	return srs[0], nil
}

// TestFig6ShapeMonotonicity asserts the Figure 6 curve properties on
// Fin1: every policy's SSD writes weakly decrease as the cache grows
// (fewer misses to fill), and the KDD family stays ordered by content
// locality at each point.
func TestFig6ShapeMonotonicity(t *testing.T) {
	sr, err := sweep(workload.Fin1.Scale(0.006), 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	curves := map[string][]float64{}
	for _, s := range sr.traffic {
		curves[s.Label] = s.Y
	}
	for label, ys := range curves {
		for i := 1; i < len(ys); i++ {
			// Allow tiny non-monotonic jitter (<3%) from set-hash effects.
			if ys[i] > ys[i-1]*1.03 {
				t.Errorf("%s: SSD writes rose with cache size: %.1f -> %.1f at point %d",
					label, ys[i-1], ys[i], i)
			}
		}
	}
	for i := range curves["KDD-25%"] {
		if !(curves["KDD-12%"][i] <= curves["KDD-25%"][i] &&
			curves["KDD-25%"][i] <= curves["KDD-50%"][i]) {
			t.Errorf("point %d: KDD locality ordering broken: %.1f / %.1f / %.1f",
				i, curves["KDD-12%"][i], curves["KDD-25%"][i], curves["KDD-50%"][i])
		}
		if curves["KDD-50%"][i] >= curves["WT"][i] {
			t.Errorf("point %d: KDD-50%% (%.1f) not below WT (%.1f)",
				i, curves["KDD-50%"][i], curves["WT"][i])
		}
		if curves["WA"][i] > curves["KDD-12%"][i] {
			t.Errorf("point %d: WA (%.1f) above KDD-12%% (%.1f) on a write-dominant trace",
				i, curves["WA"][i], curves["KDD-12%"][i])
		}
	}
}

// TestFig5ShapeHitRatioMonotone asserts hit ratios weakly increase with
// cache size for every policy on both write-dominant traces.
func TestFig5ShapeHitRatioMonotone(t *testing.T) {
	for _, spec := range []workload.Spec{workload.Fin1, workload.Hm0} {
		sr, err := sweep(spec.Scale(0.006), 1.0, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sr.hit {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i]+0.01 < s.Y[i-1] {
					t.Errorf("%s/%s: hit ratio fell with cache size: %.4f -> %.4f",
						spec.Name, s.Label, s.Y[i-1], s.Y[i])
				}
			}
		}
	}
}
