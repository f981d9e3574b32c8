package kddcache

// One benchmark per table and figure of the paper's evaluation (§IV),
// plus the ablations DESIGN.md calls out. Each benchmark regenerates its
// experiment and prints the same rows/series the paper reports.
//
// Scale: benchmarks default to KDD_BENCH_SCALE=0.02 (2% of the paper's
// request counts and footprints, with cache sizes scaled to match, so
// curve shapes are preserved). Set the environment variable to 1.0 for
// paper-sized runs:
//
//	KDD_BENCH_SCALE=0.2 go test -bench=Fig6 -benchtime=1x

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"kddcache/internal/harness"
)

// benchScale reads the experiment scale from the environment.
func benchScale() float64 {
	if v := os.Getenv("KDD_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

// runExperiment executes fn on the kdd backend once per benchmark
// iteration, printing the regenerated table on the first run.
func runExperiment(b *testing.B, name string, fn func(scale float64, backend string) (string, error)) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out, err := fn(scale, "kdd")
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			fmt.Printf("\n%s (scale %.3g)\n%s\n", name, scale, out)
		}
	}
}

// BenchmarkTable1 regenerates Table I: synthesized workload
// characteristics vs the paper's targets.
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "Table I", func(s float64, _ string) (string, error) {
		return harness.TableI(s)
	})
}

// BenchmarkFig4 regenerates Figure 4: metadata I/O share vs metadata
// partition size under all four workloads.
func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "Figure 4", func(s float64, backend string) (string, error) {
		out, _, err := harness.Fig4(s, backend)
		return out, err
	})
}

// BenchmarkFig5 regenerates Figure 5: hit ratios on the write-dominant
// traces (Fin1, Hm0) across cache sizes.
func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "Figure 5", harness.Fig5)
}

// BenchmarkFig6 regenerates Figure 6: SSD write traffic on the
// write-dominant traces.
func BenchmarkFig6(b *testing.B) {
	runExperiment(b, "Figure 6", harness.Fig6)
}

// BenchmarkFig7 regenerates Figure 7: hit ratios on the read-dominant
// traces (Fin2, Web0).
func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "Figure 7", harness.Fig7)
}

// BenchmarkFig8 regenerates Figure 8: SSD write traffic on the
// read-dominant traces.
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "Figure 8", harness.Fig8)
}

// BenchmarkFig9 regenerates Figure 9: average response time of open-loop
// trace replay on the timing stack (the prototype experiment).
func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "Figure 9", func(s float64, backend string) (string, error) {
		// The timing stack is much slower per request than the counting
		// simulator; run Figure 9 at a quarter of the figure scale.
		out, _, err := harness.Fig9(s/4, backend)
		return out, err
	})
}

// BenchmarkFig10 regenerates Figure 10: closed-loop FIO average response
// time vs read rate.
func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "Figure 10", func(s float64, backend string) (string, error) {
		out, _, err := harness.Fig10(s, backend)
		return out, err
	})
}

// BenchmarkFig11 regenerates Figure 11: closed-loop FIO SSD write traffic
// vs read rate.
func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "Figure 11", func(s float64, backend string) (string, error) {
		out, _, err := harness.Fig11(s, backend)
		return out, err
	})
}

// BenchmarkTable2 regenerates Table II: the qualitative latency/endurance
// comparison, derived from measured numbers.
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "Table II", harness.TableII)
}

// BenchmarkLifetime prints the headline SSD-lifetime improvements (the
// paper's "up to 5.1×" claim, §IV-A3).
func BenchmarkLifetime(b *testing.B) {
	runExperiment(b, "Lifetime summary", harness.LifetimeSummary)
}

// BenchmarkAblationPartition compares dynamic DAZ/DEZ mixing vs fixed
// partitions (§III-B design choice).
func BenchmarkAblationPartition(b *testing.B) {
	runExperiment(b, "Ablation: partition", harness.AblationPartition)
}

// BenchmarkAblationReclaim compares reclaim scheme 2 vs scheme 1 (§III-D
// design choice).
func BenchmarkAblationReclaim(b *testing.B) {
	runExperiment(b, "Ablation: reclaim", harness.AblationReclaim)
}

// BenchmarkAblationMetaLog isolates the circular metadata log vs
// per-update persistence vs none (§III-B/C design choice).
func BenchmarkAblationMetaLog(b *testing.B) {
	runExperiment(b, "Ablation: metadata log", harness.AblationMetaLog)
}

// BenchmarkAblationAdmission measures the LARC-style selective-admission
// extension §V-C suggests layering on KDD.
func BenchmarkAblationAdmission(b *testing.B) {
	runExperiment(b, "Extension: selective admission", harness.AblationAdmission)
}

// BenchmarkSweepAssociativity sweeps set associativity (§IV-A1 knob).
func BenchmarkSweepAssociativity(b *testing.B) {
	runExperiment(b, "Parameter sweep: associativity", harness.AblationAssociativity)
}

// BenchmarkSweepStaging sweeps the NVRAM staging buffer size (§IV-A1 knob).
func BenchmarkSweepStaging(b *testing.B) {
	runExperiment(b, "Parameter sweep: staging buffer", harness.AblationStaging)
}

// BenchmarkMotivation reproduces the §I argument: NVRAM write buffering
// vs write-back vs KDD on the timing stack.
func BenchmarkMotivation(b *testing.B) {
	runExperiment(b, "Motivation (NVRAM buffering vs KDD)", func(s float64, backend string) (string, error) {
		return harness.Motivation(s/2, backend)
	})
}

// BenchmarkRecoveryTradeoff quantifies §III-B's metadata-partition sizing
// tension: GC relogging cost vs crash-recovery scan time.
func BenchmarkRecoveryTradeoff(b *testing.B) {
	runExperiment(b, "Recovery tradeoff", func(s float64, backend string) (string, error) {
		return harness.RecoveryTradeoff(s/2, backend)
	})
}

// BenchmarkDegraded measures response time healthy vs degraded vs
// post-rebuild for WT and KDD on the timing stack.
func BenchmarkDegraded(b *testing.B) {
	runExperiment(b, "Degraded-mode performance", func(s float64, backend string) (string, error) {
		return harness.DegradedPerformance(s/2, backend)
	})
}
