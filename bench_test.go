package kddcache

// One sub-benchmark per registered experiment: every table and figure of
// the paper's evaluation (§IV), the ablations DESIGN.md calls out and the
// extensions. Each regenerates its experiment on the kdd backend and
// prints the same rows/series the paper reports.
//
// Scale: the benchmarks default to KDD_BENCH_SCALE=0.02 (2% of the
// paper's request counts and footprints, with cache sizes scaled to
// match, so curve shapes are preserved). Set the environment variable to
// 1.0 for paper-sized runs:
//
//	KDD_BENCH_SCALE=0.2 go test -bench Experiments/fig6 -benchtime=1x

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
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

// BenchmarkExperiments runs every registered experiment once per
// iteration, printing the regenerated table on the first run.
func BenchmarkExperiments(b *testing.B) {
	env := ExperimentEnv{Scale: benchScale()}
	var names []string
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Experiment(name, env)
				if err != nil {
					b.Fatalf("%s: %v", name, err)
				}
				if i == 0 {
					fmt.Printf("\n%s (scale %.3g)\n%s\n", name, env.Scale, res.Text)
				}
			}
		})
	}
}
