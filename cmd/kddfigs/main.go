// Command kddfigs regenerates the paper's complete evaluation — every
// table, figure, ablation and extension experiment — writing the text
// tables (and CSV series where available) into a directory. Experiments
// are independent and run on a worker pool (-j); within each experiment
// the individual simulations run on the harness pool (-parallel).
//
//	kddfigs -scale 0.02 -o results/ -j 4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"kddcache/internal/harness"
	"kddcache/internal/stats"

	kddcache "kddcache"
)

// result carries one experiment's output back to the writer.
type result struct {
	kddcache.ExperimentResult
	err  error
	took time.Duration
}

func main() {
	var (
		scale   = flag.Float64("scale", 0.02, "experiment scale factor (1.0 = paper-sized)")
		out     = flag.String("o", "results", "output directory")
		only    = flag.String("only", "", "name prefix filter, e.g. 'fig' or 'ablation'")
		workers = flag.Int("j", runtime.NumCPU()/2+1, "parallel experiments")
		// Same default as kddsim/kddcheck: 0 selects GOMAXPROCS.
		// The Go scheduler multiplexes -j experiments times -parallel
		// workers onto GOMAXPROCS threads, so oversubscription costs
		// context switches, not correctness; set -parallel 1 to time
		// experiments serially inside each -j slot.
		parallel = flag.Int("parallel", 0, "worker-pool width for experiment simulations; output is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		backend  = flag.String("backend", "kdd", "array backend under the cache for every experiment: kdd (parity RAID + delayed parity) or lsraid (log-structured)")
	)
	flag.Parse()
	kddcache.SetParallelism(*parallel)
	if *backend != "kdd" && *backend != "lsraid" {
		fatal(fmt.Errorf("-backend must be kdd or lsraid, got %q", *backend))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var names []string
	for n := range kddcache.Experiments {
		if *only == "" || strings.HasPrefix(n, *only) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatal(fmt.Errorf("no experiments match prefix %q", *only))
	}
	if *workers < 1 {
		*workers = 1
	}

	// A failed experiment is reported in its slot, so one failure does not
	// cancel the others.
	results, _ := harness.FanOut(*workers, len(names), func(i int) (result, error) {
		start := time.Now()
		res, err := kddcache.Experiments[names[i]](*scale, *backend)
		return result{ExperimentResult: res, err: err, took: time.Since(start)}, nil
	})

	summary, err := os.Create(filepath.Join(*out, "ALL.txt"))
	if err != nil {
		fatal(err)
	}
	defer summary.Close()
	fmt.Fprintf(summary, "kddcache evaluation — scale %.4g — generated %s\n\n",
		*scale, time.Now().Format(time.RFC3339))

	failed := 0
	for i, name := range names {
		r := results[i]
		if r.err != nil {
			failed++
			fmt.Printf("%-22s FAILED: %v\n", name, r.err)
			fmt.Fprintf(summary, "== %s FAILED: %v ==\n\n", name, r.err)
			continue
		}
		fmt.Printf("%-22s %6.1fs\n", name, r.took.Seconds())
		if err := os.WriteFile(filepath.Join(*out, name+".txt"), []byte(r.Text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprint(summary, r.Text+"\n")

		if r.XName != "" {
			var csv bytes.Buffer
			if err := stats.WriteCSV(&csv, r.XName, r.Series); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*out, name+".csv"), csv.Bytes(), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("results in %s/ (ALL.txt has everything)\n", *out)
	if failed > 0 {
		fatal(fmt.Errorf("%d experiment(s) failed", failed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kddfigs:", err)
	os.Exit(1)
}
