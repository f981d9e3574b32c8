package harness

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"kddcache/internal/stats"
)

// This file implements the deterministic fan-out runner every experiment
// driver is built on. An experiment is a set of fully independent jobs —
// one (workload × policy × sweep point) simulation each, every job
// building its own stack, devices, and RNG streams from StackOpts.Seed —
// so they can execute concurrently on a bounded worker pool while the
// rendered tables and CSVs stay byte-identical to a serial run: results
// are collected into a slice indexed by submission order, and all
// assembly/formatting happens after the pool drains.
//
// Error semantics: the first failure observed cancels all not-yet-started
// jobs; jobs already in flight run to completion. After the pool drains,
// the error of the lowest-numbered failed job is returned, which is the
// same error a serial run would report whenever a single job is at fault.

// Env is what every experiment runs in. Scale shrinks the experiment
// proportionally — footprints, request counts and cache sizes, so the
// curves keep their shape; 1.0 is paper-sized. Backend is the array its
// stacks are built on ("kdd" or "lsraid"; empty means kdd), and Parallel
// is the worker-pool width its jobs fan out on (<= 0 selects
// GOMAXPROCS). The output is byte-identical at any width.
type Env struct {
	Scale    float64
	Backend  string
	Parallel int
}

// Check reports an Env no experiment can run in — a scale that is not a
// positive finite number, or an unknown backend — wrapping ErrOptions.
func (e Env) Check() error {
	switch {
	case !(e.Scale > 0) || math.IsInf(e.Scale, 1):
		return fmt.Errorf("%w: scale %g is not a positive finite number", ErrOptions, e.Scale)
	case e.Backend != "" && e.Backend != "kdd" && e.Backend != "lsraid":
		return fmt.Errorf("%w: unknown backend %q", ErrOptions, e.Backend)
	}
	return nil
}

// Output is one run of an experiment: the formatted table the paper's
// figure or table corresponds to and, for the experiments that produce
// plottable series, the x-axis name and the series (XName is "" when
// there are none).
type Output struct {
	Text   string
	XName  string
	Series []stats.Series
}

// FanOut runs n independent jobs f(0..n-1) on a pool of at most parallel
// workers (parallel <= 0 selects GOMAXPROCS) and returns their results in
// index order. Jobs must be self-contained: they may share read-only
// inputs (a synthesized trace, a workload spec slice) but must not write
// to anything another job reads. The crash-consistency checker fans its
// per-fault-site replay runs out on it too.
func FanOut[T any](parallel, n int, f func(i int) (T, error)) ([]T, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	out := make([]T, n)
	if parallel <= 1 {
		// Serial fast path: identical scheduling to the pre-parallel
		// drivers, stopping at the first error.
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := f(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
