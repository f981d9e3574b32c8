package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/workload"
)

// Parameter-sensitivity experiments for the simulator knobs §IV-A1 lists
// ("cache size, page size, cache associativity, NVRAM buffer size, etc.").

// AblationAssociativity sweeps the set associativity. Higher associativity
// approaches global LRU (better hit ratios, slower lookups in real HW);
// the stripe-aligned mapping needs sets at least as large as a stripe.
func AblationAssociativity(e Env) (Output, error) {
	spec := workload.Fin1.Scale(e.Scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 1024)

	waySizes := []int{32, 64, 256, 1024}
	results, err := FanOut(e.Parallel, len(waySizes), func(i int) (*Result, error) {
		r, err := runSim(spec, tr, StackOpts{
			Policy: PolicyKDD, Backend: e.Backend, DeltaMean: 0.25,
			CachePages: cachePages, Ways: waySizes[i],
		})
		if err != nil {
			return nil, fmt.Errorf("associativity %d: %w", waySizes[i], err)
		}
		return r, nil
	})
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	b.WriteString("== Parameter sweep: set associativity (Fin1, KDD-25%) ==\n")
	fmt.Fprintf(&b, "%-8s %10s %14s %12s\n", "ways", "hit", "SSD writes", "evictions")
	for i, ways := range waySizes {
		r := results[i]
		fmt.Fprintf(&b, "%-8d %10.4f %14d %12d\n",
			ways, r.Cache.HitRatio(), r.Cache.SSDWrites(), r.Cache.Evictions)
	}
	return Output{Text: b.String()}, nil
}

// AblationStaging sweeps the NVRAM staging buffer size: a larger buffer
// coalesces more deltas before each DEZ commit (fewer, denser delta
// pages) at the cost of more battery-backed RAM.
func AblationStaging(e Env) (Output, error) {
	spec := workload.Fin1.Scale(e.Scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 256)

	type stagingPoint struct {
		deltaCommits int64
		ssdWrites    int64
		coalesced    int64
	}
	sizes := []int{1, 4, 16, 64}
	points, err := FanOut(e.Parallel, len(sizes), func(i int) (stagingPoint, error) {
		st, err := Build(CellOpts(spec, tr, StackOpts{Policy: PolicyKDD, Backend: e.Backend, CachePages: cachePages}))
		if err != nil {
			return stagingPoint{}, err
		}
		// StackOpts leaves the staging buffer at core's default: swap in an
		// engine over the same devices with the point's staging size.
		st.KDDConfig.StagingBytes = sizes[i] * blockdev.PageSize
		k, err := core.New(st.KDDConfig)
		if err != nil {
			return stagingPoint{}, err
		}
		st.Policy = k
		r, err := RunTrace(st, tr)
		if err != nil {
			return stagingPoint{}, fmt.Errorf("staging %d: %w", sizes[i], err)
		}
		if _, err := k.Flush(r.Duration); err != nil {
			return stagingPoint{}, err
		}
		return stagingPoint{
			deltaCommits: k.Stats().DeltaCommits,
			ssdWrites:    k.Stats().SSDWrites(),
			coalesced:    k.Staging().Coalesced,
		}, nil
	})
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	b.WriteString("== Parameter sweep: NVRAM staging buffer (Fin1, KDD-25%) ==\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %12s\n", "staging", "DEZ commits", "SSD writes", "coalesced")
	for i, pages := range sizes {
		fmt.Fprintf(&b, "%-12s %14d %14d %12d\n",
			fmt.Sprintf("%dKB", pages*4),
			points[i].deltaCommits, points[i].ssdWrites, points[i].coalesced)
	}
	b.WriteString("\nBigger buffers coalesce more repeat updates before committing a DEZ page.\n")
	return Output{Text: b.String()}, nil
}
