package harness

import (
	"fmt"
	"slices"
	"strings"

	"kddcache/internal/workload"
)

// Motivation reproduces the paper's §I argument against NVRAM buffering:
// with random small writes, an NVRAM write buffer rarely assembles full
// stripes, so once it fills, write latency collapses to RAID small-write
// speed — while KDD's SSD-sized cache keeps absorbing hits. Also includes
// write-back (WB) to show its latency floor (and its §IV-A1 exclusion is
// demonstrated in the cache package's tests). Parity logging (PLog) runs
// only over the kdd backend: the lsraid array owes no parity to log.
func Motivation(scale float64, backend string) (string, error) {
	spec := workload.Fin1.Scale(scale)
	spec.MeanIOPS = 80
	tr := workload.Synthesize(spec)
	cachePages := quarterCache(spec)

	configs := []struct {
		label string
		opts  StackOpts
	}{
		// NVRAM sizes scale with the footprint like everything else: real
		// arrays pair MBs of NVRAM with TBs of storage, so the buffer
		// covers well under 1% of the working set.
		{"Nossd", StackOpts{Policy: PolicyNossd}},
		{"PLog", StackOpts{Policy: PolicyPLog, PLogPages: spec.UniqueTotal / 2}},
		{"NVB-0.5%", StackOpts{Policy: PolicyNVB, NVBPages: int(spec.UniqueTotal / 200)}},
		{"NVB-2%", StackOpts{Policy: PolicyNVB, NVBPages: int(spec.UniqueTotal / 50)}},
		{"WB", StackOpts{Policy: PolicyWB, CachePages: cachePages}},
		{"KDD", StackOpts{Policy: PolicyKDD, DeltaMean: 0.25, CachePages: cachePages}},
	}
	// configs[1], PLog, is Build's ErrOptions on lsraid.
	plog := backend != "lsraid"
	if !plog {
		configs = slices.Delete(configs, 1, 2)
	}
	results, err := fanOut(len(configs), func(i int) (*Result, error) {
		o := WideCellOpts(spec, tr, configs[i].opts)
		o.Backend = backend
		o.Timing = true
		if o.CachePages == 0 {
			o.CachePages = cachePages // unused by Nossd/NVB but keeps SSD sizing valid
		}
		st, err := Build(o)
		if err != nil {
			return nil, err
		}
		r, err := RunTrace(st, tr)
		if err != nil {
			return nil, fmt.Errorf("motivation %s: %w", configs[i].label, err)
		}
		return r, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Motivation (§I): why NVRAM buffering is not enough ==\n")
	fmt.Fprintf(&b, "%-14s %14s %14s %16s\n", "policy", "mean (ms)", "p95 (ms)", "RMW-free writes")
	for i, c := range configs {
		r := results[i]
		fmt.Fprintf(&b, "%-14s %14.2f %14.2f %16d\n",
			c.label, r.MeanResponseMs(),
			float64(r.Latency.Percentile(95))/1e6, r.Cache.SmallWritesSaved)
	}
	b.WriteString("\nNVB (§I) helps only marginally: poor disk-level locality keeps full stripes\n")
	if !plog {
		b.WriteString("rare, so sustained writes still pay the small-write penalty. WB has a low\n")
		b.WriteString("mean but loses data on SSD failure. KDD adds an SSD-sized read cache,\n")
		b.WriteString("RPO-0 durability, and flash wear control.\n")
		return b.String(), nil
	}
	b.WriteString("rare, so sustained writes still pay the small-write penalty. Parity logging\n")
	fmt.Fprintf(&b, "(§V-A) fixes writes (%.2fx over Nossd) but caches no reads and keeps its\n",
		results[0].MeanResponseMs()/results[1].MeanResponseMs())
	b.WriteString("update images in RAM. WB has a low mean but loses data on SSD failure.\n")
	b.WriteString("KDD matches PLog's write relief while adding an SSD-sized read cache,\n")
	b.WriteString("RPO-0 durability, and flash wear control.\n")
	return b.String(), nil
}
