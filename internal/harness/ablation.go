package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/stats"
	"kddcache/internal/workload"
)

// Ablation benches for the design decisions DESIGN.md calls out. Each
// config point is an independent simulation, fanned over the worker pool;
// tables are assembled in config order after the pool drains.

// AblationPartition compares KDD's dynamic DAZ/DEZ mixing against a fixed
// partition reserving a share of the sets for deltas (§III-B argues the
// fixed split is hard to size; dynamic adapts to the workload).
func AblationPartition(scale float64, backend string) (string, error) {
	spec := workload.Fin1.Scale(scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 256)
	nsets := int(cachePages / 256)

	all := []struct {
		label   string
		dezSets int
	}{
		{"dynamic", 0},
		{"fixed-6%", nsets * 6 / 100},
		{"fixed-12%", nsets * 12 / 100},
		{"fixed-25%", nsets / 4},
	}
	// Tiny scales can round a fixed share down to zero sets, which would
	// alias the dynamic config; skip those points.
	configs := all[:0]
	for _, c := range all {
		if c.dezSets == 0 && c.label != "dynamic" {
			continue
		}
		configs = append(configs, c)
	}
	results, err := fanOut(len(configs), func(i int) (*Result, error) {
		r, err := runSim(spec, tr, StackOpts{
			Policy: PolicyKDD, Backend: backend, DeltaMean: 0.25,
			CachePages: cachePages, FixedDEZSets: configs[i].dezSets,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation partition %s: %w", configs[i].label, err)
		}
		return r, nil
	})
	if err != nil {
		return "", err
	}
	hit := stats.Series{Label: "hit ratio"}
	wr := stats.Series{Label: "SSD writes(Kpg)"}
	var labels []string
	for i, c := range configs {
		r := results[i]
		hit.X = append(hit.X, float64(i))
		hit.Y = append(hit.Y, r.Cache.HitRatio())
		wr.X = append(wr.X, float64(i))
		wr.Y = append(wr.Y, float64(r.Cache.SSDWrites())/1000)
		labels = append(labels, c.label)
	}
	series := []stats.Series{hit, wr}
	var b strings.Builder
	b.WriteString("== Ablation: dynamic vs fixed DAZ/DEZ partition (Fin1, KDD-25%) ==\n")
	fmt.Fprintf(&b, "configs: %s\n", strings.Join(labels, ", "))
	b.WriteString(stats.Table("partition ablation", "config#", series))
	return b.String(), nil
}

// AblationReclaim compares reclaim scheme 2 (drop old pages — the paper's
// choice) against scheme 1 (re-materialise the latest version as Clean),
// quantifying §III-D's "marginal benefit at the expense of more cache
// writes".
func AblationReclaim(scale float64, backend string) (string, error) {
	spec := workload.Fin1.Scale(scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 256)

	configs := []struct {
		label       string
		materialise bool
	}{{"2:drop", false}, {"1:materialise", true}}
	results, err := fanOut(len(configs), func(i int) (*Result, error) {
		r, err := runSim(spec, tr, StackOpts{
			Policy: PolicyKDD, Backend: backend, DeltaMean: 0.25,
			CachePages: cachePages, ReclaimMaterialize: configs[i].materialise,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation reclaim %s: %w", configs[i].label, err)
		}
		return r, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Ablation: reclaim scheme 2 (drop) vs scheme 1 (materialise) — Fin1, KDD-25% ==\n")
	fmt.Fprintf(&b, "%-14s %12s %16s %12s\n", "scheme", "hit ratio", "SSD writes(Kpg)", "reclaims")
	for i, c := range configs {
		r := results[i]
		fmt.Fprintf(&b, "%-14s %12.4f %16.1f %12d\n",
			c.label, r.Cache.HitRatio(), float64(r.Cache.SSDWrites())/1000, r.Cache.Reclaims)
	}
	return b.String(), nil
}

// AblationMetaLog isolates the circular metadata log's contribution:
// KDD with the log, KDD with metadata persistence disabled (lower bound),
// and LeavO's uncoalesced per-update persistence (upper bound).
func AblationMetaLog(scale float64, backend string) (string, error) {
	spec := workload.Fin1.Scale(scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 256)

	configs := []struct {
		label string
		opts  StackOpts
	}{
		{"KDD circular log", StackOpts{Policy: PolicyKDD, DeltaMean: 0.25, CachePages: cachePages}},
		{"KDD no persistence", StackOpts{Policy: PolicyKDD, DeltaMean: 0.25, CachePages: cachePages, DisableMetaLog: true}},
		{"LeavO per-update", StackOpts{Policy: PolicyLeavO, CachePages: cachePages}},
	}
	results, err := fanOut(len(configs), func(i int) (*Result, error) {
		o := configs[i].opts
		o.Backend = backend
		r, err := runSim(spec, tr, o)
		if err != nil {
			return nil, fmt.Errorf("ablation metalog %s: %w", configs[i].label, err)
		}
		return r, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Ablation: metadata persistence (Fin1) ==\n")
	fmt.Fprintf(&b, "%-22s %14s %14s %12s\n", "config", "meta(Kpg)", "total(Kpg)", "meta share")
	for i, c := range configs {
		r := results[i]
		meta := r.Cache.MetaWrites + r.Cache.MetaGCWrites
		fmt.Fprintf(&b, "%-22s %14.1f %14.1f %11.2f%%\n",
			c.label, float64(meta)/1000, float64(r.Cache.SSDWrites())/1000,
			r.Cache.MetaShare()*100)
	}
	return b.String(), nil
}

// AblationAdmission measures the §V-C extension: a LARC-style selective
// admission filter in front of KDD, which trims one-touch allocation
// writes at some hit-ratio cost.
func AblationAdmission(scale float64, backend string) (string, error) {
	specs, traces, err := synthesizeAll([]workload.Spec{workload.Fin1, workload.Web0}, scale)
	if err != nil {
		return "", err
	}
	modes := []bool{false, true}
	results, err := fanOut(len(specs)*len(modes), func(i int) (*Result, error) {
		spec := specs[i/len(modes)]
		sel := modes[i%len(modes)]
		cachePages := roundWays(int64(0.15*float64(spec.UniqueTotal)), 256)
		r, err := runSim(spec, traces[i/len(modes)], StackOpts{
			Policy: PolicyKDD, Backend: backend, DeltaMean: 0.25,
			CachePages: cachePages, SelectiveAdmission: sel,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation admission: %w", err)
		}
		return r, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Extension: LARC-style selective admission on KDD-25% ==\n")
	fmt.Fprintf(&b, "%-12s %-12s %10s %14s %12s %12s\n",
		"workload", "admission", "hit", "SSD writes", "allocs", "rejects")
	for si, spec := range specs {
		for mi, sel := range modes {
			r := results[si*len(modes)+mi]
			mode := "always"
			if sel {
				mode = "LARC"
			}
			fmt.Fprintf(&b, "%-12s %-12s %10.4f %14d %12d %12d\n",
				spec.Name, mode, r.Cache.HitRatio(), r.Cache.SSDWrites(),
				r.Cache.ReadFills+r.Cache.WriteAllocs, r.Cache.AdmissionRejects)
		}
	}
	return b.String(), nil
}

// LifetimeSummary reports the headline endurance result: SSD write
// traffic per policy on a write-dominant trace and the implied lifetime
// improvement of KDD over LeavO and WT (the paper's "up to 5.1×").
func LifetimeSummary(scale float64, backend string) (string, error) {
	spec := workload.Hm0.Scale(scale)
	tr := workload.Synthesize(spec)
	// "Up to 5.1×" is a best case: it appears at the largest cache sizes,
	// where write hits dominate and LeavO pays a whole page per update.
	cachePages := roundWays(int64(0.8*float64(spec.UniqueTotal)), 256)

	lineup := Policies(false, true, KDDLevels)
	counts, err := fanOut(len(lineup), func(i int) (int64, error) {
		po := lineup[i]
		po.Backend = backend
		po.CachePages = cachePages
		r, err := runSim(spec, tr, po)
		if err != nil {
			return 0, fmt.Errorf("lifetime %s: %w", policyLabel(po), err)
		}
		return r.Cache.SSDWrites(), nil
	})
	if err != nil {
		return "", err
	}
	writes := map[string]int64{}
	order := []string{}
	for i, po := range lineup {
		label := policyLabel(po)
		writes[label] = counts[i]
		order = append(order, label)
	}
	var b strings.Builder
	b.WriteString("== SSD lifetime summary (Hm0) ==\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %12s\n", "policy", "SSD writes", "vs WT", "vs LeavO")
	for _, l := range order {
		fmt.Fprintf(&b, "%-10s %14d %11.2fx %11.2fx\n", l, writes[l],
			stats.Improvement(writes["WT"], writes[l]),
			stats.Improvement(writes["LeavO"], writes[l]))
	}
	return b.String(), nil
}
