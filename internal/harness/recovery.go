package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/core"
	"kddcache/internal/sim"
	"kddcache/internal/workload"
)

// RecoveryTradeoff quantifies §III-B's sizing tension for the metadata
// partition: "configuring the persistent log with more metadata pages can
// reduce the cleaning cost at the expense of crash recovery performance."
// For each partition size it replays a workload on the timing stack,
// crashes, and measures both the metadata GC traffic and the virtual time
// the recovery scan takes (reading every live log page from flash).
func RecoveryTradeoff(scale float64, backend string) (string, error) {
	spec := workload.Fin1.Scale(scale)
	tr := workload.Synthesize(spec)
	cachePages := roundWays(int64(0.2*float64(spec.UniqueTotal)), 256)

	type tradeoffPoint struct {
		pagesWritten int64
		gcPages      int64
		livePages    int64
		recovery     sim.Time
	}
	fracs := []float64{0.0039, 0.0059, 0.0098, 0.0197, 0.0394}
	points, err := fanOut(len(fracs), func(i int) (tradeoffPoint, error) {
		mf := fracs[i]
		st, err := Build(WideCellOpts(spec, tr, StackOpts{
			Policy: PolicyKDD, Backend: backend, DeltaMean: 0.25,
			CachePages: cachePages, MetaFrac: mf,
			Timing: true, SSDData: true,
		}))
		if err != nil {
			return tradeoffPoint{}, err
		}
		r, err := RunTrace(st, tr)
		if err != nil {
			return tradeoffPoint{}, fmt.Errorf("recovery tradeoff mf=%.4f: %w", mf, err)
		}
		k := st.Policy.(*core.KDD)
		ls := k.Log().Stats()

		// Crash once the run's last request has completed and the SSD
		// has drained the background writes still queued on it, and
		// measure the recovery scan from there: a crash any earlier
		// would charge that leftover queue to the scan.
		crash := sim.MaxTime(r.Duration, st.FlashModel.Drained())
		_, done, err := core.Restore(st.KDDConfig, crash,
			k.Log().Counters(), k.Log().BufferedEntries(), k.Staging())
		if err != nil {
			return tradeoffPoint{}, fmt.Errorf("restore mf=%.4f: %w", mf, err)
		}
		return tradeoffPoint{
			pagesWritten: ls.PagesWritten,
			gcPages:      ls.GCPageEquivalent(),
			livePages:    k.Log().LivePages(),
			recovery:     done - crash,
		}, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Recovery tradeoff: metadata partition size vs GC cost and crash-recovery time ==\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %14s %16s\n",
		"partition", "meta pages", "GC pages", "live log pages", "recovery time")
	for i, mf := range fracs {
		p := points[i]
		fmt.Fprintf(&b, "%11.2f%% %12d %12d %14d %16v\n",
			mf*100, p.pagesWritten, p.gcPages, p.livePages, p.recovery)
	}
	b.WriteString("\nBigger partitions cut GC relogging but lengthen the head-to-tail recovery scan.\n")
	return b.String(), nil
}

// DegradedPerformance measures mean response time in three array states —
// healthy, degraded (one disk lost), and during rebuild — for WT and KDD.
// The paper motivates KDD partly by this cost: "user requests will be
// adversely affected by the re-synchronization of RAID storage" (§II-B).
func DegradedPerformance(scale float64, backend string) (string, error) {
	spec := workload.Fin2.Scale(scale)
	spec.MeanIOPS = 100
	tr := workload.Synthesize(spec)
	cachePages := quarterCache(spec)

	// Split the trace into three equal phases.
	third := len(tr.Requests) / 3

	type degradedRow struct {
		name                    string
		healthy, degraded, post float64
	}
	kinds := []PolicyKind{PolicyWT, PolicyKDD}
	rows, err := fanOut(len(kinds), func(i int) (degradedRow, error) {
		pk := kinds[i]
		st, err := Build(WideCellOpts(spec, tr, StackOpts{
			Policy: pk, Backend: backend, DeltaMean: 0.25,
			CachePages: cachePages,
			Timing:     true,
		}))
		if err != nil {
			return degradedRow{}, err
		}
		phase := func(reqs int, from int) (float64, sim.Time, error) {
			cp := *tr
			cp.Requests = tr.Requests[from : from+reqs]
			r, err := RunTrace(st, &cp)
			if err != nil {
				return 0, 0, err
			}
			return r.MeanResponseMs(), r.Duration, nil
		}
		healthy, end1, err := phase(third, 0)
		if err != nil {
			return degradedRow{}, err
		}
		st.Array.FailDisk(2)
		if _, err := st.Policy.Flush(end1); err != nil {
			return degradedRow{}, err
		}
		degraded, end2, err := phase(third, third)
		if err != nil {
			return degradedRow{}, err
		}
		// Rebuild onto a fresh disk, then measure the final phase.
		fresh := st.FreshMember()
		if _, err := st.Array.ReplaceDisk(end2, 2, fresh); err != nil {
			return degradedRow{}, fmt.Errorf("%s rebuild: %w", pk, err)
		}
		post, _, err := phase(len(tr.Requests)-2*third, 2*third)
		if err != nil {
			return degradedRow{}, err
		}
		return degradedRow{name: st.Policy.Name(), healthy: healthy, degraded: degraded, post: post}, nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Degraded-mode performance: mean response time (ms) by array state ==\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %14s\n", "policy", "healthy", "degraded", "post-rebuild")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s %12.2f %12.2f %14.2f\n", row.name, row.healthy, row.degraded, row.post)
	}
	b.WriteString("\nDegraded reads pay full-row reconstruction; caching absorbs part of the hit.\n")
	return b.String(), nil
}
