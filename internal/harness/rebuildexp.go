package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// RebuildImpact measures the rebuild-window tension behind §III-E: how
// fast the array regains full redundancy after a member fail-stop versus
// what the reconstruction traffic does to foreground tail latency. The
// KDD stack parks a hot spare and lets the engine's rebuild pump pace
// the rebuild between requests (eight rows when the disks were idle, one
// row under foreground RAID pressure); the Nossd baseline has no engine
// to pace it — the unpaced baseline — and drives Array.RebuildStep at
// a fixed nossdRebuildRows rows after every request. One third into the
// trace a member dies; the table compares per-phase p99 response times
// and their ratio, the time from failure to a fully redundant array, and
// the rows reconstructed while foreground requests were in flight.
func RebuildImpact(e Env) (Output, error) {
	spec := workload.Fin2.Scale(e.Scale)
	spec.MeanIOPS = 100
	rows, err := rebuildImpact(e, spec)
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	b.WriteString("== Rebuild impact: time to full redundancy vs foreground tail latency ==\n")
	fmt.Fprintf(&b, "%-8s %16s %16s %15s %16s %10s %11s\n",
		"policy", "healthy p99 (ms)", "rebuild p99 (ms)", "rebuild/healthy", "rebuild time", "fg rows", "drain rows")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s %16.2f %16.2f %14.2fx %16v %10d %11d\n",
			row.name, row.healthyP99, row.rbP99, row.rbP99/row.healthyP99, row.rebuild, row.fgRows, row.drainRows)
	}
	return Output{Text: b.String()}, nil
}

// impactRow is one policy's line of the rebuild-impact table.
type impactRow struct {
	name              string
	healthyP99, rbP99 float64 // per-phase p99 response (ms)
	rebuild           sim.Time
	fgRows, drainRows int64
}

// nossdRebuildRows is how many rows the cache-less baseline's fixed-rate
// driver rebuilds after each request.
const nossdRebuildRows = 8

// rebuildImpact replays spec's trace through the Nossd and KDD stacks on
// e's backend with a member failing a third of the way in, and returns
// one row each.
func rebuildImpact(e Env, spec workload.Spec) ([]impactRow, error) {
	tr := workload.Synthesize(spec)
	cachePages := quarterCache(spec)
	failAt := len(tr.Requests) / 3

	kinds := []PolicyKind{PolicyNossd, PolicyKDD}
	return FanOut(e.Parallel, len(kinds), func(ki int) (impactRow, error) {
		pk := kinds[ki]
		o := WideCellOpts(spec, tr, StackOpts{
			Policy: pk, Backend: e.Backend, DeltaMean: 0.25,
			CachePages: cachePages,
			Timing:     true,
		})
		if pk == PolicyKDD {
			o.Spares = 1
		}
		st, err := Build(o)
		if err != nil {
			return impactRow{}, err
		}
		healthy := stats.NewHistogram(1 << 14)
		during := stats.NewHistogram(1 << 14)
		var failTime, redundantAt, end sim.Time
		rebuilt := false
		for i, req := range tr.Requests {
			if i == failAt {
				st.Array.FailDisk(2)
				failTime = req.Time
				if pk != PolicyKDD {
					// No cache engine: repair any stale parity first (a
					// no-op for Nossd, kept for policy generality) and open
					// the rebuild window directly onto a fresh member.
					if _, err := st.Policy.Flush(req.Time); err != nil {
						return impactRow{}, fmt.Errorf("%s pre-rebuild flush: %w", pk, err)
					}
					if _, err := st.Array.StartRebuild(req.Time, 2, st.FreshMember()); err != nil {
						return impactRow{}, fmt.Errorf("%s start rebuild: %w", pk, err)
					}
				}
			}
			done := req.Time
			for p := int64(0); p < int64(req.Pages); p++ {
				var c sim.Time
				var err error
				if req.Op == trace.Read {
					c, err = st.Policy.Read(req.Time, req.LBA+p, nil)
				} else {
					c, err = st.Policy.Write(req.Time, req.LBA+p, nil)
				}
				if err != nil {
					return impactRow{}, fmt.Errorf("%s %s lba %d: %w", pk, req.Op, req.LBA+p, err)
				}
				if c > done {
					done = c
				}
			}
			if pk != PolicyKDD && i >= failAt && st.Array.RebuildActive() {
				// Fixed-rate driver for the cache-less baseline.
				c, _, _, err := st.Array.RebuildStep(done, nossdRebuildRows)
				if err != nil {
					return impactRow{}, fmt.Errorf("%s rebuild step: %w", pk, err)
				}
				if c > done {
					done = c
				}
			}
			switch {
			case i < failAt:
				healthy.Observe(int64(done - req.Time))
			case !rebuilt:
				during.Observe(int64(done - req.Time))
			}
			if done > end {
				end = done
			}
			if i >= failAt && !rebuilt && !st.Array.RebuildActive() && len(st.Array.FailedDisks()) == 0 {
				rebuilt = true
				redundantAt = done
			}
		}
		fgRows := st.Array.Stats().RebuildRows
		if !rebuilt {
			// The trace ended inside the window (or, for a very short
			// trace, before the pump could attach the spare): drain the
			// rebuild at full speed and charge the remainder to the clock.
			if _, err := st.Policy.Flush(end); err != nil {
				return impactRow{}, fmt.Errorf("%s drain flush: %w", pk, err)
			}
			if !st.Array.RebuildActive() {
				if _, _, err := st.Array.StartSpareRebuild(end); err != nil {
					return impactRow{}, fmt.Errorf("%s drain spare attach: %w", pk, err)
				}
			}
			if end, err = st.Array.DrainRebuild(end); err != nil {
				return impactRow{}, fmt.Errorf("%s drain rebuild: %w", pk, err)
			}
			rebuilt = true
			redundantAt = end
		}
		return impactRow{
			name:       st.Policy.Name(),
			healthyP99: float64(healthy.Percentile(99)) / float64(sim.Millisecond),
			rbP99:      float64(during.Percentile(99)) / float64(sim.Millisecond),
			rebuild:    redundantAt - failTime,
			fgRows:     fgRows,
			drainRows:  st.Array.Stats().RebuildRows - fgRows,
		}, nil
	})
}
