package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/sim"
	"kddcache/internal/workload"
)

// LSRaidResult is the structured form of the backend head-to-head:
// small-write response times and member write amplification for the
// parity backend versus the log-structured backend, both under the same
// KDD cache and the same seeded write-dominant trace. Virtual-time
// deterministic, so the numbers are stable gate inputs.
type LSRaidResult struct {
	Table       string
	KddMeanMs   float64
	LsMeanMs    float64
	KddP99Ms    float64
	LsP99Ms     float64
	KddWriteAmp float64 // member page writes per user page written
	LsWriteAmp  float64
	LsGCCopies  int64
	LsGCSegs    int64
}

// LSRaidCompareSweep runs the head-to-head and returns the structured
// result. The workload is Fin1 — the paper's write-dominant OLTP trace,
// the small-write worst case parity RAID pays RMW for: the kdd arm
// repays parity through the delayed-parity protocol, the lsraid arm
// absorbs the same writes as full-stripe log appends and pays with
// segment GC copy-forward instead.
// It builds both arms whatever e's backend.
func LSRaidCompareSweep(e Env) (LSRaidResult, error) {
	spec := workload.Fin1.Scale(e.Scale)
	// Open-loop replay: keep the arrival rate below the parity arm's
	// RMW-limited service rate so the comparison measures per-request
	// cost, not queueing collapse.
	spec.MeanIOPS = 120
	tr := workload.Synthesize(spec)
	userWrites := tr.Stats().WritePages
	cachePages := roundWays(int64(0.2*float64(spec.UniqueTotal)), 256)
	// Size the array so the write volume wraps the log roughly twice:
	// the lsraid arm then pays its real steady-state GC copy-forward
	// cost instead of filling virgin segments for the whole run.
	diskPages := spec.UniqueTotal/4 + 2048
	diskPages -= diskPages % 32

	type row struct {
		name     string
		mean     float64
		p99      float64
		writeAmp float64
		gcCopies int64
		gcSegs   int64
	}
	backends := []string{"kdd", "lsraid"}
	rows, err := FanOut(e.Parallel, len(backends), func(i int) (row, error) {
		st, err := Build(StackOpts{
			Policy: PolicyKDD, Backend: backends[i], DeltaMean: 0.25,
			CachePages: cachePages, DiskPages: diskPages,
			Timing: true, Seed: spec.Seed,
		})
		if err != nil {
			return row{}, err
		}
		res, err := RunTrace(st, tr)
		if err != nil {
			return row{}, err
		}
		if _, err := st.Policy.Flush(res.Duration); err != nil {
			return row{}, err
		}
		rs := st.Array.Stats()
		// Member page writes: the parity engine issues user data through
		// WriteNoParity (NoParityWr) and parity repayments separately;
		// the log engine counts committed member pages in DataWrites and
		// ParityWrites directly (NoParityWr there tracks protocol
		// acceptances, not member I/O — adding it would double count).
		memberWrites := rs.DataWrites + rs.ParityWrites
		if backends[i] == "kdd" {
			memberWrites += rs.NoParityWr
		}
		return row{
			name:     backends[i],
			mean:     res.MeanResponseMs(),
			p99:      float64(res.Latency.Percentile(99)) / float64(sim.Millisecond),
			writeAmp: float64(memberWrites) / float64(userWrites),
			gcCopies: rs.GCCopies,
			gcSegs:   rs.GCSegments,
		}, nil
	})
	if err != nil {
		return LSRaidResult{}, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Backend head-to-head: %s (small-write worst case) ==\n", spec.Name)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %12s %10s\n",
		"backend", "mean ms", "p99 ms", "write amp", "gc copies", "gc segs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.3f %10.3f %10.3f %12d %10d\n",
			r.name, r.mean, r.p99, r.writeAmp, r.gcCopies, r.gcSegs)
	}
	out := LSRaidResult{
		Table:       b.String(),
		KddMeanMs:   rows[0].mean,
		LsMeanMs:    rows[1].mean,
		KddP99Ms:    rows[0].p99,
		LsP99Ms:     rows[1].p99,
		KddWriteAmp: rows[0].writeAmp,
		LsWriteAmp:  rows[1].writeAmp,
		LsGCCopies:  rows[1].gcCopies,
		LsGCSegs:    rows[1].gcSegs,
	}
	return out, nil
}

// LSRaidCompare is the registry entry point returning the formatted
// table.
func LSRaidCompare(e Env) (Output, error) {
	r, err := LSRaidCompareSweep(e)
	return Output{Text: r.Table}, err
}
