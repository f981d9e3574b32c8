package harness

import (
	"fmt"

	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// Result carries everything a figure needs from one run.
type Result struct {
	Policy   string
	Cache    *stats.CacheStats
	Latency  *stats.Histogram // response times in ns (timing runs)
	Duration sim.Time         // virtual time of the last completion
}

// MeanResponseMs returns the mean response time in milliseconds.
func (r *Result) MeanResponseMs() float64 {
	return r.Latency.Mean() / float64(sim.Millisecond)
}

// RunTrace replays a trace through the stack open-loop: requests are
// issued at their recorded timestamps regardless of completions, matching
// the paper's RAIDmeter replay.
func RunTrace(st *Stack, tr *trace.Trace) (*Result, error) {
	res, _, err := replay(st, tr, nil, 0)
	return res, err
}

// replay is the one trace loop, single-threaded in timestamp order: the
// PerRequest hook, the admission gate, the page loop and the latency
// histograms. Every request passes ctl.Gate (a nil controller admits
// everything) with an absolute deadline of arrival + deadline (0
// disables deadlines) and one token charged per request regardless of
// its page count. What the replay adds to the gate is the
// retry: a throttled request is re-offered at its RetryAfter hint until
// admitted, shed, or past its deadline; rejected requests are counted by
// the controller, not failed — only engine errors fail the replay. It
// returns the run result (served requests only, latency from original
// arrival) and one latency histogram per controller tenant.
func replay(st *Stack, tr *trace.Trace, ctl *qos.Controller, deadline sim.Time) (*Result, []*stats.Histogram, error) {
	res := &Result{Policy: st.Policy.Name(), Latency: stats.NewHistogram(1 << 16)}
	var per []*stats.Histogram
	if ctl != nil {
		per = make([]*stats.Histogram, ctl.Tenants())
		for i := range per {
			per[i] = stats.NewHistogram(1 << 14)
		}
	}
	for i, req := range tr.Requests {
		if st.PerRequest != nil {
			st.PerRequest(i)
		}
		at := req.Time
		var dl sim.Time
		if deadline > 0 {
			dl = req.Time + deadline
		}
		d, err := ctl.Gate(at, req.Tenant, dl)
		for err != nil && d.Verdict == qos.VerdictThrottle {
			at = sim.MaxTime(d.RetryAfter, at+1)
			d, err = ctl.Gate(at, req.Tenant, dl)
		}
		if err != nil {
			continue
		}

		done := at
		for p := 0; p < req.Pages; p++ {
			lba := req.LBA + int64(p)
			c, err := st.Serve(at, lba, nil, req.Op != trace.Read, d.Verdict != qos.VerdictBypass)
			if err != nil {
				return nil, nil, fmt.Errorf("%s lba %d: %w", req.Op, lba, err)
			}
			if c > done {
				done = c
			}
		}
		lat := int64(done - req.Time)
		res.Latency.Observe(lat)
		if req.Tenant >= 0 && req.Tenant < len(per) {
			per[req.Tenant].Observe(lat)
		}
		if done > res.Duration {
			res.Duration = done
		}
	}
	res.Cache = st.Policy.Stats()
	return res, per, nil
}

// RunClosedLoop drives the FIO-style benchmark: spec.Threads workers each
// issue their next request the moment the previous one completes
// ("requests are generated back to back with a limited request queue",
// §IV-B1).
func RunClosedLoop(st *Stack, spec workload.FIOSpec) (*Result, error) {
	gen := workload.NewFIOGen(spec)
	res := &Result{Policy: st.Policy.Name(), Latency: stats.NewHistogram(1 << 16)}
	free := make([]sim.Time, spec.Threads)
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		// Pick the earliest-free thread.
		th := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[th] {
				th = i
			}
		}
		start := free[th]
		var done sim.Time
		var err error
		if req.Op == trace.Read {
			done, err = st.Policy.Read(start, req.LBA, nil)
		} else {
			done, err = st.Policy.Write(start, req.LBA, nil)
		}
		if err != nil {
			return nil, err
		}
		free[th] = done
		res.Latency.Observe(int64(done - start))
		if done > res.Duration {
			res.Duration = done
		}
	}
	res.Cache = st.Policy.Stats()
	return res, nil
}

// Policies returns the evaluation's policy lineup for a figure. KDD
// appears once per content-locality level when levels is non-empty.
func Policies(withNossd, withWA bool, kddLevels []float64) []StackOpts {
	var out []StackOpts
	if withNossd {
		out = append(out, StackOpts{Policy: PolicyNossd})
	}
	if withWA {
		out = append(out, StackOpts{Policy: PolicyWA})
	}
	out = append(out, StackOpts{Policy: PolicyWT}, StackOpts{Policy: PolicyLeavO})
	for _, m := range kddLevels {
		out = append(out, StackOpts{Policy: PolicyKDD, DeltaMean: m})
	}
	return out
}
