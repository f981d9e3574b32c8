package harness

import (
	"container/heap"
	"fmt"

	"kddcache/internal/obs"
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
	res, _, err := replay(st, tr, nil, 0, 0)
	return res, err
}

// retry is a throttled request waiting to be offered again: its trace
// index, the time it comes back and its place among the loop's events
// at that time.
type retry struct {
	at  sim.Time
	seq int
	i   int
}

// retryQueue is a min-heap of retries ordered by (at, seq).
type retryQueue []retry

func (q retryQueue) Len() int { return len(q) }
func (q retryQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].seq < q[b].seq
}
func (q retryQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *retryQueue) Push(x any)   { *q = append(*q, x.(retry)) }
func (q *retryQueue) Pop() any {
	old := *q
	r := old[len(old)-1]
	*q = old[:len(old)-1]
	return r
}

// replay is the one trace loop, single-threaded, one event loop over
// (time, seq): the trace's requests in trace order (request i has seq
// i), merged with the throttled requests waiting in a min-heap for
// their retry time (each retry takes the next seq past the trace). So a
// request is issued to the stack at its own time, never ahead of an
// earlier arrival, and with no controller the heap stays empty and the
// loop walks the trace in order.
//
// Per event: the PerRequest hook (first attempts only), the admission
// gate, the page loop and the latency histograms. Every attempt passes
// ctl.Gate (a nil controller admits everything) with an absolute
// deadline of arrival + deadline (0 disables deadlines) and one token
// charged per request regardless of its page count. A throttled request
// re-enters the heap at its RetryAfter hint and leaves a qos_throttle
// mark on the stack's tracer; a shed one leaves a qos_shed mark.
// Rejected requests are counted by the controller, not failed — only
// engine errors fail the replay. It returns the run result (served
// requests only, latency from original arrival) and one latency
// histogram per tenant tag in [0, tenants).
func replay(st *Stack, tr *trace.Trace, ctl *qos.Controller, deadline sim.Time, tenants int) (*Result, []*stats.Histogram, error) {
	res := &Result{Policy: st.Policy.Name(), Latency: stats.NewHistogram(1 << 16)}
	per := make([]*stats.Histogram, tenants)
	for i := range per {
		per[i] = stats.NewHistogram(1 << 14)
	}
	var tracer *obs.Tracer
	if st.Opts.Obs != nil {
		tracer = st.Opts.Obs.Tracer
	}
	var retries retryQueue
	seq := len(tr.Requests)
	for next := 0; next < len(tr.Requests) || len(retries) > 0; {
		var i int
		var at sim.Time
		if len(retries) > 0 && (next == len(tr.Requests) || retries[0].at < tr.Requests[next].Time) {
			r := heap.Pop(&retries).(retry)
			i, at = r.i, r.at
		} else {
			i, at = next, tr.Requests[next].Time
			next++
			if st.PerRequest != nil {
				st.PerRequest(i)
			}
		}
		req := &tr.Requests[i]
		var dl sim.Time
		if deadline > 0 {
			dl = req.Time + deadline
		}
		d, err := ctl.Gate(at, int(req.Tenant), dl)
		if err != nil {
			switch d.Verdict {
			case qos.VerdictThrottle:
				tracer.Mark(at, obs.PhaseQoSThrottle, req.LBA)
				heap.Push(&retries, retry{at: sim.MaxTime(d.RetryAfter, at+1), seq: seq, i: i})
				seq++
			case qos.VerdictShed:
				tracer.Mark(at, obs.PhaseQoSShed, req.LBA)
			}
			continue
		}

		done := at
		for p := int64(0); p < int64(req.Pages); p++ {
			lba := req.LBA + p
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
		if int(req.Tenant) < len(per) {
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
