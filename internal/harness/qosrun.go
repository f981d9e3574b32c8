package harness

import (
	"fmt"

	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
)

// QoSTenantResult is one tenant's outcome of a controller-gated replay.
type QoSTenantResult struct {
	Name string
	qos.Counters
	Latency *stats.Histogram // served requests only, from original arrival
}

// QoSResult is a full controller-gated replay: the usual run result
// (served requests only) plus the per-tenant admission breakdown.
type QoSResult struct {
	Run     *Result
	Tenants []QoSTenantResult
}

// RunTraceQoS is RunTrace with every request gated by the admission
// controller (the kddsim -tenants path): the same replay loop, plus the
// per-tenant admission breakdown. deadline is each request's margin
// after arrival (0 disables deadlines). On a KDD stack a bypass-rung
// verdict serves the request with cache admission suspended; other
// policies have no admission to suspend and serve it normally.
func RunTraceQoS(st *Stack, tr *trace.Trace, ctl *qos.Controller, deadline sim.Time) (*QoSResult, error) {
	if ctl == nil {
		return nil, fmt.Errorf("harness: RunTraceQoS needs a controller")
	}
	res, per, err := replay(st, tr, ctl, deadline, ctl.Tenants())
	if err != nil {
		return nil, err
	}
	out := &QoSResult{Run: res}
	for i, c := range ctl.Snapshot() {
		out.Tenants = append(out.Tenants, QoSTenantResult{
			Name: ctl.Name(i), Counters: c, Latency: per[i],
		})
	}
	return out, nil
}
