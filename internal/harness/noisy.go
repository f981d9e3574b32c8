package harness

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// The noisy-neighbor experiment measures what the QoS layer buys: one
// tenant floods at 10x its budget while two in-budget victims keep
// working, and the question is how far the victims' p99 moves from the
// p99 they see with the aggressor absent.
//
// Three arms, identical except for the aggressor and the controller:
//
//	isolated     victims only, QoS on  — the baseline p99
//	protected    all tenants,  QoS on  — the isolation claim
//	unprotected  all tenants,  QoS off — the damage being prevented
//
// Every arm replays one tenant-tagged trace through the timing stack of
// Fig. 9 (KDD-25 % over five HDD members, on the backend the caller
// names) in the one replay loop every trace runs through, so latency is
// device time: without QoS the victims queue behind the aggressor's
// misses at the member disks. A throttled request re-enters the loop at
// its retry time; latency is always measured from the original arrival,
// and every request carries deadline = arrival + nnDeadline, so a
// request still throttled past it dies with ErrDeadlineExceeded instead
// of retrying forever. Per-tenant histograms come from the trace's
// tenant tags, so the unprotected arm runs with no controller at all.
const (
	// nnDeadline is each request's deadline margin past its arrival.
	nnDeadline = 5 * sim.Millisecond

	// nnWindow is the controller's hysteresis window: the aggressor
	// walks the ladder (throttle -> shed -> bypass) within four windows.
	nnWindow = 800 * sim.Millisecond

	// nnFoot is each tenant's footprint in pages; tenants are disjoint.
	nnFoot = 8192

	// nnGate is the isolation budget: the victims' p99 may move at most
	// this far over the isolated arm's with QoS on.
	nnGate = 2.0
)

// nnTenantSpec is the tenant sheet, deliberately routed through the
// production flag parser. Each victim gets 30 IOPS (burst 8) at weights
// 4 and 2; the aggressor gets 20 IOPS at weight 1, so under sustained
// overload it demotes first.
const nnTenantSpec = "victim-a:30:4:8,victim-b:30:2:8,aggressor:20:1"

// nnOffered is each tenant's offered rate (IOPS). Victims run inside
// their budgets; the aggressor floods at 10x its budget.
var nnOffered = []float64{20, 20, 200}

// nnArm is one experiment arm.
type nnArm struct {
	name      string
	aggressor bool // include the flooding tenant's stream
	protected bool // attach the QoS controller
}

var nnArms = []nnArm{
	{name: "isolated", aggressor: false, protected: true},
	{name: "protected", aggressor: true, protected: true},
	{name: "unprotected", aggressor: true, protected: false},
}

// nnTenantOut is one tenant's outcome in one arm.
type nnTenantOut struct {
	qos.Counters
	P99  sim.Time
	Mean sim.Time
}

// nnArmOut is one arm's full outcome.
type nnArmOut struct {
	tenants []nnTenantOut
	aggRung int // aggressor's final ladder rung (protected arms)
}

// NoisyResult is the full experiment: the rendered table, plottable
// per-tenant p99 series, and the ratios the bench gate consumes.
type NoisyResult struct {
	Table  string
	Series []stats.Series

	// VictimP99Ratio is max over victims of protected-p99/isolated-p99:
	// the interference the QoS layer lets through. Gated <= 2x.
	VictimP99Ratio float64

	// UnprotectedRatio is the same ratio with QoS off — the damage the
	// layer prevents. Must exceed VictimP99Ratio for the story to hold.
	UnprotectedRatio float64

	// Aggressor outcomes in the protected arm.
	AggThrottled, AggShed, AggBypassed, AggDeadline int64
	AggRung                                         int
}

// noisyTrace merges the arm's per-tenant open-loop streams, each cut at
// dur so every tenant offers load to the end of the run.
func noisyTrace(arm nnArm, specs []qos.TenantSpec, dur sim.Time) *trace.Trace {
	var streams []*trace.Trace
	for i, spec := range specs {
		if i == 2 && !arm.aggressor {
			break
		}
		s := workload.OpenLoop{
			Name:        spec.Name,
			Clients:     8,
			OfferedIOPS: nnOffered[i],
			// Twice the expected count: the cut, not the stream's end,
			// decides where the run stops.
			Requests:  2 * int64(nnOffered[i]*dur.Seconds()),
			Footprint: nnFoot,
			LBABase:   int64(i) * nnFoot,
			ReadRatio: 0.7,
			Theta:     0.9,
			Seed:      0x9057 + uint64(i),
			Tenant:    uint16(i),
		}.Generate()
		s.Requests = s.Requests[:sort.Search(len(s.Requests), func(j int) bool { return s.Requests[j].Time >= dur })]
		streams = append(streams, s)
	}
	return workload.MergeTenants("noisy-"+arm.name, streams...)
}

// noisyArm runs one arm on backend for dur of virtual time and returns
// per-tenant outcomes. Deterministic: the replay is one event loop in
// virtual time.
func noisyArm(arm nnArm, backend string, dur sim.Time) (nnArmOut, error) {
	specs, err := qos.ParseTenants(nnTenantSpec)
	if err != nil {
		return nnArmOut{}, err
	}
	var ctl *qos.Controller
	if arm.protected {
		ctl, err = qos.NewController(qos.Config{Tenants: specs, Window: nnWindow})
		if err != nil {
			return nnArmOut{}, err
		}
	}
	foot := int64(len(specs)) * nnFoot
	st, err := Build(StackOpts{
		Policy:     PolicyKDD,
		Backend:    backend,
		DeltaMean:  0.25,
		CachePages: roundWays(foot/4, 256),
		DiskPages:  roundWays(foot/4+4096, 16),
		Timing:     true,
		Seed:       0x9057,
	})
	if err != nil {
		return nnArmOut{}, err
	}
	res, per, err := replay(st, noisyTrace(arm, specs, dur), ctl, nnDeadline, len(specs))
	if err != nil {
		return nnArmOut{}, fmt.Errorf("noisy-neighbor %s: %w", arm.name, err)
	}
	if ctl != nil && !ctl.Conserved(res.Duration) {
		return nnArmOut{}, fmt.Errorf("noisy-neighbor %s: token-bucket conservation violated", arm.name)
	}

	out := nnArmOut{tenants: make([]nnTenantOut, len(specs))}
	for i, h := range per {
		t := &out.tenants[i]
		if ctl != nil {
			t.Counters = ctl.Snapshot()[i]
		} else {
			t.Offered, t.Admitted = h.Count(), h.Count()
		}
		t.P99 = sim.Time(h.Percentile(99))
		t.Mean = sim.Time(int64(h.Mean()))
	}
	if ctl != nil {
		out.aggRung = ctl.Rung(2)
	}
	return out, nil
}

// NoisyNeighborSweep runs all three arms on backend. scale sets the
// run's virtual duration (scale 1.0 = 1000 virtual seconds, floored at
// ten hysteresis windows so the ladder always has windows to walk).
func NoisyNeighborSweep(scale float64, backend string) (NoisyResult, error) {
	dur := max(sim.Time(1000*float64(sim.Second)*scale), 10*nnWindow)
	arms, err := fanOut(len(nnArms), func(i int) (nnArmOut, error) {
		return noisyArm(nnArms[i], backend, dur)
	})
	if err != nil {
		return NoisyResult{}, err
	}
	specs, err := qos.ParseTenants(nnTenantSpec)
	if err != nil {
		return NoisyResult{}, err
	}

	ratio := func(armIdx int) float64 {
		worst := 0.0
		for v := 0; v < 2; v++ { // the two victims
			iso := arms[0].tenants[v].P99
			if iso <= 0 {
				continue
			}
			worst = max(worst, float64(arms[armIdx].tenants[v].P99)/float64(iso))
		}
		return worst
	}
	agg := arms[1].tenants[2]
	res := NoisyResult{
		VictimP99Ratio:   ratio(1),
		UnprotectedRatio: ratio(2),
		AggThrottled:     agg.Throttled,
		AggShed:          agg.Shed,
		AggBypassed:      agg.Bypassed,
		AggDeadline:      agg.Deadline,
		AggRung:          arms[1].aggRung,
	}
	for ti, spec := range specs {
		s := stats.Series{Label: spec.Name}
		for ai := range nnArms {
			s.X = append(s.X, float64(ai))
			s.Y = append(s.Y, arms[ai].tenants[ti].P99.Millis())
		}
		res.Series = append(res.Series, s)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Noisy neighbor: per-tenant p99 under a 10x flood, %v virtual run, %s backend ==\n", dur, cmp.Or(backend, "kdd"))
	fmt.Fprintf(&b, "tenants: %s (aggressor offers %.0f IOPS against a %d IOPS budget)\n",
		nnTenantSpec, nnOffered[2], specs[2].RateIOPS)
	fmt.Fprintf(&b, "%-12s %-10s %9s %9s %9s %9s %9s %9s %10s %10s\n",
		"arm", "tenant", "offered", "admitted", "bypassed", "throttled", "shed", "deadline", "p99(ms)", "mean(ms)")
	for ai, arm := range nnArms {
		for ti, spec := range specs {
			t := arms[ai].tenants[ti]
			fmt.Fprintf(&b, "%-12s %-10s %9d %9d %9d %9d %9d %9d %10.2f %10.2f\n",
				arm.name, spec.Name, t.Offered, t.Admitted, t.Bypassed,
				t.Throttled, t.Shed, t.Deadline, t.P99.Millis(), t.Mean.Millis())
		}
	}
	if res.UnprotectedRatio > nnGate {
		fmt.Fprintf(&b, "victim p99 ratio, QoS on  = %.2fx (gate <= %gx)\n", res.VictimP99Ratio, nnGate)
		fmt.Fprintf(&b, "victim p99 ratio, QoS off = %.2fx\n", res.UnprotectedRatio)
	} else {
		fmt.Fprintf(&b, "victim p99 ratio = %.2fx with QoS on, %.2fx with it off (gate <= %gx)\n",
			res.VictimP99Ratio, res.UnprotectedRatio, nnGate)
		b.WriteString("the aggressor does not load this backend's members: there is no interference to isolate\n")
	}
	fmt.Fprintf(&b, "aggressor ladder rung = %d (0 throttle, 1 shed, 2 bypass)\n", res.AggRung)
	res.Table = b.String()
	return res, nil
}

// NoisyNeighbor renders the experiment (the registry entry point).
func NoisyNeighbor(scale float64, backend string) (string, []stats.Series, error) {
	res, err := NoisyNeighborSweep(scale, backend)
	return res.Table, res.Series, err
}
