package harness

import (
	"container/heap"
	"errors"
	"fmt"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
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
//	protected    all tenants,  QoS on  — the tentpole claim
//	unprotected  all tenants,  QoS off — the damage being prevented
//
// The plane runs for real (every admitted request executes on the
// engine; any engine error fails the arm) while latency comes from a
// deterministic virtual-time model layered on the plane's routing: each
// shard is a serial server with a fixed per-op compute cost. The service
// ORDER differs per arm on purpose — with QoS on, each shard serves its
// backlog through a weighted-fair queue over the tenant weights (the
// admission queue the QoS layer adds); with QoS off there is no fairness
// anywhere, so the backlog drains in plain arrival order and the
// aggressor's flood queues ahead of the victims.
//
// Throttled requests retry at their RetryAfter hint through a min-heap
// of (time, seq) events; latency is always measured from the ORIGINAL
// arrival, and every request carries deadline = arrival + nnDeadline so
// an eternally-throttled request eventually dies with ErrDeadlineExceeded
// instead of retrying forever.
const (
	// nnOpCost is the modelled per-op engine compute: one shard serves
	// 1/nnOpCost = 40k IOPS.
	nnOpCost = 25 * sim.Microsecond

	// nnShards fixes the plane width: 4 shards = 160k IOPS capacity.
	nnShards = 4

	// nnBatch is the plane batch size for the event-driven replay.
	nnBatch = 256

	// nnDeadline is each request's deadline margin past its arrival.
	// With the controller's 100µs doubling backoff this allows a few
	// retries before the deadline kills a still-throttled request.
	nnDeadline = sim.Millisecond

	// nnWindow is the controller's hysteresis window. 2ms makes the
	// aggressor walk the whole ladder (throttle -> shed -> bypass)
	// within even the shortest run.
	nnWindow = 2 * sim.Millisecond

	nnVictimFoot = 1024 // pages per victim footprint
	nnAggFoot    = 2048 // aggressor footprint

	// nnServeDepth bounds the per-tenant service-model queue; it only
	// needs to exceed any backlog the arms can build.
	nnServeDepth = 1 << 20
)

// nnTenantSpec is the tenant sheet, deliberately routed through the
// production flag parser. Budgets: each victim gets 24k IOPS (15% of
// capacity) at weights 4 and 2; the aggressor gets 16k (10%) at weight
// 1, so under sustained overload it demotes first.
const nnTenantSpec = "victim-a:24000:4,victim-b:24000:2,aggressor:16000:1"

// nnOffered is each tenant's offered rate (IOPS). Victims run inside
// their budgets; the aggressor floods at 10x its 16k budget — one full
// plane's worth of capacity on its own.
var nnOffered = []float64{16000, 16000, 160000}

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
	Served int64
	P99    sim.Time
	Mean   sim.Time
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

// nnEvent is one pending request (first attempt or throttle retry).
type nnEvent struct {
	at       sim.Time // this attempt's arrival
	orig     sim.Time // original arrival: latency is measured from here
	deadline sim.Time
	seq      int64 // global tie-break; retries allocate fresh ones
	tenant   int
	kind     shard.OpKind
	lba      int64
}

// nnHeap is a min-heap of events keyed (at, seq).
type nnHeap []nnEvent

func (h nnHeap) Len() int { return len(h) }
func (h nnHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(nnEvent)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// nnJob is one admitted request in the service model.
type nnJob struct {
	at, orig sim.Time
	tenant   int
}

// nnServer is one shard's serial server. With a WFQ attached the
// backlog drains weighted-fair over tenants; without one it drains in
// plain arrival (push) order.
type nnServer struct {
	clock sim.Time
	wfq   *qos.WFQ
	jobs  []nnJob // WFQ payload store (indices)
	fifo  []nnJob
	head  int
}

func (s *nnServer) push(j nnJob) {
	if s.wfq != nil {
		if !s.wfq.Push(j.tenant, int64(len(s.jobs))) {
			panic("harness: noisy-neighbor service queue overflow")
		}
		s.jobs = append(s.jobs, j)
		return
	}
	s.fifo = append(s.fifo, j)
}

// drainTo serves backlog while the server's clock is before t.
func (s *nnServer) drainTo(t sim.Time, observe func(tenant int, lat sim.Time)) {
	for s.clock < t {
		var j nnJob
		if s.wfq != nil {
			_, v, ok := s.wfq.Pop()
			if !ok {
				return
			}
			j = s.jobs[v]
		} else {
			if s.head >= len(s.fifo) {
				return
			}
			j = s.fifo[s.head]
			s.head++
		}
		start := s.clock
		if j.at > start {
			start = j.at
		}
		fin := start + nnOpCost
		s.clock = fin
		observe(j.tenant, fin-j.orig)
	}
}

// nullPlane builds the plane every arm drives: nnShards shards over
// 5 x 2048-page null members (RAID-5, chunk 8) under a 1024-page 64-way
// cache with 128 meta pages, coalescing on; ctl is nil with QoS off.
func nullPlane(ctl *qos.Controller) (*shard.Plane, error) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice(fmt.Sprintf("null-d%d", i), 2048))
	}
	arr, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		return nil, err
	}
	const metaPages, cachePages = 128, 1024
	return shard.New(shard.Config{
		SSD:        blockdev.NewNullDevice("null-ssd", metaPages+cachePages+64),
		Backend:    arr,
		CachePages: cachePages,
		Ways:       64,
		MetaPages:  metaPages,
		Codec:      func(lane int) delta.Codec { return delta.NewModelled(0x9057<<8|uint64(lane), 0.25) },
		Shards:     nnShards,
		Coalesce:   true,
		QoS:        ctl,
	})
}

// noisyArm runs one arm for dur of virtual time and returns per-tenant
// outcomes. Deterministic: the plane's QoS gate runs in submission
// order, the event heap orders by (time, seq), and the service model is
// pure integer virtual time.
func noisyArm(arm nnArm, dur sim.Time) (nnArmOut, error) {
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

	p, err := nullPlane(ctl)
	if err != nil {
		return nnArmOut{}, err
	}
	defer p.Close()

	// Per-tenant arrival streams with disjoint footprints, merged into
	// one time-ordered multi-tenant stream.
	bases := []int64{0, nnVictimFoot, 2 * nnVictimFoot}
	foots := []int64{nnVictimFoot, nnVictimFoot, nnAggFoot}
	var streams []*trace.Trace
	for i, spec := range specs {
		if i == 2 && !arm.aggressor {
			break
		}
		streams = append(streams, workload.OpenLoop{
			Name:        spec.Name,
			Clients:     8,
			OfferedIOPS: nnOffered[i],
			Requests:    int64(nnOffered[i] * float64(dur) / float64(sim.Second)),
			Footprint:   foots[i],
			LBABase:     bases[i],
			ReadRatio:   0.7,
			Theta:       0.9,
			Seed:        0x9057 + uint64(i),
			Tenant:      i,
		}.Generate())
	}
	tr := workload.MergeTenants("noisy-"+arm.name, streams...)

	h := make(nnHeap, 0, len(tr.Requests))
	for i, r := range tr.Requests {
		kind := shard.OpWrite
		if r.Op == trace.Read {
			kind = shard.OpRead
		}
		h = append(h, nnEvent{
			at: r.Time, orig: r.Time, deadline: r.Time + nnDeadline,
			seq: int64(i), tenant: r.Tenant, kind: kind, lba: r.LBA,
		})
	}
	heap.Init(&h)
	nextSeq := int64(len(tr.Requests))

	hists := make([]*stats.Histogram, len(specs))
	for i := range hists {
		hists[i] = stats.NewHistogram(1 << 14)
	}
	observe := func(tenant int, lat sim.Time) { hists[tenant].Observe(int64(lat)) }
	servers := make([]*nnServer, nnShards)
	for s := range servers {
		srv := &nnServer{}
		if arm.protected {
			srv.wfq = qos.NewWFQ(qos.Weights(specs), nnServeDepth)
		}
		servers[s] = srv
	}

	// manual is the per-tenant tally for the unprotected arm (no
	// controller to count for us there).
	manual := make([]qos.Counters, len(specs))

	ops := make([]shard.Op, 0, nnBatch)
	evs := make([]nnEvent, 0, nnBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		t := evs[len(evs)-1].at
		for i, r := range p.RunBatch(t, ops) {
			ev := evs[i]
			switch {
			case r.Err == nil:
				// Admitted (or bypassed, or coalesced away — the request
				// still completed): charge it to its shard's serial server.
				manual[ev.tenant].Offered++
				manual[ev.tenant].Admitted++
				s := servers[p.ShardOf(p.LaneOf(ev.lba))]
				s.drainTo(ev.at, observe)
				s.push(nnJob{at: ev.at, orig: ev.orig, tenant: ev.tenant})
			case errors.Is(r.Err, qos.ErrThrottled):
				var rej *qos.Reject
				if errors.As(r.Err, &rej) && rej.RetryAfter > ev.at {
					heap.Push(&h, nnEvent{
						at: rej.RetryAfter, orig: ev.orig, deadline: ev.deadline,
						seq: nextSeq, tenant: ev.tenant, kind: ev.kind, lba: ev.lba,
					})
					nextSeq++
				}
			case errors.Is(r.Err, qos.ErrShed):
			case errors.Is(r.Err, qos.ErrDeadlineExceeded):
			default:
				return fmt.Errorf("noisy-neighbor %s: op %d (tenant %d lba %d): %w",
					arm.name, i, ev.tenant, ev.lba, r.Err)
			}
		}
		ops = ops[:0]
		evs = evs[:0]
		return nil
	}
	var lastAt sim.Time
	for h.Len() > 0 {
		ev := heap.Pop(&h).(nnEvent)
		lastAt = ev.at
		evs = append(evs, ev)
		ops = append(ops, shard.Op{
			Kind: ev.kind, LBA: ev.lba,
			Tenant: ev.tenant, At: ev.at, Deadline: ev.deadline,
		})
		if len(ops) == nnBatch {
			if err := flush(); err != nil {
				return nnArmOut{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return nnArmOut{}, err
	}
	for _, s := range servers {
		s.drainTo(sim.Time(1)<<62, observe)
	}
	if _, err := p.Quiesce(dur); err != nil {
		return nnArmOut{}, fmt.Errorf("noisy-neighbor %s: quiesce: %w", arm.name, err)
	}
	if err := p.CheckInvariants(); err != nil {
		return nnArmOut{}, fmt.Errorf("noisy-neighbor %s: %w", arm.name, err)
	}
	if ctl != nil && !ctl.Conserved(lastAt) {
		return nnArmOut{}, fmt.Errorf("noisy-neighbor %s: token-bucket conservation violated", arm.name)
	}

	out := nnArmOut{tenants: make([]nnTenantOut, len(specs))}
	counts := manual
	if ctl != nil {
		counts = ctl.Snapshot()
		out.aggRung = ctl.Rung(2)
	}
	for i := range specs {
		out.tenants[i] = nnTenantOut{
			Counters: counts[i],
			Served:   hists[i].Count(),
			P99:      sim.Time(hists[i].Percentile(99)),
			Mean:     sim.Time(int64(hists[i].Mean())),
		}
	}
	return out, nil
}

// NoisyNeighborSweep runs all three arms. scale stretches the run's
// virtual duration (scale 1.0 = one virtual second, floored at 20ms so
// the hysteresis ladder always has windows to walk).
func NoisyNeighborSweep(scale float64) (NoisyResult, error) {
	dur := sim.Time(float64(sim.Second) * scale)
	if dur < 20*sim.Millisecond {
		dur = 20 * sim.Millisecond
	}
	arms, err := fanOut(len(nnArms), func(i int) (nnArmOut, error) {
		return noisyArm(nnArms[i], dur)
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
			r := float64(arms[armIdx].tenants[v].P99) / float64(iso)
			if r > worst {
				worst = r
			}
		}
		return worst
	}
	res := NoisyResult{
		VictimP99Ratio:   ratio(1),
		UnprotectedRatio: ratio(2),
		AggThrottled:     arms[1].tenants[2].Throttled,
		AggShed:          arms[1].tenants[2].Shed,
		AggBypassed:      arms[1].tenants[2].Bypassed,
		AggDeadline:      arms[1].tenants[2].Deadline,
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
	fmt.Fprintf(&b, "== Noisy neighbor: per-tenant p99 under a 10x flood, %v virtual run ==\n", dur)
	fmt.Fprintf(&b, "tenants: %s (aggressor offers %.0fk IOPS against a %.0fk budget)\n",
		nnTenantSpec, nnOffered[2]/1000, float64(specs[2].RateIOPS)/1000)
	fmt.Fprintf(&b, "%-12s %-10s %9s %9s %9s %9s %9s %9s %10s %10s\n",
		"arm", "tenant", "offered", "admitted", "bypassed", "throttled", "shed", "deadline", "p99(us)", "mean(us)")
	for ai, arm := range nnArms {
		for ti, spec := range specs {
			t := arms[ai].tenants[ti]
			fmt.Fprintf(&b, "%-12s %-10s %9d %9d %9d %9d %9d %9d %10.0f %10.0f\n",
				arm.name, spec.Name, t.Offered, t.Admitted, t.Bypassed,
				t.Throttled, t.Shed, t.Deadline,
				float64(t.P99)/float64(sim.Microsecond),
				float64(t.Mean)/float64(sim.Microsecond))
		}
	}
	fmt.Fprintf(&b, "victim p99 ratio, QoS on  = %.2fx (gate <= 2x)\n", res.VictimP99Ratio)
	fmt.Fprintf(&b, "victim p99 ratio, QoS off = %.2fx\n", res.UnprotectedRatio)
	fmt.Fprintf(&b, "aggressor ladder rung = %d (0 throttle, 1 shed, 2 bypass)\n", res.AggRung)
	res.Table = b.String()
	return res, nil
}

// NoisyNeighbor renders the experiment (the registry entry point).
func NoisyNeighbor(scale float64) (string, []stats.Series, error) {
	res, err := NoisyNeighborSweep(scale)
	return res.Table, res.Series, err
}
