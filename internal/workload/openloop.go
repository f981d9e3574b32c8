package workload

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

// OpenLoop describes an open-loop arrival process: a population of
// independent Poisson clients that submit requests at their own pace
// regardless of completions. Closed-loop generators (FIO-style, above)
// hide saturation — a slow server simply slows its clients down; an
// open-loop stream keeps offering load, which is what latency-vs-load
// saturation curves require. Arrivals are time-stamped only; the driver
// decides what "service" means.
type OpenLoop struct {
	Name string

	// Clients is the population size. Each client is an independent
	// Poisson source with rate OfferedIOPS/Clients; the merged stream is
	// again Poisson at the full offered rate. Default 16.
	Clients int

	// OfferedIOPS is the aggregate arrival rate (requests per virtual
	// second) the population offers.
	OfferedIOPS float64

	// Requests is the total request count to emit, spread evenly over
	// the clients.
	Requests int64

	// Footprint is the distinct-page address span requests draw from.
	Footprint int64

	// ReadRatio is the read fraction in [0,1].
	ReadRatio float64

	// Theta is the Zipf exponent of the page popularity distribution
	// shared by all clients (default 0.9, the enterprise-trace value).
	Theta float64

	// Seed makes the stream reproducible; every derived RNG (per-client
	// clocks, directions, and popularity draws) splits from it.
	Seed uint64

	// Tenant stamps every generated request with a tenant index, so a
	// population can model one tenant's arrival process and several
	// populations merge into a multi-tenant stream (MergeTenants).
	Tenant int

	// LBABase offsets every generated LBA, giving tenants disjoint
	// footprints when the experiment wants no sharing.
	LBABase int64
}

// Generate synthesises the merged arrival stream, sorted by arrival
// time (ties broken by client index, so the output is deterministic).
func (o OpenLoop) Generate() *trace.Trace {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Theta == 0 {
		o.Theta = 0.9
	}
	if o.OfferedIOPS <= 0 || o.Requests <= 0 || o.Footprint <= 0 {
		panic(fmt.Sprintf("workload: open-loop %q needs positive load, requests and footprint", o.Name))
	}
	rng := sim.NewRNG(o.Seed)
	perm := randomPermutation(rng.Split(), o.Footprint)
	clientRate := o.OfferedIOPS / float64(o.Clients)
	meanGap := float64(sim.Second) / clientRate

	type stamped struct {
		req    trace.Request
		client int
	}
	all := make([]stamped, 0, o.Requests)
	for c := 0; c < o.Clients; c++ {
		n := o.Requests / int64(o.Clients)
		if int64(c) < o.Requests%int64(o.Clients) {
			n++
		}
		crng := rng.Split()
		zipf := sim.NewZipf(rng.Split(), o.Theta, uint64(o.Footprint))
		var now sim.Time
		for i := int64(0); i < n; i++ {
			// Exponential interarrival BEFORE the request: a Poisson
			// process's first event is not at t=0.
			now += sim.Time(-meanGap * ln(1-crng.Float64()))
			op := trace.Write
			if crng.Float64() < o.ReadRatio {
				op = trace.Read
			}
			all = append(all, stamped{
				req: trace.Request{
					Time: now, Op: op, LBA: o.LBABase + perm[zipf.Next()],
					Pages: 1, Tenant: o.Tenant,
				},
				client: c,
			})
		}
	}
	slices.SortStableFunc(all, func(a, b stamped) int {
		if c := cmp.Compare(a.req.Time, b.req.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.client, b.client)
	})
	tr := &trace.Trace{Name: o.Name, Requests: make([]trace.Request, len(all))}
	for i, s := range all {
		tr.Requests[i] = s.req
	}
	return tr
}

// MergeTenants interleaves several per-tenant arrival streams into one
// multi-tenant trace, ordered by arrival time with ties broken by
// (tenant, input position) — fully deterministic, so multi-tenant
// experiments replay byte-identically.
func MergeTenants(name string, traces ...*trace.Trace) *trace.Trace {
	type tagged struct {
		req  trace.Request
		pos  int
		from int
	}
	var n int
	for _, tr := range traces {
		n += len(tr.Requests)
	}
	all := make([]tagged, 0, n)
	for fi, tr := range traces {
		for i, r := range tr.Requests {
			all = append(all, tagged{req: r, pos: i, from: fi})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].req.Time != all[j].req.Time {
			return all[i].req.Time < all[j].req.Time
		}
		if all[i].req.Tenant != all[j].req.Tenant {
			return all[i].req.Tenant < all[j].req.Tenant
		}
		if all[i].from != all[j].from {
			return all[i].from < all[j].from
		}
		return all[i].pos < all[j].pos
	})
	out := &trace.Trace{Name: name, Requests: make([]trace.Request, len(all))}
	for i, s := range all {
		out.Requests[i] = s.req
	}
	return out
}
