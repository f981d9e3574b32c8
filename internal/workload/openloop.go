package workload

import (
	"cmp"
	"fmt"
	"slices"

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
	Tenant uint16

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

	// Each client's stream is one run of a shared backing slice, in its
	// own arrival order: the runs are sorted by construction, so the
	// merge is all the ordering there is to do.
	backing := make([]trace.Request, o.Requests)
	runs := make([][]trace.Request, o.Clients)
	var off int64
	for c := range runs {
		n := o.Requests / int64(o.Clients)
		if int64(c) < o.Requests%int64(o.Clients) {
			n++
		}
		run := backing[off : off+n]
		off += n
		crng := rng.Split()
		zipf := sim.NewZipf(rng.Split(), o.Theta, uint64(o.Footprint))
		var now sim.Time
		for i := range run {
			// Exponential interarrival BEFORE the request: a Poisson
			// process's first event is not at t=0.
			now += sim.Time(-meanGap * ln(1-crng.Float64()))
			op := trace.Write
			if crng.Float64() < o.ReadRatio {
				op = trace.Read
			}
			run[i] = trace.Request{
				Time: now, Op: op, LBA: o.LBABase + perm[zipf.Next()],
				Pages: 1, Tenant: o.Tenant,
			}
		}
		runs[c] = run
	}
	return &trace.Trace{Name: o.Name, Requests: mergeRuns(runs)}
}

// MergeTenants interleaves several per-tenant arrival streams into one
// multi-tenant trace, ordered by arrival time with ties broken by
// (tenant, input position) — fully deterministic, so multi-tenant
// experiments replay byte-identically. The inputs are not modified.
func MergeTenants(name string, traces ...*trace.Trace) *trace.Trace {
	runs := make([][]trace.Request, len(traces))
	for i, tr := range traces {
		run := tr.Requests
		if !slices.IsSortedFunc(run, byTimeTenant) {
			run = slices.Clone(run)
			slices.SortStableFunc(run, byTimeTenant)
		}
		runs[i] = run
	}
	return &trace.Trace{Name: name, Requests: mergeRuns(runs)}
}

// byTimeTenant orders requests by arrival time, then tenant.
func byTimeTenant(a, b trace.Request) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Tenant, b.Tenant)
}

// runHead is a run's index and the merge key of its next request, copied
// into the heap so that a comparison reads no run: it halves the merge's
// cost against comparing the requests in place.
type runHead struct {
	time   sim.Time
	tenant uint16
	run    int
}

func (a runHead) before(b runHead) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	return a.run < b.run
}

// mergeRuns merges runs that are each ordered by (Time, Tenant) into one
// new slice ordered by (Time, Tenant, run index), each run keeping its
// own order: exactly what a stable sort of the runs' concatenation by
// (Time, Tenant) returns, in O(n log k) for n requests in k runs. heap is
// a binary min-heap of the runs not yet drained, keyed on each one's next
// request; next[r] is the position of run r's next request.
func mergeRuns(runs [][]trace.Request) []trace.Request {
	n := 0
	next := make([]int, len(runs))
	heap := make([]runHead, 0, len(runs))
	for i, r := range runs {
		n += len(r)
		if len(r) > 0 {
			heap = append(heap, runHead{r[0].Time, r[0].Tenant, i})
		}
	}
	down := func(i int) {
		for {
			least := i
			if l := 2*i + 1; l < len(heap) && heap[l].before(heap[least]) {
				least = l
			}
			if r := 2*i + 2; r < len(heap) && heap[r].before(heap[least]) {
				least = r
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]trace.Request, 0, n)
	for len(heap) > 0 {
		r := heap[0].run
		out = append(out, runs[r][next[r]])
		next[r]++
		if next[r] < len(runs[r]) {
			q := &runs[r][next[r]]
			heap[0].time, heap[0].tenant = q.Time, q.Tenant
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
