package workload

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

func baseOpenLoop() OpenLoop {
	return OpenLoop{
		Name:        "ol",
		Clients:     8,
		OfferedIOPS: 10_000,
		Requests:    20_000,
		Footprint:   4_096,
		ReadRatio:   0.4,
		Seed:        0x01EA,
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	a := baseOpenLoop().Generate()
	b := baseOpenLoop().Generate()
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestOpenLoopShape(t *testing.T) {
	o := baseOpenLoop()
	tr := o.Generate()
	if int64(len(tr.Requests)) != o.Requests {
		t.Fatalf("emitted %d of %d requests", len(tr.Requests), o.Requests)
	}
	var reads int64
	var last sim.Time
	for i, r := range tr.Requests {
		if r.Time < last {
			t.Fatalf("request %d out of time order: %d after %d", i, r.Time, last)
		}
		last = r.Time
		if r.LBA < 0 || r.LBA >= o.Footprint {
			t.Fatalf("request %d outside footprint: lba %d", i, r.LBA)
		}
		if r.Op == trace.Read {
			reads++
		}
	}
	ratio := float64(reads) / float64(len(tr.Requests))
	if ratio < o.ReadRatio-0.05 || ratio > o.ReadRatio+0.05 {
		t.Fatalf("read ratio %.3f far from %.2f", ratio, o.ReadRatio)
	}
	// Offered load: total span should approximate Requests/OfferedIOPS
	// seconds (merged Poisson at the aggregate rate).
	wantSpan := float64(o.Requests) / o.OfferedIOPS * float64(sim.Second)
	gotSpan := float64(last)
	if gotSpan < wantSpan*0.9 || gotSpan > wantSpan*1.1 {
		t.Fatalf("span %.0f not within 10%% of %.0f (offered rate off)", gotSpan, wantSpan)
	}
	// Zipf locality: the hottest page should be requested far more often
	// than the uniform expectation.
	counts := make(map[int64]int64)
	var max int64
	for _, r := range tr.Requests {
		counts[r.LBA]++
		if counts[r.LBA] > max {
			max = counts[r.LBA]
		}
	}
	uniform := o.Requests / o.Footprint
	if max < uniform*10 {
		t.Fatalf("hottest page seen %d times; uniform expectation %d — no locality", max, uniform)
	}
}

// TestOpenLoopClientInvariantRate proves the aggregate offered rate does
// not depend on the population size.
func TestOpenLoopClientInvariantRate(t *testing.T) {
	for _, clients := range []int{1, 4, 32} {
		o := baseOpenLoop()
		o.Clients = clients
		tr := o.Generate()
		span := float64(tr.Requests[len(tr.Requests)-1].Time)
		want := float64(o.Requests) / o.OfferedIOPS * float64(sim.Second)
		if span < want*0.85 || span > want*1.15 {
			t.Fatalf("clients=%d: span %.0f vs want %.0f", clients, span, want)
		}
	}
}

// streamHash folds every field of every request, in order, into FNV-1a.
func streamHash(tr *trace.Trace) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	for _, r := range tr.Requests {
		mix(uint64(r.Time))
		mix(uint64(r.Op))
		mix(uint64(r.LBA))
		mix(uint64(r.Pages))
		mix(uint64(r.Tenant))
	}
	return h
}

// TestOpenLoopStreamPinned pins the generated request order: benchmark
// workloads, the noisy-neighbor experiment and goldens are all functions
// of it, so a change to the merge sort (or anything before it) must
// reproduce these streams exactly. The second spec offers a request per
// virtual nanosecond, so arrival times collide constantly and the
// client-index tie-break decides the order.
func TestOpenLoopStreamPinned(t *testing.T) {
	dense := baseOpenLoop()
	dense.OfferedIOPS = 1e9
	for _, tc := range []struct {
		name string
		spec OpenLoop
		want uint64
	}{
		{"base", baseOpenLoop(), 0x516bcf05efc1df5b},
		{"colliding arrivals", dense, 0xa979c44b0bee598b},
	} {
		tr := tc.spec.Generate()
		ties := 0
		for i := 1; i < len(tr.Requests); i++ {
			if tr.Requests[i].Time == tr.Requests[i-1].Time {
				ties++
			}
		}
		t.Logf("%s: %d requests, %d with the previous one's arrival time", tc.name, len(tr.Requests), ties)
		if got := streamHash(tr); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// benchStream is the Zipf stream of the repository benchmark's two data
// workloads at their full size (zipf_plane_fit reads 30 %,
// zipf_lsraid_data 50 %).
func benchStream(readRatio float64, seed uint64) OpenLoop {
	return OpenLoop{Clients: 16, OfferedIOPS: 1000, Requests: 140_000,
		Footprint: 8192, ReadRatio: readRatio, Theta: 0.9, Seed: seed}
}

// TestBenchStreamsPinned pins the benchmark's two data-workload streams
// at its seeds 1–3: Seed is what bench/ derives from --seed 1, 2 and 3.
// Every virtual-time metric of those workloads is a function of these
// streams.
func TestBenchStreamsPinned(t *testing.T) {
	seeds := []uint64{0x2d0f28c7e7e786b3, 0x75856f745165f253, 0x8674bbc2735955af}
	for _, tc := range []struct {
		name      string
		readRatio float64
		want      [3]uint64
	}{
		{"zipf_plane_fit", 0.3, [3]uint64{0xe59251033a1a0bcc, 0x8c53638941fd690e, 0x209d236e65a4f463}},
		{"zipf_lsraid_data", 0.5, [3]uint64{0xecf8a64a9acd5d80, 0x8bd5df6290637e4e, 0x58c9adee5dc3f84f}},
	} {
		for i, seed := range seeds {
			if got := streamHash(benchStream(tc.readRatio, seed).Generate()); got != tc.want[i] {
				t.Errorf("%s --seed %d: stream hash %#x, want %#x", tc.name, i+1, got, tc.want[i])
			}
		}
	}
}

// TestTraceStreamsPinned pins the benchmark's trace workloads at its
// seeds 1–3: Fin1 at scale 0.09 / 80 IOPS (fin1_raid, fin1_lsraid) and
// Web0 at 0.12 / 110 IOPS (web0_raid), Seed being what bench/ derives
// from --seed 1, 2 and 3. Synthesize draws its read and write targets on
// their own goroutines, so the test also holds a trace synthesized on
// one OS thread to the default, and checks that no goroutine is left
// running.
func TestTraceStreamsPinned(t *testing.T) {
	seeds := []uint64{0x2d0f28c7e7e786b3, 0x75856f745165f253, 0x8674bbc2735955af}
	for _, tc := range []struct {
		spec  Spec
		scale float64
		iops  float64
		want  [3]uint64
	}{
		{Fin1, 0.09, 80, [3]uint64{0xfd1e446d40d475ca, 0x9d466c7fdfa8082f, 0xfdb604581f89830f}},
		{Web0, 0.12, 110, [3]uint64{0x8847c2e49e092ea8, 0xacea9dbe98066e51, 0x5b23460f329247fa}},
	} {
		for i, seed := range seeds {
			s := tc.spec.Scale(tc.scale)
			s.MeanIOPS, s.Seed = tc.iops, seed
			if got := streamHash(Synthesize(s)); got != tc.want[i] {
				t.Errorf("%s --seed %d: stream hash %#x, want %#x", s.Name, i+1, got, tc.want[i])
			}
		}
	}

	s := Web0.Scale(0.01)
	before := runtime.NumGoroutine()
	want := streamHash(Synthesize(s))
	prev := runtime.GOMAXPROCS(1)
	got := streamHash(Synthesize(s))
	runtime.GOMAXPROCS(prev)
	if got != want {
		t.Errorf("GOMAXPROCS(1): stream hash %#x, want %#x as at GOMAXPROCS(%d)", got, want, prev)
	}
	// A joined goroutine may still be on its way out when wg.Wait
	// returns, so give the count a moment to settle.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Synthesize, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// generateBySort is the stable-sort Generate that mergeRuns replaced,
// kept as its oracle: every request tagged with its client, all of them
// stably sorted by (Time, client).
func generateBySort(o OpenLoop) *trace.Trace {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Theta == 0 {
		o.Theta = 0.9
	}
	rng := sim.NewRNG(o.Seed)
	perm := randomPermutation(rng.Split(), o.Footprint)
	meanGap := float64(sim.Second) / (o.OfferedIOPS / float64(o.Clients))
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

// mergeTenantsBySort is the stable-sort MergeTenants that mergeRuns
// replaced, kept as its oracle: (Time, Tenant, input, position).
func mergeTenantsBySort(name string, traces ...*trace.Trace) *trace.Trace {
	type tagged struct {
		req  trace.Request
		pos  int
		from int
	}
	var all []tagged
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

// sameRequests fails the test at the first request where got and want
// differ.
func sameRequests(t *testing.T, what string, got, want *trace.Trace) {
	t.Helper()
	if got.Name != want.Name || len(got.Requests) != len(want.Requests) {
		t.Fatalf("%s: %q with %d requests, want %q with %d", what,
			got.Name, len(got.Requests), want.Name, len(want.Requests))
	}
	for i := range want.Requests {
		if got.Requests[i] != want.Requests[i] {
			t.Fatalf("%s: request %d is %+v, want %+v", what, i, got.Requests[i], want.Requests[i])
		}
	}
}

func TestGenerateMatchesStableSortOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0x01EA, 0xBEEF} {
		for _, clients := range []int{1, 3, 8, 16, 64} {
			for _, requests := range []int64{int64(clients) - 1, 1, 5, 1001, 20_000} {
				if requests <= 0 {
					continue
				}
				o := baseOpenLoop()
				o.Seed, o.Clients, o.Requests = seed, clients, requests
				sameRequests(t, fmt.Sprintf("seed %#x clients %d requests %d", seed, clients, requests),
					o.Generate(), generateBySort(o))
			}
		}
	}
	// Arrival times collide constantly, within and across clients, so
	// the client-index tie-break and each run's own order decide.
	for _, clients := range []int{1, 3, 8, 16, 64} {
		dense := baseOpenLoop()
		dense.OfferedIOPS, dense.Clients = 1e9, clients
		sameRequests(t, fmt.Sprintf("colliding arrivals, clients %d", clients),
			dense.Generate(), generateBySort(dense))
	}
	// Default population, a tenant and an LBA base, at the bench geometry.
	for _, seed := range []uint64{1, 2, 3} {
		o := benchStream(0.5, seed)
		o.Clients, o.Tenant, o.LBABase = 0, 2, 1<<20
		sameRequests(t, fmt.Sprintf("bench geometry seed %d", seed), o.Generate(), generateBySort(o))
	}
}

func TestMergeTenantsMatchesStableSortOracle(t *testing.T) {
	rng := sim.NewRNG(7)
	// random builds n requests with arrival times in [0, span) and tenants
	// drawn from tenants; sorted orders them by (Time, Tenant) first.
	random := func(n, span int, tenants []int, sorted bool) *trace.Trace {
		tr := &trace.Trace{Name: "in"}
		for i := 0; i < n; i++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: sim.Time(rng.Intn(span)), Op: trace.Op(rng.Intn(2)),
				LBA: int64(i), Pages: 1, Tenant: uint16(tenants[rng.Intn(len(tenants))]),
			})
		}
		if sorted {
			slices.SortStableFunc(tr.Requests, byTimeTenant)
		}
		return tr
	}
	clone := func(trs []*trace.Trace) []*trace.Trace {
		out := make([]*trace.Trace, len(trs))
		for i, tr := range trs {
			out[i] = &trace.Trace{Name: tr.Name, Requests: slices.Clone(tr.Requests)}
		}
		return out
	}
	a := OpenLoop{Name: "a", Clients: 4, OfferedIOPS: 1e9, Requests: 3000, Footprint: 512, Seed: 1, Tenant: 1}
	b := a
	b.Name, b.Seed, b.Tenant = "b", 2, 0
	for _, tc := range []struct {
		name   string
		inputs []*trace.Trace
	}{
		{"none", nil},
		{"one sorted", []*trace.Trace{random(500, 100, []int{0}, true)}},
		{"one unsorted", []*trace.Trace{random(500, 100, []int{0}, false)}},
		{"sorted, one tenant each", []*trace.Trace{
			random(400, 200, []int{2}, true), random(300, 200, []int{0}, true), random(500, 200, []int{1}, true)}},
		{"unsorted, one tenant each", []*trace.Trace{
			random(400, 200, []int{2}, false), random(300, 200, []int{0}, false), random(500, 200, []int{1}, false)}},
		{"mixed tenants within inputs", []*trace.Trace{
			random(400, 50, []int{0, 1, 2}, true), random(400, 50, []int{2, 0}, false), random(400, 50, []int{1}, true)}},
		{"equal (Time, Tenant) across inputs", []*trace.Trace{
			random(300, 10, []int{1}, true), random(300, 10, []int{1}, true), random(300, 10, []int{1}, false)}},
		{"empty inputs", []*trace.Trace{
			{Name: "e"}, random(200, 40, []int{0, 1}, true), {Name: "f", Requests: []trace.Request{}},
			random(200, 40, []int{1}, false), {Name: "g"}}},
		{"all empty", []*trace.Trace{{Name: "e"}, {Name: "f"}}},
		{"open-loop streams", []*trace.Trace{a.Generate(), b.Generate(), a.Generate()}},
	} {
		before := clone(tc.inputs)
		sameRequests(t, tc.name, MergeTenants("m", tc.inputs...), mergeTenantsBySort("m", before...))
		for i := range tc.inputs {
			sameRequests(t, fmt.Sprintf("%s: input %d after the merge", tc.name, i), tc.inputs[i], before[i])
		}
	}
}

var sinkTrace *trace.Trace

// BenchmarkGenerate times Generate at the benchmark's data-workload
// geometry.
func BenchmarkGenerate(b *testing.B) {
	o := benchStream(0.5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTrace = o.Generate()
	}
}

// BenchmarkMergeTenants times the noisy-neighbor experiment's shape: two
// tenants' streams of 70 000 requests each, already in order.
func BenchmarkMergeTenants(b *testing.B) {
	victim := benchStream(0.5, 1)
	victim.Requests = 70_000
	aggressor := victim
	aggressor.Seed, aggressor.Tenant, aggressor.OfferedIOPS = 2, 1, 4000
	v, a := victim.Generate(), aggressor.Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrace = MergeTenants("noisy", v, a)
	}
}
