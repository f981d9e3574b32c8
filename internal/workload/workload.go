// Package workload synthesises the I/O workloads of the paper's
// evaluation. The real SPC Financial and MSR Cambridge traces are not
// redistributable, so Synthesize generates streams matched to the
// characteristics Table I reports for each trace — unique-page footprint
// (total/read/write), request counts, and read ratio — with Zipf temporal
// locality, which is what hit-ratio and write-traffic curves are shaped
// by. The FIO-style closed-loop generator of §IV-B3 (Zipf α=1.0001) is
// here too.
package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

// Spec describes a synthetic trace in Table I terms. Counts are in 4KB
// pages.
type Spec struct {
	Name        string
	UniqueTotal int64 // distinct pages (union of read and write sets)
	UniqueRead  int64 // distinct pages read
	UniqueWrite int64 // distinct pages written
	ReadPages   int64 // read request pages
	WritePages  int64 // write request pages

	// Theta is the Zipf exponent controlling temporal locality (~0.9
	// matches enterprise traces; must be >0 and !=1 internally).
	Theta float64
	// MeanIOPS sets the arrival rate (exponential interarrivals).
	MeanIOPS float64
	// Seed makes generation reproducible.
	Seed uint64
}

// The four Table I workloads (counts ×1,000 from the paper). MeanIOPS is
// chosen to spread each trace over roughly an hour of virtual time.
var (
	// Fin1 is the write-dominant OLTP trace (read ratio 0.19).
	Fin1 = Spec{Name: "Fin1", UniqueTotal: 993_000, UniqueRead: 331_000,
		UniqueWrite: 966_000, ReadPages: 1_339_000, WritePages: 5_628_000,
		Theta: 0.9, MeanIOPS: 1900, Seed: 101}
	// Fin2 is the read-dominant OLTP trace (read ratio 0.80).
	Fin2 = Spec{Name: "Fin2", UniqueTotal: 405_000, UniqueRead: 271_000,
		UniqueWrite: 212_000, ReadPages: 3_562_000, WritePages: 917_000,
		Theta: 0.9, MeanIOPS: 1250, Seed: 102}
	// Hm0 is the write-dominant MSR hardware-monitoring volume (0.33).
	Hm0 = Spec{Name: "Hm0", UniqueTotal: 609_000, UniqueRead: 488_000,
		UniqueWrite: 428_000, ReadPages: 2_880_000, WritePages: 5_992_000,
		Theta: 0.9, MeanIOPS: 2450, Seed: 103}
	// Web0 is the read-dominant MSR web-server volume (0.59). Its write
	// temporal locality is much higher than its read locality, the
	// property behind the Figure 7 anomaly, so writes use a hotter Zipf.
	Web0 = Spec{Name: "Web0", UniqueTotal: 1_913_000, UniqueRead: 1_884_000,
		UniqueWrite: 182_000, ReadPages: 4_575_000, WritePages: 3_186_000,
		Theta: 0.9, MeanIOPS: 2150, Seed: 104}
)

// TableI returns the four paper workloads in presentation order.
func TableI() []Spec { return []Spec{Fin1, Fin2, Hm0, Web0} }

// Scale returns a copy of s with footprint and request counts multiplied
// by f (used to shrink experiments for tests while preserving shape).
func (s Spec) Scale(f float64) Spec {
	if f <= 0 {
		panic("workload: non-positive scale")
	}
	scale := func(v int64) int64 {
		n := int64(float64(v) * f)
		if n < 1 {
			n = 1
		}
		return n
	}
	s.Name = fmt.Sprintf("%s(x%.3g)", s.Name, f)
	s.UniqueTotal = scale(s.UniqueTotal)
	s.UniqueRead = scale(s.UniqueRead)
	s.UniqueWrite = scale(s.UniqueWrite)
	s.ReadPages = scale(s.ReadPages)
	s.WritePages = scale(s.WritePages)
	return s
}

// ReadRatio returns the spec's read fraction.
func (s Spec) ReadRatio() float64 {
	tot := s.ReadPages + s.WritePages
	if tot == 0 {
		return 0
	}
	return float64(s.ReadPages) / float64(tot)
}

// Synthesize generates a trace matching the spec. The address space is
// laid out as [write-only | shared | read-only] so the unique read/write
// footprints and their overlap match Table I; request targets are drawn
// Zipf-distributed over a per-direction random permutation so that hot
// pages are spread across the footprint rather than clustered at low
// addresses.
//
// The request mix and arrivals, the read targets and the write targets
// come from three generators that share no state, so the two target
// streams are drawn on their own goroutines while the caller draws the
// mix and arrivals; the i-th read request then takes the i-th read
// target, and likewise for writes. Each generator keeps its own draw
// order, so the trace does not depend on scheduling or GOMAXPROCS, and
// both goroutines are joined before Synthesize returns.
func Synthesize(s Spec) *trace.Trace {
	if s.UniqueRead > s.UniqueTotal || s.UniqueWrite > s.UniqueTotal ||
		s.UniqueRead+s.UniqueWrite < s.UniqueTotal {
		panic(fmt.Sprintf("workload: inconsistent footprint in %q", s.Name))
	}
	theta := s.Theta
	if theta == 0 {
		theta = 0.9
	}
	rng := sim.NewRNG(s.Seed)
	// Region layout over [0, UniqueTotal):
	//   [0, writeOnly)                       written only
	//   [writeOnly, writeOnly+shared)        read and written
	//   [writeOnly+shared, total)            read only
	overlap := s.UniqueRead + s.UniqueWrite - s.UniqueTotal
	writeOnly := s.UniqueWrite - overlap

	readBase := writeOnly // read set = [writeOnly, total)
	readSpan := s.UniqueRead
	writeSpan := s.UniqueWrite // write set = [0, writeOnly+overlap)

	readZipf := sim.NewZipf(rng.Split(), theta, uint64(readSpan))
	writeTheta := theta
	if strings.HasPrefix(s.Name, "Web") {
		writeTheta = 1.1 // hotter writes (see Web0 comment)
	}
	writeZipf := sim.NewZipf(rng.Split(), writeTheta, uint64(writeSpan))

	// Per-direction rank->page permutations, drawn with the targets.
	readPermRNG, writePermRNG := rng.Split(), rng.Split()
	reads := make([]int64, max(s.ReadPages, 0))
	writes := make([]int64, max(s.WritePages, 0))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		drawTargets(reads, readBase, readZipf, randomPermutation(readPermRNG, readSpan))
	}()
	go func() {
		defer wg.Done()
		drawTargets(writes, 0, writeZipf, randomPermutation(writePermRNG, writeSpan))
	}()

	total := s.ReadPages + s.WritePages
	iops := s.MeanIOPS
	if iops <= 0 {
		iops = 2000
	}
	meanGap := float64(sim.Second) / iops

	tr := &trace.Trace{Name: s.Name}
	tr.Requests = make([]trace.Request, 0, total)
	var now sim.Time
	readLeft, writeLeft := s.ReadPages, s.WritePages
	for readLeft > 0 || writeLeft > 0 {
		// Choose direction proportional to remaining budget so the final
		// mix matches exactly.
		isRead := false
		if readLeft > 0 && writeLeft > 0 {
			isRead = rng.Float64()*float64(readLeft+writeLeft) < float64(readLeft)
		} else {
			isRead = readLeft > 0
		}
		op := trace.Write
		if isRead {
			op = trace.Read
			readLeft--
		} else {
			writeLeft--
		}
		tr.Requests = append(tr.Requests, trace.Request{Time: now, Op: op, Pages: 1})
		// Exponential interarrival.
		gap := -meanGap * ln(1-rng.Float64())
		now += sim.Time(gap)
	}
	wg.Wait()
	for i := range tr.Requests {
		req := &tr.Requests[i]
		if req.Op == trace.Read {
			req.LBA, reads = reads[0], reads[1:]
		} else {
			req.LBA, writes = writes[0], writes[1:]
		}
	}
	return tr
}

// drawTargets fills lbas with base+perm[z.Next()], in draw order.
func drawTargets(lbas []int64, base int64, z *sim.Zipf, perm []int64) {
	for i := range lbas {
		lbas[i] = base + perm[z.Next()]
	}
}

// randomPermutation returns a permutation of [0, n) as int64 page offsets.
func randomPermutation(rng *sim.RNG, n int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int64(rng.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ln guards math.Log against the zero argument Float64 can produce, which
// would yield an infinite interarrival gap.
func ln(x float64) float64 {
	if x <= 0 {
		return -30
	}
	return math.Log(x)
}
