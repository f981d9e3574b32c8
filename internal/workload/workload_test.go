package workload

import (
	"math"
	"testing"

	"kddcache/internal/trace"
)

func TestSynthesizeMatchesTableI(t *testing.T) {
	// Scaled down 50x for test speed; characteristics must track the spec.
	for _, spec := range TableI() {
		spec := spec.Scale(0.02)
		tr := Synthesize(spec)
		s := tr.Stats()
		wantReqs := spec.ReadPages + spec.WritePages
		if got := s.ReadPages + s.WritePages; got != wantReqs {
			t.Fatalf("%s: requests %d, want %d", spec.Name, got, wantReqs)
		}
		if math.Abs(s.ReadRatio-spec.ReadRatio()) > 0.01 {
			t.Errorf("%s: read ratio %.3f, want %.3f", spec.Name, s.ReadRatio, spec.ReadRatio())
		}
		// Zipf won't touch every page, but the footprint must be within
		// sane range of the spec and never exceed it.
		if s.UniqueTotal > spec.UniqueTotal {
			t.Errorf("%s: unique %d exceeds footprint %d", spec.Name, s.UniqueTotal, spec.UniqueTotal)
		}
		if float64(s.UniqueTotal) < 0.35*float64(spec.UniqueTotal) {
			t.Errorf("%s: unique %d too small vs footprint %d", spec.Name, s.UniqueTotal, spec.UniqueTotal)
		}
		if s.UniqueRead > spec.UniqueRead || s.UniqueWrite > spec.UniqueWrite {
			t.Errorf("%s: per-direction uniques exceed spec: %+v", spec.Name, s)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := Fin1.Scale(0.002)
	a := Synthesize(spec)
	b := Synthesize(spec)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestSynthesizeTimestampsMonotone(t *testing.T) {
	tr := Synthesize(Fin2.Scale(0.002))
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Time < tr.Requests[i-1].Time {
			t.Fatal("timestamps not monotone")
		}
	}
	if tr.Requests[len(tr.Requests)-1].Time <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestSynthesizeTemporalLocality(t *testing.T) {
	// A Zipf-driven stream must concentrate accesses: the most popular 10%
	// of touched pages should carry well over 10% of requests.
	tr := Synthesize(Fin1.Scale(0.01))
	counts := map[int64]int{}
	for _, r := range tr.Requests {
		counts[r.LBA]++
	}
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	// Top-10% share.
	total := len(tr.Requests)
	sortDesc(freqs)
	topN := len(freqs) / 10
	top := 0
	for _, c := range freqs[:topN] {
		top += c
	}
	if share := float64(top) / float64(total); share < 0.3 {
		t.Fatalf("top-10%% share = %.3f; no temporal locality", share)
	}
}

func sortDesc(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] > x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fin1.Scale(0)
}

func TestSynthesizeInconsistentSpecPanics(t *testing.T) {
	bad := Spec{Name: "bad", UniqueTotal: 100, UniqueRead: 10, UniqueWrite: 10,
		ReadPages: 50, WritePages: 50}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Synthesize(bad)
}

// TestSynthesizeShortNames: a spec's name only selects Web0's hotter
// write Zipf (any name starting "Web"), and a name shorter than that
// prefix is an ordinary spec, not a slice out of range.
func TestSynthesizeShortNames(t *testing.T) {
	named := func(name string) uint64 {
		s := Web0.Scale(0.002)
		s.Name = name
		return streamHash(Synthesize(s))
	}
	hot, plain := named("Web0"), named("Fin1")
	if hot == plain {
		t.Fatal("Web0 and Fin1 names synthesize the same stream; the write rule is not exercised")
	}
	for _, tc := range []struct {
		name string
		want uint64
	}{{"", plain}, {"X", plain}, {"We", plain}, {"Web", hot}, {"Web0(x0.12)", hot}} {
		if got := named(tc.name); got != tc.want {
			t.Errorf("name %q: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func TestReadRatio(t *testing.T) {
	if r := Fin1.ReadRatio(); math.Abs(r-0.19) > 0.01 {
		t.Fatalf("Fin1 read ratio = %f", r)
	}
	var empty Spec
	if empty.ReadRatio() != 0 {
		t.Fatal("empty spec ratio should be 0")
	}
}

func TestFIOGenBudgetAndMix(t *testing.T) {
	spec := DefaultFIO(0.25).Scale(0.01)
	g := NewFIOGen(spec)
	reads, writes := 0, 0
	seen := map[int64]bool{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.LBA < 0 || r.LBA >= spec.WorkingSetPages {
			t.Fatalf("LBA %d outside working set", r.LBA)
		}
		seen[r.LBA] = true
		if r.Op == trace.Read {
			reads++
		} else {
			writes++
		}
	}
	total := reads + writes
	if int64(total) != spec.TotalPages {
		t.Fatalf("issued %d, want %d", total, spec.TotalPages)
	}
	ratio := float64(reads) / float64(total)
	if math.Abs(ratio-0.25) > 0.03 {
		t.Fatalf("read ratio %.3f, want ~0.25", ratio)
	}
	if g.Remaining() != 0 {
		t.Fatalf("Remaining = %d", g.Remaining())
	}
	if _, ok := g.Next(); ok {
		t.Fatal("generator exceeded budget")
	}
	if len(seen) < 2 {
		t.Fatal("working set barely touched")
	}
}

func TestFIOGenZeroAndFullReadRate(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		g := NewFIOGen(FIOSpec{WorkingSetPages: 100, TotalPages: 500,
			ReadRate: rate, Threads: 4, Alpha: 1.0001, Seed: 3})
		reads := 0
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Op == trace.Read {
				reads++
			}
		}
		if rate == 0 && reads != 0 {
			t.Fatalf("rate 0 produced %d reads", reads)
		}
		if rate == 1 && reads != 500 {
			t.Fatalf("rate 1 produced %d reads", reads)
		}
	}
}

func TestFIOSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFIOGen(FIOSpec{})
}

func TestFIOScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultFIO(0).Scale(-1)
}

// BenchmarkSynthesize times the trace workloads' set-up: Table I Fin1
// at the benchmark's 0.09 scale (about 627 000 one-page requests, 19 %
// reads) and Web0 at its 0.12 scale (about 931 000, 59 % reads, so the
// read and write LBA streams come out about even). B/op is mostly the
// records.
func BenchmarkSynthesize(b *testing.B) {
	for _, tc := range []struct {
		spec  Spec
		scale float64
		iops  float64
	}{{Fin1, 0.09, 80}, {Web0, 0.12, 110}} {
		s := tc.spec.Scale(tc.scale)
		s.MeanIOPS, s.Seed = tc.iops, 1
		b.Run(tc.spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTrace = Synthesize(s)
			}
		})
	}
}
