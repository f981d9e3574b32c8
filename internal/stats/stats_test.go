package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheStatsRatios(t *testing.T) {
	s := &CacheStats{Reads: 60, Writes: 40, ReadHits: 30, WriteHits: 20}
	if got := s.Requests(); got != 100 {
		t.Fatalf("Requests = %d", got)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %f", got)
	}
	if got := s.ReadHitRatio(); got != 0.5 {
		t.Fatalf("ReadHitRatio = %f", got)
	}
}

func TestCacheStatsEmptyRatios(t *testing.T) {
	var s CacheStats
	if s.HitRatio() != 0 || s.ReadHitRatio() != 0 || s.MetaShare() != 0 {
		t.Fatal("empty stats should report zero ratios")
	}
}

func TestSSDWritesBreakdown(t *testing.T) {
	s := &CacheStats{
		ReadFills: 10, WriteAllocs: 20, DeltaCommits: 5,
		VersionWrite: 3, MetaWrites: 2, MetaGCWrites: 1,
	}
	if got := s.SSDWrites(); got != 41 {
		t.Fatalf("SSDWrites = %d, want 41", got)
	}
	want := 3.0 / 41.0
	if got := s.MetaShare(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MetaShare = %f, want %f", got, want)
	}
}

func TestCacheStatsAdd(t *testing.T) {
	a := &CacheStats{Reads: 1, Writes: 2, ReadFills: 3, MetaWrites: 4, RAIDReads: 5}
	b := &CacheStats{Reads: 10, Writes: 20, ReadFills: 30, MetaWrites: 40, RAIDReads: 50}
	a.Add(b)
	if a.Reads != 11 || a.Writes != 22 || a.ReadFills != 33 || a.MetaWrites != 44 || a.RAIDReads != 55 {
		t.Fatalf("Add produced %+v", a)
	}
}

func TestCacheStatsString(t *testing.T) {
	s := &CacheStats{Reads: 1, ReadHits: 1}
	if !strings.Contains(s.String(), "hit=1.0000") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1024)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %f", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("P50 = %d, want ~50", p50)
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 100 {
		t.Fatalf("extreme percentiles wrong: %d %d", h.Percentile(0), h.Percentile(100))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReservoirDecimation(t *testing.T) {
	h := NewHistogram(128)
	for i := int64(0); i < 100000; i++ {
		h.Observe(i)
	}
	if len(h.samples) >= 128 {
		t.Fatalf("reservoir grew to %d, cap 128", len(h.samples))
	}
	if h.Count() != 100000 {
		t.Fatalf("Count = %d", h.Count())
	}
	// Percentiles should remain roughly accurate after decimation.
	p90 := float64(h.Percentile(90))
	if p90 < 80000 || p90 > 99999 {
		t.Fatalf("P90 after decimation = %f", p90)
	}
}

// TestHistogramReservoirGrowth: the reservoir doubles from minReservoir
// to its bound, so a replay-length stream grows it nine times (append's
// 1.25x steps took twenty-six) and it ends at exactly maxSamples of
// capacity. The samples kept do not depend on the capacity: a
// 200k-sample stream's p50, p99 and mean are pinned to the values the
// append-grown reservoir gave.
func TestHistogramReservoirGrowth(t *testing.T) {
	h := NewHistogram(1 << 16)
	grows := 0
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c := cap(h.samples)
		h.Observe(100_000 + int64(x%50_000_000))
		if cap(h.samples) != c {
			grows++
		}
	}
	if p50, p99, mean := h.Percentile(50), h.Percentile(99), h.Mean(); p50 != 25056501 || p99 != 49592521 || mean != 25063382.595485 {
		t.Errorf("p50 %d, p99 %d, mean %v; want 25056501, 49592521, 25063382.595485", p50, p99, mean)
	}
	if len(h.samples) != 50000 || h.skip != 4 || cap(h.samples) != 1<<16 {
		t.Errorf("reservoir %d samples in %d of capacity at skip %d; want 50000 in 65536 at skip 4",
			len(h.samples), cap(h.samples), h.skip)
	}
	if grows != 9 {
		t.Errorf("the reservoir grew %d times; want 9 (256 doubled to 65536)", grows)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(1024), NewHistogram(1024)
	for i := int64(1); i <= 10; i++ {
		a.Observe(i)
		b.Observe(i * 100)
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.sum != 55+5500 {
		t.Fatalf("merged sum = %d", a.sum)
	}
	var bkSum int64
	for _, c := range a.buckets {
		bkSum += c
	}
	if bkSum != 20 {
		t.Fatalf("bucket counts sum to %d, want 20", bkSum)
	}
	if a.Min() != 1 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	var empty Histogram
	before := a.Count()
	a.Merge(&empty)
	if a.Count() != before {
		t.Fatal("merging empty histogram changed count")
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(1 << 20)
		var sum int64
		for _, v := range vals {
			h.Observe(int64(v))
			sum += int64(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(vals))
		return math.Abs(h.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimeModel(t *testing.T) {
	m := DefaultLifetimeModel(262144) // 1GB of 4K pages
	total := m.TotalWritablePages()
	if total <= 0 {
		t.Fatal("non-positive writable pages")
	}
	days := m.LifetimeDays(total / 30)
	if math.Abs(days-30) > 1e-9 {
		t.Fatalf("LifetimeDays = %f, want 30", days)
	}
	if m.LifetimeDays(0) != 0 {
		t.Fatal("zero write rate should yield 0 (undefined) lifetime")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(510, 100); math.Abs(got-5.1) > 1e-9 {
		t.Fatalf("Improvement = %f, want 5.1", got)
	}
	if Improvement(10, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
}

func TestTableRendering(t *testing.T) {
	s := []Series{
		{Label: "WT", X: []float64{50, 100}, Y: []float64{0.5, 0.6}},
		{Label: "KDD-25%", X: []float64{50, 100}, Y: []float64{0.45}},
	}
	out := Table("Fig 5 (Fin1)", "cache(Kpages)", s)
	if !strings.Contains(out, "Fig 5 (Fin1)") || !strings.Contains(out, "WT") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.4500") || !strings.Contains(out, "-") {
		t.Fatalf("table missing values / placeholder:\n%s", out)
	}
	if Table("empty", "x", nil) == "" {
		t.Fatal("empty table should still include a title")
	}
}

// TestHistogramMergeWeighted pins the weight-aware reservoir merge: a
// long heavily-decimated run merged with a short skip=1 run must not let
// the short run's raw samples swamp the merged percentiles (each sample
// stands for `skip` observations, and the two sides' rates differ).
func TestHistogramMergeWeighted(t *testing.T) {
	a, b := NewHistogram(128), NewHistogram(128)
	for i := int64(0); i < 100000; i++ {
		a.Observe(i) // uniform 0..100k, reservoir decimated ~1000x
	}
	for i := int64(0); i < 200; i++ {
		b.Observe(1000000) // 0.2% of the merged observations
	}
	a.Merge(b)
	if len(a.samples) >= a.maxSamples {
		t.Fatalf("merged reservoir has %d samples, bound %d", len(a.samples), a.maxSamples)
	}
	if a.Count() != 100200 || a.Max() != 1000000 {
		t.Fatalf("merged count/max = %d/%d", a.Count(), a.Max())
	}
	// With weight-aware thinning the median stays in the long run's
	// range; the old concatenating merge pulled it to 1000000 because
	// the short run contributed 200 of ~264 reservoir samples.
	if p50 := a.Percentile(50); p50 < 25000 || p50 > 75000 {
		t.Fatalf("P50 after weighted merge = %d, want ~50000", p50)
	}

	// Merging in the other direction must thin the receiver's own
	// skip=1 reservoir up to the argument's coarser rate.
	c := NewHistogram(128)
	for i := int64(0); i < 200; i++ {
		c.Observe(1000000)
	}
	d := NewHistogram(128)
	for i := int64(0); i < 100000; i++ {
		d.Observe(i)
	}
	c.Merge(d)
	if len(c.samples) >= c.maxSamples {
		t.Fatalf("merged reservoir has %d samples, bound %d", len(c.samples), c.maxSamples)
	}
	if p50 := c.Percentile(50); p50 < 25000 || p50 > 75000 {
		t.Fatalf("P50 after reverse weighted merge = %d, want ~50000", p50)
	}

	// Two nearly-full same-rate reservoirs: the naive merge exceeded
	// maxSamples; the fixed one re-decimates back under the bound.
	e, f := NewHistogram(128), NewHistogram(128)
	for i := int64(0); i < 100; i++ {
		e.Observe(i)
		f.Observe(i + 100)
	}
	e.Merge(f)
	if len(e.samples) >= e.maxSamples {
		t.Fatalf("same-rate merge reservoir has %d samples, bound %d", len(e.samples), e.maxSamples)
	}
	if e.skip != 2 {
		t.Fatalf("same-rate merge skip = %d, want 2 after one halving", e.skip)
	}
}

// observeOracle is Observe as it was first written: the bucket index by a
// shift loop, the reservoir stride by a modulo.
func observeOracle(h *Histogram, v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	idx := 0
	for x := v; x > 1 && idx < 63; x >>= 1 {
		idx++
	}
	h.buckets[idx]++
	if h.count%h.skip == 0 {
		h.samples = append(h.samples, v)
		if len(h.samples) >= h.maxSamples {
			half := h.samples[:0]
			for i := 0; i < len(h.samples); i += 2 {
				half = append(half, h.samples[i])
			}
			h.samples = half
			h.skip *= 2
		}
	}
}

// histogramValues is the edge cases of the bucket index — 0, 1, negatives,
// 2^k-1, 2^k and 2^k+1 for every k, the int64 extremes — then n random
// values of random magnitude.
func histogramValues(n int, seed uint64) []int64 {
	vals := []int64{0, 1, -1, -2, -1 << 40, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals = append(vals, int64(x>>(x%64)))
	}
	return vals
}

func sameHistogram(t *testing.T, what string, got, want *Histogram) {
	t.Helper()
	if got.count != want.count || got.sum != want.sum || got.min != want.min || got.max != want.max ||
		got.buckets != want.buckets || got.skip != want.skip || !slices.Equal(got.samples, want.samples) {
		t.Fatalf("%s: Observe diverges from the shift-loop oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestObserveMatchesShiftLoopOracle: buckets, count, sum, extremes, the
// decimation factor and every reservoir sample are what the shift-loop,
// modulo Observe produced, through many reservoir halvings; and merging
// histograms that decimated at different rates gives the same result
// whichever way they were filled.
func TestObserveMatchesShiftLoopOracle(t *testing.T) {
	vals := histogramValues(20000, 0x9E3779B97F4A7C15)
	for _, maxSamples := range []int{4, 17, 128, 1 << 16} {
		got, want := NewHistogram(maxSamples), NewHistogram(maxSamples)
		for i, v := range vals {
			got.Observe(v)
			observeOracle(want, v)
			if i < 200 || i%997 == 0 {
				sameHistogram(t, fmt.Sprintf("maxSamples %d, value %d (%d)", maxSamples, i, v), got, want)
			}
		}
		sameHistogram(t, fmt.Sprintf("maxSamples %d, end", maxSamples), got, want)
	}

	// Merge: a long, heavily decimated run and a short one, both ways round.
	fill := func(n int, seed uint64, observe func(*Histogram, int64)) *Histogram {
		h := NewHistogram(64)
		for _, v := range histogramValues(n, seed)[:n] {
			observe(h, v)
		}
		return h
	}
	obs := func(h *Histogram, v int64) { h.Observe(v) }
	for _, sizes := range [][2]int{{100, 30000}, {30000, 100}, {5000, 5000}} {
		got, want := fill(sizes[0], 1, obs), fill(sizes[0], 1, observeOracle)
		got.Merge(fill(sizes[1], 2, obs))
		want.Merge(fill(sizes[1], 2, observeOracle))
		sameHistogram(t, fmt.Sprintf("merge %v", sizes), got, want)
		if got.skip&(got.skip-1) != 0 {
			t.Fatalf("merge %v: skip %d is not a power of two", sizes, got.skip)
		}
		for _, v := range histogramValues(3000, 3) {
			got.Observe(v)
			observeOracle(want, v)
		}
		sameHistogram(t, fmt.Sprintf("merge %v, then observe", sizes), got, want)
	}
}

// percentileOracle is Percentile as it was before slices.Sort: a copy of
// the reservoir sorted with sort.Slice.
func percentileOracle(h *Histogram, p float64) int64 {
	if len(h.samples) == 0 {
		return 0
	}
	s := make([]int64, len(h.samples))
	copy(s, h.samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	return s[int(p/100*float64(len(s)-1))]
}

// TestPercentileMatchesSortSliceOracle: over random and duplicate-heavy
// reservoirs of several sizes, through decimation, Percentile returns what
// the sort.Slice version returned and leaves the reservoir's order alone.
func TestPercentileMatchesSortSliceOracle(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 49152, 200_000} {
		random := histogramValues(n, uint64(n)+1)
		dups := make([]int64, len(random))
		for i, v := range random {
			dups[i] = v % 5
		}
		for name, vals := range map[string][]int64{"random": random, "duplicate-heavy": dups} {
			h := NewHistogram(1 << 16)
			for _, v := range vals {
				h.Observe(v)
			}
			before := slices.Clone(h.samples)
			for _, p := range []float64{0, 50, 99, 100} {
				if got, want := h.Percentile(p), percentileOracle(h, p); got != want {
					t.Errorf("%s, %d values: p%v = %d, want %d", name, len(vals), p, got, want)
				}
			}
			if !slices.Equal(h.samples, before) {
				t.Errorf("%s, %d values: Percentile reordered the reservoir", name, len(vals))
			}
		}
	}
}

var sinkHist *Histogram

// BenchmarkHistogramObserve: nanosecond latencies of a replay (hundreds of
// microseconds to tens of milliseconds) into a histogram whose reservoir
// is full, as it is for most of a run.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(1 << 16)
	vals := make([]int64, 4096)
	x := uint64(1)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = 100_000 + int64(x%50_000_000)
	}
	for i := 0; i < 1<<20; i++ {
		h.Observe(vals[i&4095])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&4095])
	}
	sinkHist = h
}
