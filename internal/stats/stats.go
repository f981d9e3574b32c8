// Package stats collects the metrics the paper's evaluation reports:
// cache hit ratios, SSD write traffic broken down by cause, response-time
// distributions, and SSD lifetime estimates.
package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// CacheStats accumulates the counters the trace-driven simulator reports
// after each run (paper §IV-A1). All values count 4KB pages or requests.
type CacheStats struct {
	// Request counters.
	Reads      int64 // read requests (pages)
	Writes     int64 // write requests (pages)
	ReadHits   int64
	WriteHits  int64
	ReadMisses int64
	WriteMiss  int64

	// SSD write traffic, broken down by cause (pages written to flash).
	ReadFills    int64 // cache fill on read miss
	WriteAllocs  int64 // data written to DAZ/cache on writes
	DeltaCommits int64 // DEZ pages written (KDD only)
	VersionWrite int64 // new-version pages (LeavO only)
	MetaWrites   int64 // metadata pages written (LeavO per-update, KDD log)
	MetaGCWrites int64 // metadata pages rewritten by log GC (KDD only)

	// Cache management.
	Evictions        int64 // clean-page evictions
	Reclaims         int64 // old/delta page reclaims by the cleaner
	CleanerRuns      int64
	AdmissionRejects int64 // misses not cached (selective admission)

	// RAID-side operations (block I/Os issued to the array).
	RAIDReads        int64
	RAIDWrites       int64
	ParityUpdates    int64 // deferred parity repairs performed
	SmallWritesSaved int64 // writes that skipped the parity update

	// Partial-fault handling (media errors on the cache device).
	MediaRetries   int64 // SSD reads retried after a transient media error
	SSDMediaErrors int64 // SSD media errors that persisted past the retries
	MediaFallbacks int64 // operations served from RAID after losing SSD pages
	RowsHealed     int64 // rows re-materialised and resynced after media loss

	// Whole-device failover (cache health state machine).
	Failovers      int64 // transitions into pass-through (Bypass or Degraded)
	BreakerTrips   int64 // circuit-breaker trips on media-error rate
	BreakerProbes  int64 // half-open probes issued while Degraded
	EmergencyFolds int64 // emergency stale-parity folds run on failover
	FoldRMWs       int64 // rows folded cheaply from NVRAM-staged deltas
	FoldResyncs    int64 // rows folded the hard way via member resync
	PassReads      int64 // reads served in pass-through mode
	PassWrites     int64 // writes served in pass-through mode
	Reattaches     int64 // successful cache re-attachments

	// Online member rebuild (the cache paces the array's rebuild engine).
	RebuildSteps  int64 // rebuild steps pumped between foreground ops
	RebuildRows   int64 // member rows reconstructed by pumped steps
	RebuildsDone  int64 // member rebuilds driven to completion by the pump
	SpareAttaches int64 // hot spares auto-attached to failed members
}

// Requests returns the total number of request pages processed.
func (s *CacheStats) Requests() int64 { return s.Reads + s.Writes }

// Hits returns total cache hits.
func (s *CacheStats) Hits() int64 { return s.ReadHits + s.WriteHits }

// HitRatio returns overall hit ratio in [0,1].
func (s *CacheStats) HitRatio() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(s.Requests())
}

// ReadHitRatio returns the read hit ratio in [0,1].
func (s *CacheStats) ReadHitRatio() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}

// SSDWrites returns total pages written to the SSD: the metric Figures 6,
// 8 and 11 plot and the one SSD lifetime is proportional to.
func (s *CacheStats) SSDWrites() int64 {
	return s.ReadFills + s.WriteAllocs + s.DeltaCommits + s.VersionWrite +
		s.MetaWrites + s.MetaGCWrites
}

// MetaShare returns the fraction of SSD write traffic due to metadata,
// the quantity Figure 4 plots.
func (s *CacheStats) MetaShare() float64 {
	tot := s.SSDWrites()
	if tot == 0 {
		return 0
	}
	return float64(s.MetaWrites+s.MetaGCWrites) / float64(tot)
}

// Add accumulates o into s.
func (s *CacheStats) Add(o *CacheStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadHits += o.ReadHits
	s.WriteHits += o.WriteHits
	s.ReadMisses += o.ReadMisses
	s.WriteMiss += o.WriteMiss
	s.ReadFills += o.ReadFills
	s.WriteAllocs += o.WriteAllocs
	s.DeltaCommits += o.DeltaCommits
	s.VersionWrite += o.VersionWrite
	s.MetaWrites += o.MetaWrites
	s.MetaGCWrites += o.MetaGCWrites
	s.Evictions += o.Evictions
	s.Reclaims += o.Reclaims
	s.CleanerRuns += o.CleanerRuns
	s.AdmissionRejects += o.AdmissionRejects
	s.RAIDReads += o.RAIDReads
	s.RAIDWrites += o.RAIDWrites
	s.ParityUpdates += o.ParityUpdates
	s.SmallWritesSaved += o.SmallWritesSaved
	s.MediaRetries += o.MediaRetries
	s.SSDMediaErrors += o.SSDMediaErrors
	s.MediaFallbacks += o.MediaFallbacks
	s.RowsHealed += o.RowsHealed
	s.Failovers += o.Failovers
	s.BreakerTrips += o.BreakerTrips
	s.BreakerProbes += o.BreakerProbes
	s.EmergencyFolds += o.EmergencyFolds
	s.FoldRMWs += o.FoldRMWs
	s.FoldResyncs += o.FoldResyncs
	s.PassReads += o.PassReads
	s.PassWrites += o.PassWrites
	s.Reattaches += o.Reattaches
	s.RebuildSteps += o.RebuildSteps
	s.RebuildRows += o.RebuildRows
	s.RebuildsDone += o.RebuildsDone
	s.SpareAttaches += o.SpareAttaches
}

func (s *CacheStats) String() string {
	return fmt.Sprintf(
		"reqs=%d hit=%.4f ssdWrites=%d (fill=%d alloc=%d delta=%d ver=%d meta=%d gc=%d) raidR=%d raidW=%d",
		s.Requests(), s.HitRatio(), s.SSDWrites(), s.ReadFills, s.WriteAllocs,
		s.DeltaCommits, s.VersionWrite, s.MetaWrites, s.MetaGCWrites,
		s.RAIDReads, s.RAIDWrites)
}

// Histogram is a latency histogram with power-of-two-ish buckets plus an
// exact mean. Values are arbitrary int64 units (we use nanoseconds).
type Histogram struct {
	count int64
	sum   int64
	min   int64
	max   int64
	// buckets[i] counts values in [2^i, 2^(i+1)); values <1 land in 0.
	buckets [64]int64
	// A bounded reservoir of raw samples for exact percentiles.
	samples    []int64
	maxSamples int
	skip       int64 // reservoir decimation factor: 1, doubled per halving, a power of two
}

// NewHistogram returns a histogram keeping at most maxSamples raw values
// for percentile queries (decimated uniformly once the limit is reached).
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 1 << 16
	}
	return &Histogram{maxSamples: maxSamples, skip: 1}
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucket(v)]++
	if h.count&(h.skip-1) == 0 { // count % skip: skip is a power of two
		h.samples = append(h.samples, v)
		if len(h.samples) >= h.maxSamples {
			// Halve the reservoir, double the decimation.
			half := h.samples[:0]
			for i := 0; i < len(h.samples); i += 2 {
				half = append(half, h.samples[i])
			}
			h.samples = half
			h.skip *= 2
		}
	}
}

// bucket returns the bucket index of v: floor(log2 v), 0 for v <= 1.
func bucket(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean of all observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the approximate p-th percentile (p in [0,100]) from
// the sample reservoir.
func (h *Histogram) Percentile(p float64) int64 {
	if len(h.samples) == 0 {
		return 0
	}
	// Sort a copy: the reservoir's order is what decimation thins.
	s := slices.Clone(h.samples)
	slices.Sort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// Merge folds o into h. Percentile accuracy after merging is limited by
// both reservoirs. o is not modified.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	// Each reservoir sample stands for `skip` raw observations, and the
	// two sides may have decimated at different rates (a long run merged
	// with a short one). Thin both sides to the coarser of the two rates
	// before concatenating so neither is over-represented in merged
	// percentiles, then keep halving until the result respects h's
	// reservoir bound (restoring Observe's len < maxSamples invariant).
	hSkip, oSkip := h.skip, o.skip
	if hSkip <= 0 {
		hSkip = 1
	}
	if oSkip <= 0 {
		oSkip = 1
	}
	skip := hSkip
	if oSkip > skip {
		skip = oSkip
	}
	merged := make([]int64, 0, len(h.samples)+len(o.samples))
	merged = thin(merged, h.samples, skip/hSkip)
	merged = thin(merged, o.samples, skip/oSkip)
	if h.maxSamples > 0 {
		for len(merged) >= h.maxSamples {
			half := merged[:0]
			for i := 0; i < len(merged); i += 2 {
				half = append(half, merged[i])
			}
			merged = half
			skip *= 2
		}
	}
	h.samples, h.skip = merged, skip
}

// thin appends every step-th element of s to dst. Decimation factors
// only ever double, so step is always an exact power-of-two ratio of
// two skip rates.
func thin(dst, s []int64, step int64) []int64 {
	for i := 0; i < len(s); i += int(step) {
		dst = append(dst, s[i])
	}
	return dst
}

// LifetimeModel estimates SSD cache lifetime from write traffic, following
// the paper's reasoning: lifetime is inversely proportional to the bytes
// written to flash (§IV-A3 reports lifetime improvement as the ratio of
// write traffics).
type LifetimeModel struct {
	CapacityPages  int64   // SSD capacity in pages
	PagesPerBlock  int64   // flash pages per erase block
	PECycles       int64   // program/erase budget per block (MLC ~10k)
	WriteAmplifier float64 // FTL write amplification factor (>= 1)
}

// DefaultLifetimeModel describes the 1GB MLC cache device used in §IV-B.
func DefaultLifetimeModel(capacityPages int64) LifetimeModel {
	return LifetimeModel{
		CapacityPages:  capacityPages,
		PagesPerBlock:  128,
		PECycles:       10000,
		WriteAmplifier: 1.1,
	}
}

// TotalWritablePages returns how many host page writes the device endures
// before wear-out under this model.
func (m LifetimeModel) TotalWritablePages() float64 {
	return float64(m.CapacityPages) * float64(m.PECycles) / m.WriteAmplifier
}

// LifetimeDays estimates lifetime in days given a host write rate in
// pages/day.
func (m LifetimeModel) LifetimeDays(pagesPerDay float64) float64 {
	if pagesPerDay <= 0 {
		return 0
	}
	return m.TotalWritablePages() / pagesPerDay
}

// Improvement returns how much longer a device lasts writing `mine` pages
// instead of `theirs` for the same workload (the paper's "5.1×" metric).
func Improvement(theirs, mine int64) float64 {
	if mine <= 0 {
		return 0
	}
	return float64(theirs) / float64(mine)
}

// Series is a labelled sequence of (x, y) points: one curve in a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table renders labelled series as an aligned text table with one row per
// x value, matching how the harness prints each paper figure.
func Table(title, xName string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s", xName)
	for _, s := range series {
		fmt.Fprintf(&b, "%14s", s.Label)
	}
	b.WriteByte('\n')
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-14.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%14.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
