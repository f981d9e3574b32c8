package harness

import (
	"bytes"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/metalog"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// TestCachedReadPathShared pins the one cached read the SSD-backed
// baselines share: on a timed data stack, a read-only stream must give
// WT, WA and WB the same completion per request, the same bytes and the
// same read counters. LeavO serves the same bytes and counters; its fills
// also cost mapping updates (one metadata page per EntriesPerPage fills),
// whose SSD programs may move its later completions.
func TestCachedReadPathShared(t *testing.T) {
	const footprint, reads = 1024, 3000
	type run struct {
		done []sim.Time
		st   stats.CacheStats
	}
	drive := func(p PolicyKind) run {
		st, err := Build(StackOpts{Policy: p, CachePages: 256, DiskPages: 4096,
			Ways: 32, Timing: true, DataMode: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Preload the footprint straight onto the array, a stripe a call.
		stripe := int(st.Array.StripePages())
		var t0 sim.Time
		for lba := int64(0); lba < footprint; lba += int64(stripe) {
			buf := make([]byte, 0, stripe*blockdev.PageSize)
			for i := range int64(stripe) {
				buf = append(buf, patternPage(lba+i)...)
			}
			c, err := st.Array.WritePages(0, lba, stripe, buf)
			if err != nil {
				t.Fatal(err)
			}
			t0 = sim.MaxTime(t0, c)
		}
		rng := sim.NewRNG(11)
		buf := make([]byte, blockdev.PageSize)
		var r run
		for i := range reads {
			lba := int64(rng.Uint64n(rng.Uint64n(footprint) + 1)) // skewed low: hits and evictions
			c, err := st.Policy.Read(t0+sim.Time(i)*2*sim.Millisecond, lba, buf)
			if err != nil {
				t.Fatalf("%s: read %d: %v", p, lba, err)
			}
			if !bytes.Equal(buf, patternPage(lba)) {
				t.Fatalf("%s: read %d returned the wrong bytes", p, lba)
			}
			r.done = append(r.done, c)
		}
		r.st = *st.Policy.Stats()
		return r
	}
	counters := func(s stats.CacheStats) [5]int64 {
		return [5]int64{s.Reads, s.ReadHits, s.ReadMisses, s.RAIDReads, s.ReadFills}
	}

	wt := drive(PolicyWT)
	if s := wt.st; s.ReadHits == 0 || s.ReadFills == 0 || s.Evictions == 0 {
		t.Fatalf("WT: stream exercises too little: %+v", s)
	}
	for _, p := range []PolicyKind{PolicyWA, PolicyWB, PolicyLeavO} {
		r := drive(p)
		if got, want := counters(r.st), counters(wt.st); got != want {
			t.Errorf("%s: reads/hits/misses/raid reads/fills = %v, WT %v", p, got, want)
		}
		if p == PolicyLeavO {
			if want := r.st.ReadFills / metalog.EntriesPerPage; r.st.MetaWrites != want {
				t.Errorf("LeavO: %d metadata writes for %d fills, want %d", r.st.MetaWrites, r.st.ReadFills, want)
			}
			continue
		}
		for i := range r.done {
			if r.done[i] != wt.done[i] {
				t.Errorf("%s: read %d completes at %v, WT at %v", p, i, r.done[i], wt.done[i])
				break
			}
		}
	}
}
