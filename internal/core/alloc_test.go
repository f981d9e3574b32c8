package core_test

import (
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/obs"
)

// measureHitAllocs reports allocations per cached read hit and write hit.
func measureHitAllocs(t *testing.T, traced bool) (readHit, writeHit float64) {
	t.Helper()
	var tr *obs.Tracer
	if traced {
		tr = obs.New().Tracer
	}
	r := newRig(t, 1024, func(c *core.Config) { c.Tracer = tr })
	const lba = 17
	r.write(t, lba) // miss: admitted Clean
	r.write(t, lba) // hit: page goes Old with a staged delta
	buf := make([]byte, blockdev.PageSize)
	readHit = testing.AllocsPerRun(200, func() {
		if _, err := r.kdd.Read(0, lba, buf); err != nil {
			t.Fatal(err)
		}
	})
	page := make([]byte, blockdev.PageSize)
	copy(page, r.oracle[lba])
	writeHit = testing.AllocsPerRun(200, func() {
		r.mut.Mutate(page)
		if _, err := r.kdd.Write(0, lba, page); err != nil {
			t.Fatal(err)
		}
	})
	return readHit, writeHit
}

// TestHitAllocRegression pins the allocation budget of the cached hot
// paths. The pre-pool baselines (measured before the page pool and the
// binary span ring landed) were:
//
//	untraced: read hit 1.0 allocs/op, write hit 3.0 allocs/op
//	traced:   read hit 3.0 allocs/op, write hit 3.0 allocs/op
//
// With pooled page buffers a read hit allocates nothing and a write hit
// only allocates its delta encoding (the Delta payload bytes, which are
// retained by the staging area and so cannot be pooled). The ceilings
// below sit halfway between the new steady-state counts and the old
// baselines: loose enough to tolerate an occasional sync.Pool miss
// after a GC, tight enough that reintroducing any per-op page
// allocation or per-span formatting fails the test.
func TestHitAllocRegression(t *testing.T) {
	for _, tc := range []struct {
		traced              bool
		readCeil, writeCeil float64
	}{
		{traced: false, readCeil: 0.5, writeCeil: 2.5},
		{traced: true, readCeil: 0.5, writeCeil: 2.5},
	} {
		rh, wh := measureHitAllocs(t, tc.traced)
		t.Logf("traced=%v read-hit allocs/op=%.2f write-hit allocs/op=%.2f", tc.traced, rh, wh)
		if rh > tc.readCeil {
			t.Errorf("traced=%v: read hit allocates %.2f/op, budget %.1f (pre-pool baseline was 1.0 untraced, 3.0 traced)",
				tc.traced, rh, tc.readCeil)
		}
		if wh > tc.writeCeil {
			t.Errorf("traced=%v: write hit allocates %.2f/op, budget %.1f (pre-pool baseline was 3.0)",
				tc.traced, wh, tc.writeCeil)
		}
	}

	// The cleaner's victim list is frame-owned scratch merged from the
	// recency lists: once warm, selecting a cleanPass batch allocates
	// nothing (it used to build and sort a candidate slice of every Old
	// slot per batch).
	r := newRig(t, 1024)
	for lba := int64(0); lba < 300; lba++ {
		r.write(t, lba)
		r.write(t, lba) // hit: Old
	}
	f := r.kdd.Frame()
	if n := len(f.OldestSlots(cache.Old, 128)); n != 128 {
		t.Fatalf("rig holds %d Old victims, want a full batch of 128", n)
	}
	if a := testing.AllocsPerRun(100, func() { f.OldestSlots(cache.Old, 128) }); a != 0 {
		t.Errorf("OldestSlots allocates %.2f/batch in steady state, want 0", a)
	}
}
