package metalog

import (
	"runtime"
	"slices"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestRingRetainsPageBytes: a fresh log driven one lap around its ring
// retains at most npages × PageSize bytes for §III-C's per-page lists —
// each slot keeps its page image and nothing else — beyond the where
// table, the NVRAM buffer and the slot headers. Per-slot []Entry lists
// allocated at a page of Clean entries retained about 9 KiB a slot.
func TestRingRetainsPageBytes(t *testing.T) {
	const npages = 1024
	dev := blockdev.NewNullDevice("ssd", 1<<16)
	rng := sim.NewRNG(3)
	before := liveHeap()
	l := mustNew(dev, npages)
	for l.Stats().PagesWritten < npages {
		e := Entry{State: StateClean, DazPage: uint32(rng.Uint64n(60000)), DezPage: NoDez, RaidLBA: 7}
		if _, err := l.Put(0, e); err != nil {
			t.Fatal(err)
		}
	}
	retained := liveHeap() - before
	runtime.KeepAlive(l)
	const entryBytes, sliceHeader = 20, 24
	budget := int64(npages*blockdev.PageSize) + // the page images
		dev.Pages()*4 + npages*sliceHeader + bufEntries*entryBytes + // where, slot headers, buffer
		64<<10 // the Log and allocator slack
	t.Logf("one lap over %d slots retains %d bytes (%.0f a slot), budget %d", npages, retained, float64(retained)/npages, budget)
	if retained > budget {
		t.Fatalf("one lap over %d slots retains %d bytes, budget %d: the page lists outgrew the pages", npages, retained, budget)
	}
}

// TestGCMatchesEntryListReference holds log GC, which decodes each head
// page's image, to the per-page []Entry lists of the map model (mapLog):
// on partitions of two to five pages nearly every commit reclaims a head
// page, and after every Put or Flush the stats and the NVRAM buffer's
// order agree. Midway, the data-mode arm crashes both logs and recovers
// them, so the rest of the run collects pages that Recover read back from
// flash into their slots.
func TestGCMatchesEntryListReference(t *testing.T) {
	for _, data := range []bool{true, false} {
		for npages := int64(2); npages <= 5; npages++ {
			newDev := func() blockdev.Device {
				if data {
					return blockdev.NewNullDataDevice("ssd", 64)
				}
				return blockdev.NewNullDevice("ssd", 64)
			}
			devL, devM := newDev(), newDev()
			l, m := mustNew(devL, npages), newMapLog(devM, npages)
			rng := sim.NewRNG(uint64(npages))
			const steps = 6000
			for step := 0; step < steps; step++ {
				var errL, errM error
				if rng.Intn(50) == 0 {
					_, errL = l.Flush(0)
					errM = m.flushAll()
				} else {
					// Few keys: most entries supersede one a head page holds.
					e := randomEntry(rng, 24*int(npages))
					_, errL = l.Put(0, e)
					errM = m.put(e)
				}
				if (errL == nil) != (errM == nil) {
					t.Fatalf("data=%v npages=%d step %d: err %v, reference %v", data, npages, step, errL, errM)
				}
				if l.Stats() != m.stats || !slices.Equal(l.BufferedEntries(), m.buffered()) {
					t.Fatalf("data=%v npages=%d step %d: stats %+v, reference %+v (or the buffers differ)",
						data, npages, step, l.Stats(), m.stats)
				}
				if data && step == steps/2 {
					ctrL, ctrM := *l.Counters(), *m.ctr
					statsL, statsM := l.Stats(), m.stats
					l = mustRestore(devL, npages, &ctrL, l.BufferedEntries())
					m = restoreMapLog(devM, npages, &ctrM, m.buffered())
					l.stats, m.stats = statsL, statsM
					replay, _, err := l.Recover(0)
					if err != nil {
						t.Fatal(err)
					}
					if want := m.recover(t); !slices.Equal(replay, want) {
						t.Fatalf("npages=%d: replay of %d entries, reference %d", npages, len(replay), len(want))
					}
				}
			}
			if st := l.Stats(); st.GCRuns < st.PagesWritten/2 || st.ReinsertedEntries == 0 {
				t.Fatalf("data=%v npages=%d: %d GC runs over %d pages, %d re-logged: GC was not exercised",
					data, npages, st.GCRuns, st.PagesWritten, st.ReinsertedEntries)
			}
		}
	}
}
