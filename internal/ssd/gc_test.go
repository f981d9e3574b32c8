package ssd

import (
	"hash/fnv"
	"testing"

	"kddcache/internal/sim"
)

// churn issues n skewed host ops (four writes in five to a hot fifth of
// the pages, one op in sixteen a trim), so GC victims differ widely in
// valid count, and calls each after every op.
func churn(t *testing.T, d *Device, seed uint64, n int, each func(op int)) {
	t.Helper()
	rng := sim.NewRNG(seed)
	pages := d.Pages()
	for op := 0; op < n; op++ {
		lba := int64(rng.Uint64n(uint64(pages)))
		if rng.Intn(5) > 0 {
			lba = int64(rng.Uint64n(uint64(pages / 5)))
		}
		var err error
		if rng.Intn(16) == 0 {
			_, err = d.TrimPages(0, lba, 1)
		} else {
			_, err = d.WritePages(0, lba, 1, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		each(op)
	}
}

func churnCfg() Config {
	cfg := DefaultConfig(4096)
	cfg.PagesPerBlock = 16
	return cfg
}

// TestFreeBlocksAreErased: a block on the free list is erased and idle —
// writePtr 0, nothing valid, not the active block, listed once. It is why
// gcOnce's "fully written" test already excludes free blocks and needs no
// search of the free list.
func TestFreeBlocksAreErased(t *testing.T) {
	d := New("ssd", churnCfg())
	churn(t, d, 3, 60000, func(op int) {
		if op%97 != 0 {
			return
		}
		seen := map[int]bool{}
		for _, b := range d.freeBlocks {
			blk := &d.blocks[b]
			if blk.writePtr != 0 || blk.valid != 0 || b == d.active || seen[b] {
				t.Fatalf("op %d: free block %d: writePtr %d valid %d active %v listed twice %v",
					op, b, blk.writePtr, blk.valid, b == d.active, seen[b])
			}
			seen[b] = true
		}
	})
	if d.Stats().Erases == 0 {
		t.Fatal("the churn never garbage-collected")
	}
}

// TestGCVictimOrderPinned hashes every (victim block, erase count) in GC
// order over 200 k host ops. The constants come from the FTL as it was
// with the free-list search in gcOnce: victim selection did not move.
func TestGCVictimOrderPinned(t *testing.T) {
	const want, wantErases = 0x631c4198ec7c5740, 40488
	d := New("ssd", churnCfg())
	h := fnv.New64a()
	seen := make([]int64, len(d.blocks))
	var erases int64
	churn(t, d, 9, 200000, func(int) {
		if d.erases == erases {
			return
		}
		erases = d.erases
		for b := range d.blocks {
			if e := d.blocks[b].erases; e != seen[b] {
				seen[b] = e
				h.Write([]byte{byte(b), byte(b >> 8), byte(e), byte(e >> 8), byte(e >> 16)})
			}
		}
	})
	if got := h.Sum64(); got != want || erases != wantErases {
		t.Errorf("victim hash %#x over %d erases, pinned %#x over %d", got, erases, want, wantErases)
	}
}

// TestGCCompletionTimesPinned hashes the completion time of every host op
// over a churn whose ops arrive out of order — one in four is submitted
// up to 8 ms ahead of the clock — so the channels hold idle gaps when GC
// relocates into them. The constants come from the FTL as it was with
// one SubmitAt per relocated page: batching a relocation's tail appends
// must leave every completion where it was.
func TestGCCompletionTimesPinned(t *testing.T) {
	const want, wantErases = uint64(0xbad23658618a6e22), 39367
	d := New("ssd", churnCfg())
	rng := sim.NewRNG(11)
	h := fnv.New64a()
	var clock sim.Time
	pages := d.Pages()
	for op := 0; op < 120000; op++ {
		clock += sim.Time(rng.Uint64n(uint64(400 * sim.Microsecond)))
		at := clock
		if rng.Intn(4) == 0 {
			at += sim.Time(rng.Uint64n(uint64(8 * sim.Millisecond)))
		}
		lba := int64(rng.Uint64n(uint64(pages - 4)))
		if rng.Intn(5) > 0 {
			lba = int64(rng.Uint64n(uint64(pages / 5)))
		}
		n := 1 + rng.Intn(4)
		var done sim.Time
		var err error
		switch k := rng.Intn(16); {
		case k == 0:
			done, err = d.TrimPages(at, lba, n)
		case k < 5:
			done, err = d.ReadPages(at, lba, n, nil)
		default:
			done, err = d.WritePages(at, lba, n, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{byte(done), byte(done >> 8), byte(done >> 16), byte(done >> 24),
			byte(done >> 32), byte(done >> 40), byte(done >> 48), byte(done >> 56)})
	}
	if got := h.Sum64(); got != want || d.erases != wantErases {
		t.Errorf("completion hash %#x over %d erases, pinned %#x over %d", got, d.erases, want, wantErases)
	}
}
