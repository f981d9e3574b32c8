package cache_test

import (
	"fmt"
	"sort"
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// The scan-and-sort victim selection the recency lists replaced, kept as
// the reference: every choice the lists make must be the one a full scan
// of the slots makes, ties on LastUse going to the lower slot index.

// scanOldest is the reference OldestSlots.
func scanOldest(f *cache.Frame, state cache.State, n int) []int32 {
	var cands []int32
	for i := int32(0); int64(i) < f.Pages(); i++ {
		if f.Slot(i).State == state {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ua, ub := f.Slot(cands[a]).LastUse, f.Slot(cands[b]).LastUse
		return ua < ub || (ua == ub && cands[a] < cands[b])
	})
	if n < len(cands) {
		cands = cands[:n]
	}
	return cands
}

// scanEvictLRU is the reference EvictLRU.
func scanEvictLRU(f *cache.Frame, set int, evictable ...cache.State) int32 {
	lo, hi := f.SetRange(set)
	best := cache.NoSlot
	for i := lo; i < hi; i++ {
		ok := false
		for _, e := range evictable {
			ok = ok || f.Slot(i).State == e
		}
		if ok && (best == cache.NoSlot || f.Slot(i).LastUse < f.Slot(best).LastUse) {
			best = i
		}
	}
	return best
}

// scanLeastDeltaSet is the reference LeastDeltaSet: the first set, in
// index order, with a Free slot and the fewest Delta pages, among the
// reserved sets only under a fixed partition.
func scanLeastDeltaSet(f *cache.Frame) int {
	start := 0
	if f.DataSets() < f.Sets() {
		start = f.DataSets()
	}
	best, bestDelta := -1, 0
	for set := start; set < f.Sets(); set++ {
		lo, hi := f.SetRange(set)
		free, deltas := 0, 0
		for i := lo; i < hi; i++ {
			switch f.Slot(i).State {
			case cache.Free:
				free++
			case cache.Delta:
				deltas++
			}
		}
		if free > 0 && (best == -1 || deltas < bestDelta) {
			best, bestDelta = set, deltas
		}
	}
	return best
}

// checkAgainstScan compares every list-backed query with its reference.
func checkAgainstScan(f *cache.Frame) error {
	if err := f.CheckInvariants(); err != nil {
		return err
	}
	for _, st := range []cache.State{cache.Clean, cache.Old, cache.New} {
		for _, n := range []int{1, 7, int(f.Pages())} {
			got, want := f.OldestSlots(st, n), scanOldest(f, st, n)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("OldestSlots(%v, %d) = %v, scan says %v", st, n, got, want)
			}
		}
	}
	for set := 0; set < f.Sets(); set++ {
		for _, ev := range [][]cache.State{
			{cache.Clean}, {cache.Old}, {cache.New}, {cache.Clean, cache.Old}, {cache.New, cache.Old, cache.Clean},
		} {
			if got, want := f.EvictLRU(set, ev...), scanEvictLRU(f, set, ev...); got != want {
				return fmt.Errorf("EvictLRU(%d, %v) = %d, scan says %d", set, ev, got, want)
			}
		}
	}
	if got, want := f.LeastDeltaSet(), scanLeastDeltaSet(f); got != want {
		return fmt.Errorf("LeastDeltaSet = %d, scan says %d", got, want)
	}
	return nil
}

// TestFrameListsMatchScan drives random Insert / Touch / Transition /
// MarkDelta / Release sequences — including state changes with no
// preceding Touch, as the write-back cleaner, KDD's materialising reclaim
// and recovery make, and never-stamped slots whose LastUse ties — and
// checks every victim choice against the scan after each step.
func TestFrameListsMatchScan(t *testing.T) {
	data := []cache.State{cache.Clean, cache.Old, cache.New}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		const pages, ways, stripe = 96, 12, 4
		f := cache.NewFrame(pages, ways, stripe)
		pick := func(want func(cache.State) bool) int32 {
			start := int32(rng.Intn(pages))
			for k := int32(0); k < pages; k++ {
				if i := (start + k) % pages; want(f.Slot(i).State) {
					return i
				}
			}
			return cache.NoSlot
		}
		isData := func(s cache.State) bool { return s != cache.Free && s != cache.Delta }
		isFree := func(s cache.State) bool { return s == cache.Free }
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // admit a page, evicting the set's LRU data page if full
				lba := int64(rng.Intn(4 * pages))
				if f.Lookup(lba) != cache.NoSlot {
					f.Touch(f.Lookup(lba))
					break
				}
				set := f.SetOf(lba)
				s := f.AllocFree(set)
				if s == cache.NoSlot {
					if s = f.EvictLRU(set, data...); s == cache.NoSlot {
						break
					}
					f.Release(s, true)
				}
				f.Insert(lba, s, data[rng.Intn(len(data))])
			case op < 5:
				if i := pick(isData); i != cache.NoSlot {
					f.Touch(i)
				}
			case op < 7: // state change with no Touch
				if i := pick(isData); i != cache.NoSlot {
					f.Transition(i, data[rng.Intn(len(data))])
				}
			case op == 7: // a slot that was never stamped, or carries a stale stamp
				if i := pick(isFree); i != cache.NoSlot {
					f.Transition(i, data[rng.Intn(len(data))])
				}
			case op == 8:
				if i := pick(isFree); i != cache.NoSlot {
					f.MarkDelta(i)
				}
			default:
				if i := int32(rng.Intn(pages)); f.Slot(i).State != cache.Free {
					f.Release(i, true)
				}
			}
			if err := checkAgainstScan(f); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestLeastDeltaSetMatchesScan holds the incrementally kept LeastDeltaSet
// to a scan of the slots after every step of random DEZ claims, data
// admissions and releases, on set counts that are and are not powers of
// two, under dynamic mixing and under the fixed partition. DEZ claims fill the
// least-loaded set, as KDD's do, so many sets tie and the lowest index
// must win.
func TestLeastDeltaSetMatchesScan(t *testing.T) {
	for _, sets := range []int{1, 2, 5, 8, 13} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewRNG(seed*31 + uint64(sets))
			const ways = 4
			pages := int64(sets * ways)
			f := cache.NewFrame(pages, ways, 1)
			if seed%2 == 0 && sets > 1 { // fixed partition
				f.SetDataSets(1 + rng.Intn(sets-1))
			}
			for step := 0; step < 800; step++ {
				switch op := rng.Intn(4); {
				case op == 0: // a DEZ page where KDD would put it
					if set := f.LeastDeltaSet(); set >= 0 {
						f.MarkDelta(f.AllocFree(set))
					}
				case op == 1: // a data page
					lba := int64(rng.Intn(1 << 20))
					if f.Lookup(lba) != cache.NoSlot {
						break
					}
					if s := f.AllocFree(f.SetOf(lba)); s != cache.NoSlot {
						f.Insert(lba, s, cache.Clean)
					}
				default:
					if i := int32(rng.Intn(int(pages))); f.Slot(i).State != cache.Free {
						f.Release(i, true)
					}
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("sets %d seed %d step %d: %v", sets, seed, step, err)
				}
				if got, want := f.LeastDeltaSet(), scanLeastDeltaSet(f); got != want {
					t.Fatalf("sets %d seed %d step %d: LeastDeltaSet = %d, scan says %d", sets, seed, step, got, want)
				}
			}
		}
	}
}
