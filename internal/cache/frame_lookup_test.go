package cache_test

import (
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// The map[int64]int32 the frame's open-addressing table replaced, kept as
// the reference for every binding the policies make.

// TestFrameLookupMatchesMap drives the binding life cycle of all policies
// against a plain map: admission with eviction (Insert, Release with drop),
// LeavO's version write (Insert of the same LBA into a second slot, which
// rebinds the lookup to the New copy) and its clean (Release without drop,
// Transition), state changes and releases of arbitrary slots. The frame
// is small and the LBAs — dense low pages plus 40-bit ones — outnumber its
// slots, so probe runs form, wrap around the table end and are cut by
// deletions all the time. After every step Lookup agrees with the map on
// every LBA of the universe, bound or not, and CheckInvariants finds every
// cell where probing expects it.
func TestFrameLookupMatchesMap(t *testing.T) {
	const pages, ways, stripe = 64, 8, 4
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		universe := make([]int64, 0, 400)
		for i := int64(0); i < 200; i++ {
			universe = append(universe, i, int64(rng.Uint64n(1<<40)))
		}
		f := cache.NewFrame(pages, ways, stripe)
		m := map[int64]int32{}    // the reference lookup
		twin := map[int64]int32{} // LBA -> its second, unbound copy (LeavO's other version)
		release := func(s int32, drop bool) {
			lba := f.Slot(s).RaidLBA
			if drop && m[lba] == s && f.Slot(s).State != cache.Delta {
				delete(m, lba)
			}
			if tw, ok := twin[lba]; ok && (tw == s || m[lba] != tw) {
				delete(twin, lba) // the pair is broken up; a survivor is just a slot
			}
			f.Release(s, drop)
		}
		slotFor := func(lba int64) int32 {
			set := f.SetOf(lba)
			s := f.AllocFree(set)
			if s == cache.NoSlot {
				if s = f.EvictLRU(set, cache.Clean); s != cache.NoSlot {
					release(s, true)
				}
			}
			return s
		}
		for step := 0; step < 4000; step++ {
			lba := universe[rng.Intn(len(universe))]
			s, bound := m[lba]
			switch op := rng.Intn(10); {
			case op < 4: // admit
				if bound {
					f.Touch(s)
				} else if ns := slotFor(lba); ns != cache.NoSlot {
					f.Insert(lba, ns, cache.Clean)
					m[lba] = ns
				}
			case op < 6: // LeavO version write
				if _, paired := twin[lba]; !bound || paired || f.Slot(s).State != cache.Clean {
					break
				}
				f.Transition(s, cache.Old)
				ns := slotFor(lba)
				if ns == cache.NoSlot {
					f.Transition(s, cache.Clean)
					break
				}
				f.Insert(lba, ns, cache.New)
				m[lba], twin[lba] = ns, s
			case op < 8: // LeavO clean: the unbound copy goes, the bound one is current
				if tw, ok := twin[lba]; ok {
					release(tw, false)
					f.Transition(m[lba], cache.Clean)
				}
			case op < 9: // state change of an arbitrary data slot
				if i := int32(rng.Intn(pages)); f.Slot(i).State != cache.Free && f.Slot(i).State != cache.Delta {
					f.Transition(i, []cache.State{cache.Clean, cache.Old, cache.New}[rng.Intn(3)])
				}
			default: // release of an arbitrary slot, or a DEZ claim
				i := int32(rng.Intn(pages))
				if f.Slot(i).State == cache.Free {
					f.MarkDelta(i)
				} else {
					release(i, true)
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, q := range universe {
				want, ok := m[q]
				if !ok {
					want = cache.NoSlot
				}
				if got := f.Lookup(q); got != want {
					t.Fatalf("seed %d step %d: Lookup(%d) = %d, map says %d", seed, step, q, got, want)
				}
			}
		}
		if len(m) < pages/2 {
			t.Fatalf("seed %d: only %d of %d slots bound at the end; the table was never loaded", seed, len(m), pages)
		}
	}
}

// TestAllocFreeLowestIndex: AllocFree answers from the free bitmap exactly
// what the slot scan it replaced answered — the lowest-indexed Free slot
// of the set — for set sizes below, at and across the 64-slot word.
func TestAllocFreeLowestIndex(t *testing.T) {
	for _, ways := range []int{1, 3, 8, 64, 70, 256} {
		rng := sim.NewRNG(uint64(ways))
		pages := int64(5 * ways)
		f := cache.NewFrame(pages, ways, 4)
		for step := 0; step < 3000; step++ {
			i := int32(rng.Intn(int(pages)))
			switch st := f.Slot(i).State; {
			case st != cache.Free && rng.Intn(3) > 0:
				f.Release(i, true)
			case st == cache.Free && rng.Intn(4) == 0:
				f.MarkDelta(i)
			case st == cache.Free:
				f.Insert(int64(step), i, cache.New) // New: exempt from the set-mapping invariant
			}
			for set := 0; set < f.Sets(); set++ {
				lo, hi := f.SetRange(set)
				want := cache.NoSlot
				for s := lo; s < hi; s++ {
					if f.Slot(s).State == cache.Free {
						want = s
						break
					}
				}
				if got := f.AllocFree(set); got != want {
					t.Fatalf("ways %d step %d: AllocFree(%d) = %d, scan says %d", ways, step, set, got, want)
				}
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("ways %d: %v", ways, err)
		}
	}
}
