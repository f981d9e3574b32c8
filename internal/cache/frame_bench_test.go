package cache_test

import (
	"fmt"
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// Frame bookkeeping micro-benchmarks at three cache sizes: the cost of a
// victim choice or a recency update must not grow with the slot count
// (OldestSlots: only with the set count, slots/256).

var benchFrameSizes = []int64{4 << 10, 64 << 10, 1 << 20}

// fullFrame returns a 256-way frame with every slot bound, every other
// page Old, and recency shuffled by a round of random touches.
func fullFrame(pages int64) *cache.Frame {
	const stripe = 16
	f := cache.NewFrame(pages, 256, stripe)
	rng := sim.NewRNG(7)
	for lba := int64(0); f.Count(cache.Free) > 0; lba += stripe {
		if s := f.AllocFree(f.SetOf(lba)); s != cache.NoSlot {
			f.Insert(lba, s, cache.Clean)
		}
	}
	for n := int64(0); n < pages; n++ {
		i := int32(rng.Intn(int(pages)))
		f.Touch(i)
		if n%2 == 0 {
			f.Transition(i, cache.Old)
		}
	}
	return f
}

func benchFrame(b *testing.B, run func(b *testing.B, f *cache.Frame)) {
	for _, pages := range benchFrameSizes {
		b.Run(fmt.Sprintf("slots=%d", pages), func(b *testing.B) {
			f := fullFrame(pages)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, f)
		})
	}
}

var benchSink int

// BenchmarkOldestSlots: one cleaner batch of 128 victims.
func BenchmarkOldestSlots(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		for i := 0; i < b.N; i++ {
			benchSink += len(f.OldestSlots(cache.Old, 128))
		}
	})
}

// BenchmarkEvictLRU: one eviction choice, cycling over the sets.
func BenchmarkEvictLRU(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		for i := 0; i < b.N; i++ {
			benchSink += int(f.EvictLRU(i%f.Sets(), cache.Clean))
		}
	})
}

// BenchmarkTouch: one hit's recency update on a random data slot.
func BenchmarkTouch(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		rng := sim.NewRNG(11)
		idx := make([]int32, 1<<16)
		for i := range idx {
			idx[i] = int32(rng.Intn(int(f.Pages())))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Touch(idx[i&(len(idx)-1)])
		}
	})
}

// BenchmarkTransition: a state change with no Touch before it — each set's
// LRU Old slot turns Clean on one pass over the sets and its LRU Clean
// slot turns Old on the next (WB's flush, LeavO, scheme-1 reclaim). The
// oldest slot of one list lands near the old end of the other, so this is
// the longest walk link makes: about ways/2 steps, whatever the slot count.
func BenchmarkTransition(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		for i := 0; i < b.N; i++ {
			set, from, to := i%f.Sets(), cache.Old, cache.Clean
			if i/f.Sets()%2 == 1 {
				from, to = to, from
			}
			f.Transition(f.EvictLRU(set, from), to)
		}
	})
}

// BenchmarkFrameLookupHitMiss: one Lookup on a full frame, alternating a
// bound page with an unbound one (fullFrame binds multiples of its stripe),
// in random order so every probe starts on a cold cell.
func BenchmarkFrameLookupHitMiss(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		const stripe = 16
		rng := sim.NewRNG(13)
		lbas := make([]int64, 1<<16)
		for i := range lbas {
			lbas[i] = int64(rng.Intn(int(f.Pages())))*stripe + int64(i&1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += int(f.Lookup(lbas[i&(len(lbas)-1)]))
		}
	})
}

// BenchmarkFrameAllocFree: the free-slot search in a 256-way set whose
// only free slot is its last, cycling over the sets — what allocDAZ pays
// right after an eviction or a reclaim freed a slot of a full set.
func BenchmarkFrameAllocFree(b *testing.B) {
	benchFrame(b, func(b *testing.B, f *cache.Frame) {
		for set := 0; set < f.Sets(); set++ {
			_, hi := f.SetRange(set)
			f.Release(hi-1, true)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += int(f.AllocFree(i % f.Sets()))
		}
	})
}
