package nvram

import (
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
	"kddcache/internal/sim"
)

func sd(daz int64, n int) StagedDelta {
	return StagedDelta{DazPage: daz, RaidLBA: daz * 10, D: delta.Delta{Len: n}}
}

func TestStagingPutGetDrop(t *testing.T) {
	s := NewStaging(4*blockdev.PageSize, 0, 1<<16)
	s.Put(sd(1, 100))
	s.Put(sd(2, 200))
	if s.Len() != 2 || s.Bytes() != 300 {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.Bytes())
	}
	d, ok := s.Get(1)
	if !ok || d.D.Len != 100 {
		t.Fatalf("Get(1) = %+v, %v", d, ok)
	}
	s.Drop(1)
	if _, ok := s.Get(1); ok {
		t.Fatal("dropped delta still present")
	}
	if s.Bytes() != 200 || s.Invalidated != 1 {
		t.Fatalf("bytes=%d invalidated=%d", s.Bytes(), s.Invalidated)
	}
	s.Drop(99) // no-op
}

func TestStagingCoalescing(t *testing.T) {
	s := NewStaging(4*blockdev.PageSize, 0, 1<<16)
	s.Put(sd(7, 500))
	s.Put(sd(7, 50)) // newer delta replaces older in place
	if s.Len() != 1 || s.Bytes() != 50 || s.Coalesced != 1 {
		t.Fatalf("len=%d bytes=%d coalesced=%d", s.Len(), s.Bytes(), s.Coalesced)
	}
	d, _ := s.Get(7)
	if d.D.Len != 50 {
		t.Fatal("old delta survived coalescing")
	}
}

func TestStagingFullAndPackPageFIFO(t *testing.T) {
	s := NewStaging(blockdev.PageSize, 0, 1<<16)
	for i := int64(0); i < 5; i++ {
		s.Put(sd(i, 1000))
	}
	if !s.Full() {
		t.Fatal("buffer should be full")
	}
	packed := s.PackPage()
	// 4 deltas of 1000 bytes fit a 4096-byte page; FIFO order.
	if len(packed) != 4 {
		t.Fatalf("packed %d deltas, want 4", len(packed))
	}
	for i, d := range packed {
		if d.DazPage != int64(i) {
			t.Fatalf("packed out of FIFO order: %v", packed)
		}
	}
	if s.Len() != 1 || s.Bytes() != 1000 {
		t.Fatalf("leftover len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestStagingPackSkipsTombstones(t *testing.T) {
	s := NewStaging(blockdev.PageSize, 0, 1<<16)
	s.Put(sd(1, 1000))
	s.Put(sd(2, 1000))
	s.Put(sd(3, 1000))
	s.Drop(2)
	packed := s.PackPage()
	if len(packed) != 2 || packed[0].DazPage != 1 || packed[1].DazPage != 3 {
		t.Fatalf("packed = %+v", packed)
	}
	if s.Len() != 0 {
		t.Fatalf("leftover %d", s.Len())
	}
}

func TestStagingPackEmptyReturnsNil(t *testing.T) {
	s := NewStaging(blockdev.PageSize, 0, 1<<16)
	if got := s.PackPage(); got != nil {
		t.Fatalf("PackPage on empty = %v", got)
	}
}

func TestStagingOversizeDeltaAlonePerPage(t *testing.T) {
	s := NewStaging(blockdev.PageSize, 0, 1<<16)
	s.Put(sd(1, blockdev.PageSize)) // raw full-page delta
	s.Put(sd(2, 10))
	packed := s.PackPage()
	if len(packed) != 1 || packed[0].DazPage != 1 {
		t.Fatalf("packed = %+v", packed)
	}
	packed = s.PackPage()
	if len(packed) != 1 || packed[0].DazPage != 2 {
		t.Fatalf("second pack = %+v", packed)
	}
}

func TestStagingAllSurvivesForRecovery(t *testing.T) {
	s := NewStaging(8*blockdev.PageSize, 0, 1<<16)
	s.Put(sd(1, 10))
	s.Put(sd(2, 20))
	s.Drop(1)
	all := s.All()
	if len(all) != 1 || all[0].DazPage != 2 {
		t.Fatalf("All = %+v", all)
	}
}

func TestStagingIndexConsistentAfterPack(t *testing.T) {
	s := NewStaging(blockdev.PageSize, 0, 1<<16)
	for i := int64(0); i < 8; i++ {
		s.Put(sd(i, 700))
	}
	s.PackPage()
	// Remaining deltas must still be addressable and coalescible.
	for i := int64(0); i < 8; i++ {
		if d, ok := s.Get(i); ok {
			s.Put(sd(i, d.D.Len/2))
		}
	}
	if s.Len() == 0 {
		t.Fatal("expected leftovers after single pack")
	}
	for _, d := range s.All() {
		if got, ok := s.Get(d.DazPage); !ok || got.D.Len != d.D.Len {
			t.Fatal("index out of sync with fifo")
		}
	}
}

func TestStagingPanicsOnTinyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStaging(100, 0, 1<<16)
}

func TestCountersLive(t *testing.T) {
	c := Counters{Head: 3, Tail: 10}
	if c.Live() != 7 {
		t.Fatalf("Live = %d", c.Live())
	}
}

// stagingModel is the obvious Staging: one slice in arrival order,
// searched linearly, drained from the front.
type stagingModel []StagedDelta

func (m stagingModel) find(daz int64) int {
	for i, d := range m {
		if d.DazPage == daz {
			return i
		}
	}
	return -1
}

func (m *stagingModel) put(d StagedDelta) {
	if i := m.find(d.DazPage); i >= 0 {
		(*m)[i] = d
		return
	}
	*m = append(*m, d)
}

func (m *stagingModel) drop(daz int64) {
	if i := m.find(daz); i >= 0 {
		*m = append((*m)[:i:i], (*m)[i+1:]...)
	}
}

func (m *stagingModel) pack() []StagedDelta {
	used, n := 0, 0
	for n < len(*m) && used+(*m)[n].D.Len <= blockdev.PageSize {
		used += (*m)[n].D.Len
		n++
	}
	out := (*m)[:n:n]
	*m = (*m)[n:]
	return out
}

func (m stagingModel) bytes() int {
	n := 0
	for _, d := range m {
		n += d.D.Len
	}
	return n
}

func sameDeltas(a, b []StagedDelta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DazPage != b[i].DazPage || a[i].RaidLBA != b[i].RaidLBA || a[i].D.Len != b[i].D.Len {
			return false
		}
	}
	return true
}

// TestStagingMatchesModel drives random Put/Get/Drop/PackPage sequences
// against the slice model: FIFO order, coalescing in place, Bytes and Len
// must survive draining and compaction at every queue length. The DAZ
// region starts off zero, so the dense index is exercised at its offset
// and at both ends, and pages outside the region read as not staged. A
// PackPage result is held across the Puts and Drops that follow it —
// re-staging from it is what commitDez's undo does — and must stay intact
// until the next PackPage.
func TestStagingMatchesModel(t *testing.T) {
	const first, pages = 1000, 300
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		s := NewStaging(4*blockdev.PageSize, first, pages)
		var m stagingModel
		var held, heldCopy []StagedDelta
		for step := 0; step < 4000; step++ {
			// Long fill phases alternate with long drain phases so the queue
			// swings between empty and several hundred entries.
			filling := step/500%2 == 0
			daz := first + int64(rng.Intn(pages))
			switch op := rng.Intn(10); {
			case op < 4 || (filling && op < 8):
				d := StagedDelta{DazPage: daz, RaidLBA: int64(step), D: delta.Delta{Len: 1 + rng.Intn(1500), Bytes: []byte{1}}}
				s.Put(d)
				m.put(d)
			case op < 6:
				s.Drop(daz)
				m.drop(daz)
			case op < 7:
				got, ok := s.Get(daz)
				i := m.find(daz)
				if ok != (i >= 0) || (ok && !sameDeltas([]StagedDelta{got}, m[i:i+1])) {
					t.Fatalf("seed %d step %d: Get(%d) = %+v, %v; model index %d", seed, step, daz, got, ok, i)
				}
				for _, out := range []int64{first - 1, first + pages, -1} {
					if _, ok := s.Get(out); ok {
						t.Fatalf("seed %d step %d: Get(%d) outside the region found a delta", seed, step, out)
					}
					s.Drop(out) // no-op
				}
			default:
				got, want := s.PackPage(), m.pack()
				if !sameDeltas(got, want) {
					t.Fatalf("seed %d step %d: PackPage = %+v, model %+v", seed, step, got, want)
				}
				held, heldCopy = got, append([]StagedDelta(nil), got...)
			}
			if !sameDeltas(held, heldCopy) {
				t.Fatalf("seed %d step %d: the last PackPage result changed under Put/Drop: %+v, was %+v", seed, step, held, heldCopy)
			}
			if s.Len() != len(m) || s.Bytes() != m.bytes() || !sameDeltas(s.All(), m) {
				t.Fatalf("seed %d step %d: len %d bytes %d all %+v; model len %d bytes %d %+v",
					seed, step, s.Len(), s.Bytes(), s.All(), len(m), m.bytes(), []StagedDelta(m))
			}
			for _, d := range s.All() {
				if got, ok := s.Get(d.DazPage); !ok || !sameDeltas([]StagedDelta{got}, []StagedDelta{d}) {
					t.Fatalf("seed %d step %d: index entry of page %d is off: %+v, %v", seed, step, d.DazPage, got, ok)
				}
			}
			for i, d := range s.fifo[:s.head] {
				if d.D.Bytes != nil {
					t.Fatalf("seed %d step %d: drained entry %d still pins its payload", seed, step, i)
				}
			}
		}
	}
}

// BenchmarkStagingPutPack: steady state at a standing FIFO length — each
// op stages four fresh 1000-byte deltas and packs them into one page. The
// cost must not grow with the number of deltas left queued behind them.
func BenchmarkStagingPutPack(b *testing.B) {
	for _, fifo := range []int{16, 1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("fifo=%d", fifo), func(b *testing.B) {
			const region = 1 << 16 // page ids wrap; a reused id was drained long before
			s := NewStaging(4*blockdev.PageSize, 0, region)
			next := int64(0)
			for ; next < int64(fifo); next++ {
				s.Put(sd(next, 1000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 4; k++ {
					s.Put(sd(next%region, 1000))
					next++
				}
				if len(s.PackPage()) != 4 {
					b.Fatal("short pack")
				}
			}
			if s.Len() != fifo {
				b.Fatalf("standing FIFO drifted to %d", s.Len())
			}
		})
	}
}
