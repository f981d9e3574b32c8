package blockdev

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"kddcache/internal/sim"
)

// modelStore is the reference MemStore: a map of page bytes and a map of
// checksums, a fresh allocation for every first write, nothing recycled.
type modelStore struct {
	pages map[int64][]byte
	sums  map[int64]uint32
}

func newModelStore() *modelStore {
	return &modelStore{pages: map[int64][]byte{}, sums: map[int64]uint32{}}
}

func (m *modelStore) write(lba int64, src []byte) {
	m.pages[lba] = bytes.Clone(src[:PageSize])
	m.sums[lba] = crc32.ChecksumIEEE(m.pages[lba])
}

func (m *modelStore) trim(lba int64) {
	delete(m.pages, lba)
	delete(m.sums, lba)
}

func (m *modelStore) corrupt(lba int64, bit uint, silent bool) bool {
	p, ok := m.pages[lba]
	if !ok {
		return false
	}
	p[(bit/8)%PageSize] ^= 1 << (bit % 8)
	if silent {
		m.sums[lba] = crc32.ChecksumIEEE(p)
	}
	return true
}

func (m *modelStore) truncate(lba int64, keep int) bool {
	p, ok := m.pages[lba]
	if !ok {
		return false
	}
	keep = max(0, min(keep, PageSize))
	clear(p[keep:])
	m.sums[lba] = crc32.ChecksumIEEE(p)
	return true
}

func (m *modelStore) clone() *modelStore {
	c := newModelStore()
	for lba, p := range m.pages {
		c.pages[lba] = bytes.Clone(p)
		c.sums[lba] = m.sums[lba]
	}
	return c
}

// read returns the page (zeros when unwritten) and whether it verifies.
func (m *modelStore) read(lba int64) ([]byte, bool) {
	p, ok := m.pages[lba]
	if !ok {
		return make([]byte, PageSize), true
	}
	return p, crc32.ChecksumIEEE(p) == m.sums[lba]
}

// TestMemStoreMatchesModel drives the store and the model with the same
// random writes, trims, corruptions, truncations and clones over a small
// address space (so trim-then-rewrite recycles constantly) and compares
// every observable after every step: a recycled page never exposes its
// old bytes, trimmed pages read zeros and verify, and the checksum
// detects exactly what it detected before pages were recycled.
func TestMemStoreMatchesModel(t *testing.T) {
	const space = 3 * maxFreePages // trims overflow the free list, too
	rng := sim.NewRNG(11)
	store, model := NewMemStore(space), newModelStore()
	src := make([]byte, PageSize)
	got := bytes.Repeat([]byte{0xEE}, PageSize)

	compare := func(step int, s *MemStore, m *modelStore) {
		t.Helper()
		if s.Written() != len(m.pages) {
			t.Fatalf("step %d: Written = %d, model %d", step, s.Written(), len(m.pages))
		}
		if len(s.free) > maxFreePages {
			t.Fatalf("step %d: free list holds %d pages, bound %d", step, len(s.free), maxFreePages)
		}
		for lba := int64(0); lba < space; lba++ {
			want, ok := m.read(lba)
			if s.VerifyPage(lba) != ok {
				t.Fatalf("step %d: VerifyPage(%d) = %v, model %v", step, lba, !ok, ok)
			}
			s.ReadPage(lba, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadPage(%d) differs from the model", step, lba)
			}
			for i := range got {
				got[i] = 0xEE // a failed checked read must leave dst alone
			}
			err := s.ReadPageChecked(lba, got)
			switch {
			case ok && (err != nil || !bytes.Equal(got, want)):
				t.Fatalf("step %d: ReadPageChecked(%d) = %v, or bytes differ from the model", step, lba, err)
			case !ok && !errors.Is(err, ErrMedia):
				t.Fatalf("step %d: ReadPageChecked(%d) = %v, want ErrMedia", step, lba, err)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		lba := int64(rng.Intn(space))
		switch op := rng.Intn(100); {
		case op < 45:
			for i := range src {
				src[i] = byte(rng.Uint64())
			}
			store.WritePage(lba, src)
			model.write(lba, src)
		case op < 80:
			// Trim a run, as a cleaner batch does.
			for n := 1 + rng.Intn(8); n > 0 && lba < space; n, lba = n-1, lba+1 {
				store.TrimPage(lba)
				model.trim(lba)
			}
		case op < 85:
			bit := uint(rng.Uint64())
			if store.CorruptPage(lba, bit) != model.corrupt(lba, bit, false) {
				t.Fatalf("step %d: CorruptPage(%d) disagrees with the model", step, lba)
			}
		case op < 90:
			bit := uint(rng.Uint64())
			if store.CorruptPageSilently(lba, bit) != model.corrupt(lba, bit, true) {
				t.Fatalf("step %d: CorruptPageSilently(%d) disagrees with the model", step, lba)
			}
		case op < 95:
			keep := rng.Intn(PageSize+200) - 100
			if store.TruncatePage(lba, keep) != model.truncate(lba, keep) {
				t.Fatalf("step %d: TruncatePage(%d) disagrees with the model", step, lba)
			}
		default:
			// The clone must match now and stay put while the original
			// moves on (and the other way round).
			sc, mc := store.Clone(), model.clone()
			compare(step, sc, mc)
			store.TrimPage(lba)
			model.trim(lba)
			sc.WritePage(lba, src)
			mc.write(lba, src)
			compare(step, sc, mc)
		}
		if step%16 == 0 {
			compare(step, store, model)
		}
	}
	compare(-1, store, model)
}

func BenchmarkMemStoreWriteTrim(b *testing.B) {
	// The SSD under KDD: a slot is trimmed and another written soon after.
	m := NewMemStore(1024)
	src := make([]byte, PageSize)
	for lba := int64(0); lba < 512; lba++ {
		m.WritePage(lba, src)
	}
	b.SetBytes(PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(i % 1024)
		m.TrimPage(lba)
		m.WritePage((lba+512)%1024, src)
	}
}
