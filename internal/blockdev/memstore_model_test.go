package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
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

// compareStore checks every observable of the store against the model
// over [-2, space+2): the two addresses on either side lie outside the
// capacity and must answer as unwritten.
func compareStore(t *testing.T, step int, space int64, s *MemStore, m *modelStore) {
	t.Helper()
	if s.Written() != len(m.pages) {
		t.Fatalf("step %d: Written = %d, model %d", step, s.Written(), len(m.pages))
	}
	if int64(s.Written()) > s.Pages() {
		t.Fatalf("step %d: Written = %d exceeds the capacity %d", step, s.Written(), s.Pages())
	}
	got := make([]byte, PageSize)
	for lba := int64(-2); lba < space+2; lba++ {
		want, ok := m.read(lba)
		if s.VerifyPage(lba) != ok {
			t.Fatalf("step %d: VerifyPage(%d) = %v, model %v", step, lba, !ok, ok)
		}
		fill(got, 0xEE)
		s.ReadPage(lba, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: ReadPage(%d) differs from the model", step, lba)
		}
		fill(got, 0xEE) // a failed checked read must leave dst alone
		err := s.ReadPageChecked(lba, got)
		switch {
		case ok && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("step %d: ReadPageChecked(%d) = %v, or bytes differ from the model", step, lba, err)
		case !ok && !errors.Is(err, ErrMedia):
			t.Fatalf("step %d: ReadPageChecked(%d) = %v, want ErrMedia", step, lba, err)
		}
	}
}

// TestMemStoreMatchesModel drives the store and the model with the same
// random writes, trims, corruptions, truncations and clones over a small
// address space (so trim-then-rewrite recycles constantly) and compares
// every observable after every step: a recycled page never exposes its
// old bytes, trimmed pages read zeros and verify, and the checksum
// detects exactly what it detected before pages were recycled. One op in
// eight that is not a write aims outside the capacity, where the model —
// a map that was never written there — answers "unwritten".
func TestMemStoreMatchesModel(t *testing.T) {
	const space = 192
	rng := sim.NewRNG(11)
	store, model := NewMemStore(space), newModelStore()
	src := make([]byte, PageSize)
	outside := []int64{-1, -4096, space, space + 7, 9999, 1 << 40}

	for step := 0; step < 4000; step++ {
		lba := int64(rng.Intn(space))
		op := rng.Intn(100)
		if op >= 45 && rng.Intn(8) == 0 {
			lba = outside[rng.Intn(len(outside))]
		}
		switch {
		case op < 45:
			for i := range src {
				src[i] = byte(rng.Uint64())
			}
			store.WritePage(lba, src)
			model.write(lba, src)
		case op < 80:
			// Trim a run, as a cleaner batch does.
			for n := 1 + rng.Intn(8); n > 0; n, lba = n-1, lba+1 {
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
			lba = int64(rng.Intn(space))
			sc, mc := store.Clone(), model.clone()
			compareStore(t, step, space, sc, mc)
			store.TrimPage(lba)
			model.trim(lba)
			sc.WritePage(lba, src)
			mc.write(lba, src)
			compareStore(t, step, space, sc, mc)
		}
		if step%16 == 0 {
			compareStore(t, step, space, store, model)
		}
	}
	compareStore(t, -1, space, store, model)
}

// TestMemStoreTrimBursts is the cleaner's pattern at the SSD's scale:
// trim a run of 1–4 096 pages, rewrite some of it from the pool the
// trims fed, clone, and compare everything with the model each time.
// The clone is taken right after the trims, so it must not share
// recycled pages with the store it came from.
func TestMemStoreTrimBursts(t *testing.T) {
	const space = 8192
	rng := sim.NewRNG(12)
	store, model := NewMemStore(space), newModelStore()
	src := make([]byte, PageSize)
	write := func(s *MemStore, m *modelStore, lba int64) {
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		s.WritePage(lba, src)
		m.write(lba, src)
	}
	for lba := int64(0); lba < space; lba += 1 + int64(rng.Intn(2)) {
		write(store, model, lba)
	}
	for round, burst := range []int{1, 63, 64, 65, 511, 512, 513, 4096, 1 + rng.Intn(4096), 1 + rng.Intn(4096)} {
		first := int64(rng.Intn(space - burst + 1))
		for lba := first; lba < first+int64(burst); lba++ {
			store.TrimPage(lba)
			model.trim(lba)
		}
		compareStore(t, round, space, store, model)
		sc, mc := store.Clone(), model.clone()
		for lba := first; lba < first+int64(burst); lba += 1 + int64(rng.Intn(3)) {
			write(store, model, lba)
			write(sc, mc, lba)
		}
		compareStore(t, round, space, store, model)
		compareStore(t, round, space, sc, mc)
	}
}

// TestMemStoreWriteOutOfRangePanics pins the one out-of-range operation
// that is not a no-op: the store has no such page, every device
// range-checks before it gets here, so it is a bug and says so.
func TestMemStoreWriteOutOfRangePanics(t *testing.T) {
	m := NewMemStore(16)
	for _, lba := range []int64{-1, 16, 9999} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(lba)) || !strings.Contains(msg, "16 pages") {
					t.Fatalf("WritePage(%d) on a 16-page store: recovered %q, want a panic naming both", lba, msg)
				}
			}()
			m.WritePage(lba, make([]byte, PageSize))
		}()
	}
	if m.Written() != 0 {
		t.Fatalf("Written = %d after refused writes", m.Written())
	}
}

// BenchmarkMemStoreWriteTrim is the SSD under KDD at zipf_plane_fit's
// geometry: a cleaner pass trims a 1 024-page burst, then the cache
// rewrites those slots. Past the warm-up no page is allocated.
func BenchmarkMemStoreWriteTrim(b *testing.B) {
	const pages, burst = 16384, 1024
	m := NewMemStore(pages)
	src := make([]byte, PageSize)
	for lba := int64(0); lba < pages; lba++ {
		m.WritePage(lba, src)
	}
	b.SetBytes(PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		first := int64(i) % pages
		for lba := first; lba < first+burst; lba++ {
			m.TrimPage(lba)
		}
		for lba := first; lba < first+burst; lba++ {
			m.WritePage(lba, src)
		}
	}
}
