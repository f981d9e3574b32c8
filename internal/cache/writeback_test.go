package cache_test

import (
	"bytes"
	"slices"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

func TestWriteBackReadYourWrites(t *testing.T) {
	s := newStack(t, 512)
	p := cache.NewWB(s.ssd, s.array, 256, 64, 32)
	for lba := int64(0); lba < 100; lba++ {
		s.write(t, p, lba)
	}
	for lba := int64(0); lba < 100; lba += 2 {
		s.write(t, p, lba)
	}
	s.verify(t, p)
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	s.verify(t, p)
	// After flush everything is durable on RAID.
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range s.oracle {
		if _, err := s.array.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d not durable after flush", lba)
		}
	}
}

func TestWriteBackLatencyIsFlashSpeed(t *testing.T) {
	// WB acknowledges at SSD latency; WT pays the RAID small write.
	mk := func() (blockdev.Device, cache.Backend) {
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			d := blockdev.NewNullDevice("d", 4096)
			d.Latency = 10 * sim.Millisecond
			members = append(members, d)
		}
		a := mustArray5(t, members)
		ssd := blockdev.NewNullDevice("ssd", 4096)
		ssd.Latency = 300 * sim.Microsecond
		return ssd, a
	}
	ssd1, a1 := mk()
	wb := cache.NewWB(ssd1, a1, 512, 0, 32)
	done, err := wb.Write(0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done >= sim.Millisecond {
		t.Fatalf("WB write took %v; should be flash-speed", done)
	}
	ssd2, a2 := mk()
	wt := cache.NewWT(ssd2, a2, 512, 0, 32)
	done, err = wt.Write(0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done < 20*sim.Millisecond {
		t.Fatalf("WT write took %v; must pay the RMW", done)
	}
}

// TestWriteBackLosesDataOnSSDFailure demonstrates exactly why the paper
// excludes write-back (§IV-A1): dirty pages exist only in the SSD, so an
// SSD failure before write-back violates the RPO-of-zero guarantee that
// WT/WA/LeavO/KDD all preserve.
func TestWriteBackLosesDataOnSSDFailure(t *testing.T) {
	s := newStack(t, 512)
	p := cache.NewWB(s.ssd, s.array, 256, 64, 32)
	data := s.page(0xD1)
	if _, err := p.Write(0, 42, data); err != nil {
		t.Fatal(err)
	}
	if p.DirtyPages() == 0 {
		t.Fatal("write-back page should be dirty")
	}
	// SSD dies before write-back. The RAID never saw the data.
	buf := make([]byte, blockdev.PageSize)
	if _, err := s.array.ReadPages(0, 42, 1, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, data) {
		t.Fatal("RAID has the data; write-back should have deferred it")
	}
	// Contrast: KDD/WT/WA/LeavO always dispatch data to RAID first.
	s2 := newStack(t, 512)
	wt := cache.NewWT(s2.ssd, s2.array, 256, 64, 32)
	if _, err := wt.Write(0, 42, data); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.array.ReadPages(0, 42, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("WT failed to make data durable before ack")
	}
}

func TestWriteBackCleanerThresholds(t *testing.T) {
	s := newStack(t, 2048)
	p := cache.NewWB(s.ssd, s.array, 256, 64, 32)
	// Fill with dirty pages past the high-water mark.
	for lba := int64(0); lba < 500; lba++ {
		s.write(t, p, lba)
	}
	if p.Stats().CleanerRuns == 0 {
		t.Fatal("cleaner never ran past high water")
	}
	if got := float64(p.DirtyPages()); got > 0.45*256 {
		t.Fatalf("dirty pages %v above high water after cleaning", got)
	}
	s.verify(t, p)
}

func mustArray5(t *testing.T, members []blockdev.Device) cache.Backend {
	t.Helper()
	a, err := newArray5(members)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cleanLog wraps a backend and records the LBA of every page a cleaner
// repairs (LeavO) or writes back (WB), in issue order.
type cleanLog struct {
	cache.Backend
	lbas []int64
}

func (c *cleanLog) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	c.lbas = append(c.lbas, lbas...)
	return c.Backend.ParityUpdateDelta(t, lbas, deltas)
}

func (c *cleanLog) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	c.lbas = append(c.lbas, lba)
	return c.Backend.WritePages(t, lba, count, buf)
}

// TestLRUCleanersSweepInRowOrder dirties pages of a timing-mode LeavO and
// WB in a permuted order until the first threshold pass, and checks the
// pass: it cleans the oldest dirty pages, down to exactly the low-water
// mark (each victim retires one Old page), and issues each batch in
// ascending member-row order, LBA order within a row. Two pages of every
// stripe are used, both in its first row, so rows tie and the LBA breaks
// the tie.
func TestLRUCleanersSweepInRowOrder(t *testing.T) {
	const cachePages = 1024
	for _, tc := range []struct {
		name       string
		pages      int
		low, batch int // the policy's low-water mark (pages) and cleaner batch
		hits       bool
		build      func(ssd blockdev.Device, b cache.Backend) cache.Policy
	}{
		{"LeavO", 256, cachePages / 10, 64, true, func(ssd blockdev.Device, b cache.Backend) cache.Policy {
			return cache.NewLeavO(ssd, b, cachePages, 64, 64)
		}},
		{"WB", 512, cachePages * 37 / 100, 16, false, func(ssd blockdev.Device, b cache.Backend) cache.Policy {
			return cache.NewWB(ssd, b, cachePages, 64, 64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				members = append(members, blockdev.NewNullDevice("d", 4096))
			}
			a := mustArray5(t, members)
			log := &cleanLog{Backend: a}
			p := tc.build(blockdev.NewNullDevice("ssd", 64+cachePages), log)
			frame := p.(interface{ Frame() *cache.Frame }).Frame()
			// Page j is page 0 of data chunk 0 or 2 of stripe j/2.
			lbaOf := func(j int) int64 { return int64(j) * 16 }
			// LeavO dirties a page on a write hit and keeps the cached
			// copy's recency, so it caches the pages in the order it will
			// dirty them.
			if tc.hits {
				for i := 0; i < tc.pages; i++ {
					if _, err := p.Write(0, lbaOf(i*37%tc.pages), nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			log.lbas = nil
			var dirtied []int64
			for i := 0; p.Stats().CleanerRuns == 0; i++ {
				if i == tc.pages {
					t.Fatal("no cleaner pass")
				}
				lba := lbaOf(i * 37 % tc.pages)
				dirtied = append(dirtied, lba)
				if _, err := p.Write(sim.Time(i)*sim.Millisecond, lba, nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := frame.Count(cache.Old); got != int64(tc.low) {
				t.Fatalf("pass stopped at %d dirty pages, want the low-water mark %d", got, tc.low)
			}
			cleaned := log.lbas
			oldest := slices.Clone(dirtied[:len(cleaned)])
			slices.Sort(oldest)
			got := slices.Clone(cleaned)
			slices.Sort(got)
			if !slices.Equal(got, oldest) {
				t.Fatalf("pass cleaned %v, want the %d oldest dirty pages %v", got, len(cleaned), oldest)
			}
			before := func(x, y int64) bool { // x sweeps before y
				rx, ry := a.RowPeers(x)[0], a.RowPeers(y)[0]
				return rx < ry || rx == ry && x < y
			}
			for i := 1; i < len(cleaned); i++ {
				if i%tc.batch != 0 && before(cleaned[i], cleaned[i-1]) {
					t.Fatalf("batch issue order %v is not ascending by (row, LBA) at %d", cleaned, i)
				}
			}
		})
	}
}
