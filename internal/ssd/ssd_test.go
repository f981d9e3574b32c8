package ssd

import (
	"bytes"
	"errors"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// smallCfg is a tiny device so GC and wear paths trigger quickly:
// 1024 host pages, 16 pages/block, ~69 physical blocks.
func smallCfg() Config {
	cfg := DefaultConfig(1024)
	cfg.PagesPerBlock = 16
	return cfg
}

func TestReadWriteLatency(t *testing.T) {
	d := New("ssd0", smallCfg())
	done, err := d.WritePages(0, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != 300*sim.Microsecond {
		t.Fatalf("program completion = %v, want 300µs", done)
	}
	done, err = d.ReadPages(done, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != 370*sim.Microsecond {
		t.Fatalf("read completion = %v, want 370µs", done)
	}
}

func TestChannelParallelism(t *testing.T) {
	d := New("ssd", smallCfg())
	// Write 8 pages at once: they stripe over channels, so total time is
	// far below 8 serialized programs.
	done, err := d.WritePages(0, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done >= 8*300*sim.Microsecond {
		t.Fatalf("8-page write took %v; channels not parallel", done)
	}
}

func TestDataModeRoundTrip(t *testing.T) {
	d := NewData("ssd", smallCfg())
	buf := bytes.Repeat([]byte{9}, 2*blockdev.PageSize)
	if _, err := d.WritePages(0, 100, 2, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*blockdev.PageSize)
	if _, err := d.ReadPages(0, 100, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("data mismatch")
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	d := New("ssd", smallCfg())
	for i := 0; i < 10; i++ {
		if _, err := d.WritePages(0, 42, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.HostWrites != 10 || s.FlashWrites < 10 {
		t.Fatalf("stats %+v", s)
	}
	// Exactly one physical page should remain valid for LBA 42.
	valid := 0
	for i := range d.blocks {
		valid += d.blocks[i].valid
	}
	if valid != 1 {
		t.Fatalf("valid pages = %d, want 1", valid)
	}
}

func TestGCReclaimsSpaceAndCountsErases(t *testing.T) {
	d := New("ssd", smallCfg())
	// Overwrite a small working set far beyond physical capacity: GC must
	// kick in and erase counters must advance.
	for i := 0; i < 20000; i++ {
		if _, err := d.WritePages(0, int64(i%256), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Erases == 0 {
		t.Fatal("no erases recorded despite heavy overwrite traffic")
	}
	if s.FlashWrites < s.HostWrites {
		t.Fatal("flash writes below host writes is impossible")
	}
	if wa := s.WriteAmplification(); wa < 1.0 {
		t.Fatalf("write amplification %f < 1", wa)
	}
	if d.LifetimeFraction() <= 0 {
		t.Fatal("lifetime fraction should be positive after GC")
	}
}

func TestHotColdGCKeepsDataIntact(t *testing.T) {
	d := NewData("ssd", smallCfg())
	// Cold data written once.
	cold := bytes.Repeat([]byte{0xC0}, blockdev.PageSize)
	for lba := int64(0); lba < 256; lba++ {
		if _, err := d.WritePages(0, lba, 1, cold); err != nil {
			t.Fatal(err)
		}
	}
	// Random overwrites across the rest of the (nearly full) address space
	// fragment block validity, forcing GC to relocate live pages — the
	// cold region included.
	rng := sim.NewRNG(4)
	hot := make([]byte, blockdev.PageSize)
	for i := 0; i < 30000; i++ {
		hot[0] = byte(i)
		lba := 256 + int64(rng.Uint64n(768))
		if _, err := d.WritePages(0, lba, 1, hot); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < 256; lba++ {
		if _, err := d.ReadPages(0, lba, 1, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cold) {
			t.Fatalf("cold page %d corrupted after GC", lba)
		}
	}
	if d.Stats().GCWrites == 0 {
		t.Fatal("expected GC relocations")
	}
}

func TestTrimFreesWithoutRelocation(t *testing.T) {
	withTrim := New("a", smallCfg())
	without := New("b", smallCfg())
	rngA, rngB := sim.NewRNG(21), sim.NewRNG(21)
	for round := 0; round < 40; round++ {
		for i := 0; i < 1024; i++ {
			if _, err := withTrim.WritePages(0, int64(rngA.Uint64n(1024)), 1, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := without.WritePages(0, int64(rngB.Uint64n(1024)), 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Trim a quarter of the space on one device each round, cutting the
		// amount of valid data GC must relocate.
		if _, err := withTrim.TrimPages(0, int64(round%4)*256, 256); err != nil {
			t.Fatal(err)
		}
	}
	if withTrim.Stats().GCWrites >= without.Stats().GCWrites {
		t.Fatalf("trim should reduce GC relocations: with=%d without=%d",
			withTrim.Stats().GCWrites, without.Stats().GCWrites)
	}
}

func TestValidCountInvariant(t *testing.T) {
	d := New("ssd", smallCfg())
	rng := sim.NewRNG(11)
	live := map[int64]bool{}
	for i := 0; i < 50000; i++ {
		lba := int64(rng.Uint64n(800))
		if rng.Float64() < 0.8 {
			if _, err := d.WritePages(0, lba, 1, nil); err != nil {
				t.Fatal(err)
			}
			live[lba] = true
		} else {
			if _, err := d.TrimPages(0, lba, 1); err != nil {
				t.Fatal(err)
			}
			delete(live, lba)
		}
	}
	valid := 0
	for i := range d.blocks {
		if d.blocks[i].valid < 0 {
			t.Fatalf("block %d has negative valid count", i)
		}
		valid += d.blocks[i].valid
	}
	if valid != len(live) {
		t.Fatalf("valid pages = %d, live LBAs = %d", valid, len(live))
	}
	// Every live LBA must map to a physical page that maps back.
	for lba := range live {
		ppn := d.l2p[lba]
		if ppn == invalidPPN {
			t.Fatalf("live LBA %d unmapped", lba)
		}
		blk := int(ppn / int64(d.cfg.PagesPerBlock))
		pg := int(ppn % int64(d.cfg.PagesPerBlock))
		if d.blocks[blk].pages[pg] != lba {
			t.Fatalf("reverse map broken for LBA %d", lba)
		}
	}
}

func TestRangeErrors(t *testing.T) {
	d := New("ssd", smallCfg())
	if _, err := d.ReadPages(0, 2000, 1, nil); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.WritePages(0, 2000, 1, nil); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.TrimPages(0, 2000, 1); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.ReadPages(0, 0, 1, make([]byte, 3)); !errors.Is(err, blockdev.ErrBadBuffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{HostPages: 10, PagesPerBlock: 4, Channels: 1, GCLowWater: 0.5, GCHighWater: 0.4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			New("bad", cfg)
		}()
	}
}

func TestWearOutFlag(t *testing.T) {
	cfg := smallCfg()
	cfg.PECycles = 3
	d := New("ssd", cfg)
	for i := 0; i < 100000 && !d.Stats().WornOut; i++ {
		if _, err := d.WritePages(0, int64(i%64), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Stats().WornOut {
		t.Fatal("device never wore out despite tiny P/E budget")
	}
}

func TestStatsWriteAmplificationZeroHostWrites(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 0 {
		t.Fatal("WA with zero host writes should be 0")
	}
}
