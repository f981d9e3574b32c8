package core_test

import (
	"bytes"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// cachePageOf maps a frame slot to its SSD page (mirrors KDD.cacheLBA).
func (r *rig) cachePageOf(slot int32) int64 {
	return r.cfg.MetaPages + int64(slot)
}

// slotFor returns the frame slot currently holding lba.
func (r *rig) slotFor(t *testing.T, lba int64) int32 {
	t.Helper()
	s := r.kdd.Frame().Lookup(lba)
	if s == cache.NoSlot {
		t.Fatalf("lba %d not cached", lba)
	}
	return s
}

// corruptSlot flips a bit in the SSD page backing a frame slot so the
// next checked read returns ErrMedia (persistent until rewritten).
func (r *rig) corruptSlot(t *testing.T, slot int32) {
	t.Helper()
	if !r.ssd.Store().CorruptPage(r.cachePageOf(slot), 7) {
		t.Fatalf("slot %d has no written SSD page to corrupt", slot)
	}
}

// newFaultRig is newRig with the SSD wrapped in a FaultInjector, for
// transient-error and crash-point scenarios the bare MemStore corruption
// helpers cannot express.
func newFaultRig(t *testing.T, cachePages int64, seed uint64) (*rig, *blockdev.FaultInjector) {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 4096))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	inner := blockdev.NewNullDataDevice("ssd", cachePages+256)
	fi := blockdev.NewFaultInjector(inner, seed)
	cfg := core.Config{
		SSD:        fi,
		Backend:    a,
		CachePages: cachePages,
		Ways:       32,
		MetaPages:  64,
		Codec:      delta.ZRLE{},
	}
	k, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		ssd: inner, array: a, kdd: k, cfg: cfg,
		oracle: make(map[int64][]byte),
		mut:    delta.NewMutator(5, 0.25),
		rng:    sim.NewRNG(42),
	}, fi
}

func TestTransientMediaErrorRetrySucceeds(t *testing.T) {
	r, fi := newFaultRig(t, 256, 1)
	r.write(t, 9) // Clean
	slot := r.slotFor(t, 9)
	fi.InjectTransient(r.cachePageOf(slot), 1)
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.kdd.Read(0, 9, buf); err != nil {
		t.Fatalf("read with transient fault: %v", err)
	}
	if !bytes.Equal(buf, r.oracle[9]) {
		t.Fatal("retried read served wrong data")
	}
	st := r.kdd.Stats()
	if st.MediaRetries == 0 {
		t.Fatal("transient error did not count a retry")
	}
	if st.MediaFallbacks != 0 || st.SSDMediaErrors != 0 {
		t.Fatalf("transient error escalated to fallback: %+v", st)
	}
}

func TestCleanHitMediaErrorFallsBackAndHeals(t *testing.T) {
	r := newRig(t, 256)
	r.write(t, 9) // Clean
	slot := r.slotFor(t, 9)
	r.corruptSlot(t, slot)
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.kdd.Read(0, 9, buf); err != nil {
		t.Fatalf("read over corrupted cache page: %v", err)
	}
	if !bytes.Equal(buf, r.oracle[9]) {
		t.Fatal("fallback read served wrong data")
	}
	st := r.kdd.Stats()
	if st.SSDMediaErrors == 0 || st.MediaFallbacks == 0 {
		t.Fatalf("media fallback not accounted: %+v", st)
	}
	// The slot was healed in place: still a hit, served from flash again.
	if got := r.kdd.Frame().Slot(slot).State; got != cache.Clean {
		t.Fatalf("healed slot state = %v", got)
	}
	fallbacks := st.MediaFallbacks
	if _, err := r.kdd.Read(0, 9, buf); err != nil {
		t.Fatal(err)
	}
	if r.kdd.Stats().MediaFallbacks != fallbacks {
		t.Fatal("second read still falling back; slot not healed")
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOldHitLostDazPageHealsRow(t *testing.T) {
	r := newRig(t, 256)
	r.write(t, 5)
	r.write(t, 5) // Old with staged delta; row parity stale
	if r.array.StaleRows() != 1 {
		t.Fatalf("setup: stale rows = %d", r.array.StaleRows())
	}
	slot := r.slotFor(t, 5)
	r.corruptSlot(t, slot) // the DAZ old copy the delta XORs against
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.kdd.Read(0, 5, buf); err != nil {
		t.Fatalf("read over lost old copy: %v", err)
	}
	if !bytes.Equal(buf, r.oracle[5]) {
		t.Fatal("fallback read served wrong data")
	}
	st := r.kdd.Stats()
	if st.MediaFallbacks == 0 || st.RowsHealed == 0 {
		t.Fatalf("row heal not accounted: %+v", st)
	}
	// Healing re-materialised the page as Clean, dropped the staged delta,
	// and recomputed the row parity from member data.
	if got := r.kdd.Frame().Slot(slot).State; got != cache.Clean {
		t.Fatalf("healed slot state = %v", got)
	}
	if r.kdd.Staging().Len() != 0 {
		t.Fatal("staged delta survived the heal")
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("heal left the row parity stale")
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r.verifyCache(t)
	// Parity must be genuinely correct, not just marked fresh.
	r.array.FailDisk(1)
	r.verifyRAID(t)
}

func TestOldHitLostDezPageHealsRow(t *testing.T) {
	r := newRig(t, 512)
	// Two waves over 100 pages commit staged deltas into DEZ pages.
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	f := r.kdd.Frame()
	corrupted := 0
	for i := int32(0); int64(i) < f.Pages(); i++ {
		if f.Slot(i).State == cache.Delta {
			if r.ssd.Store().CorruptPage(r.cachePageOf(i), 3) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("setup: no DEZ pages to corrupt")
	}
	// Every read must still return the newest version: Old pages whose
	// committed delta is gone heal their row from RAID.
	r.verifyCache(t)
	st := r.kdd.Stats()
	if st.MediaFallbacks == 0 || st.RowsHealed == 0 {
		t.Fatalf("DEZ loss never healed: %+v", st)
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("stale rows after flush: %d", r.array.StaleRows())
	}
	r.array.FailDisk(2)
	r.verifyRAID(t)
}

func TestWriteHitHealOnLostOldCopy(t *testing.T) {
	r := newRig(t, 256)
	r.write(t, 5)
	r.write(t, 5) // Old with staged delta
	slot := r.slotFor(t, 5)
	r.corruptSlot(t, slot)
	// The write hit cannot generate a delta against an unreadable old
	// copy: it must heal the row and degrade to the conventional path.
	r.write(t, 5)
	st := r.kdd.Stats()
	if st.MediaFallbacks == 0 {
		t.Fatalf("write-hit heal not accounted: %+v", st)
	}
	if got := r.kdd.Frame().Slot(slot).State; got != cache.Clean {
		t.Fatalf("slot state after write-hit heal = %v", got)
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("write-hit heal left stale parity")
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r.verifyCache(t)
	r.array.FailDisk(3)
	r.verifyRAID(t)
}

func TestCleanerFallsBackToResyncOnLostDelta(t *testing.T) {
	r := newRig(t, 512)
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	// Corrupt every DEZ page, then make the cleaner repair all parity:
	// the delta RMW hits ErrMedia and must fall back to a full resync.
	f := r.kdd.Frame()
	corrupted := 0
	for i := int32(0); int64(i) < f.Pages(); i++ {
		if f.Slot(i).State == cache.Delta {
			if r.ssd.Store().CorruptPage(r.cachePageOf(i), 11) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("setup: no DEZ pages to corrupt")
	}
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatalf("flush over corrupted deltas: %v", err)
	}
	st := r.kdd.Stats()
	if st.MediaFallbacks == 0 || st.RowsHealed == 0 {
		t.Fatalf("cleaner never fell back to resync: %+v", st)
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("stale rows after fallback flush: %d", r.array.StaleRows())
	}
	if r.kdd.DirtyPages() != 0 {
		t.Fatalf("fallback flush left %d dirty pages", r.kdd.DirtyPages())
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(0)
	r.verifyRAID(t)
}

func TestRandomMediaFaultsOracleProperty(t *testing.T) {
	// Random corruption of cache-data pages mid-workload: reads must
	// always match the oracle and invariants must always hold, whatever
	// mix of DAZ/DEZ/unused pages the faults land on.
	for _, seed := range []uint64{3, 17, 99} {
		r := newRig(t, 256)
		rng := sim.NewRNG(seed)
		dataStart := r.cfg.MetaPages
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 1200; i++ {
			lba := int64(rng.Uint64n(300))
			if rng.Float64() < 0.6 {
				r.write(t, lba)
			} else if want, ok := r.oracle[lba]; ok {
				if _, err := r.kdd.Read(0, lba, buf); err != nil {
					t.Fatalf("seed %d op %d: read %d: %v", seed, i, lba, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("seed %d op %d: mismatch at %d", seed, i, lba)
				}
			}
			if i%50 == 49 {
				// Corrupt a random page in the cache data partition.
				page := dataStart + int64(rng.Uint64n(uint64(r.cfg.CachePages)))
				r.ssd.Store().CorruptPage(page, uint(rng.Uint64n(8)))
			}
			if i%300 == 299 {
				if _, err := r.kdd.Clean(0, false); err != nil {
					t.Fatalf("seed %d: clean: %v", seed, err)
				}
			}
		}
		if err := r.kdd.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r.verifyCache(t)
		if _, err := r.kdd.Flush(0); err != nil {
			t.Fatalf("seed %d: flush: %v", seed, err)
		}
		if r.array.StaleRows() != 0 {
			t.Fatalf("seed %d: stale rows after flush", seed)
		}
		r.array.FailDisk(int(seed) % 5)
		r.verifyRAID(t)
	}
}
