package core_test

import (
	"bytes"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// newRig6 builds KDD over a 6-disk RAID-6: the paper's design covers
// "parity-based configuration, such as RAID-5/6" (§III-A), so the delta
// path must maintain both P and Q correctly.
func newRig6(t *testing.T) *rig {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 6; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 4096))
	}
	a, err := raid.New(raid.Config{Level: raid.Level6, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDataDevice("ssd", 1024)
	cfg := core.Config{
		SSD: ssd, Backend: a, CachePages: 512, Ways: 32,
		MetaPages: 64, Codec: delta.ZRLE{},
	}
	k, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		ssd: ssd, array: a, kdd: k, cfg: cfg,
		oracle: make(map[int64][]byte),
		mut:    delta.NewMutator(5, 0.25),
		rng:    sim.NewRNG(42),
	}
}

func TestRAID6KDDDeltaParityRepair(t *testing.T) {
	r := newRig6(t)
	for lba := int64(0); lba < 150; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 150; lba += 2 {
		r.write(t, lba) // deltas, stale P AND Q
	}
	if r.array.StaleRows() == 0 {
		t.Fatal("no stale rows")
	}
	r.verifyCache(t)
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("flush incomplete")
	}
	// The repaired Q parity must survive a DOUBLE disk failure.
	r.array.FailDisk(0)
	r.array.FailDisk(3)
	r.verifyRAID(t)
}

func TestRAID6KDDDoubleFailureAfterCleanerRuns(t *testing.T) {
	r := newRig6(t)
	// Heavy churn so the background cleaner (not just Flush) repairs
	// parity via both RMW and reconstruct paths.
	rng := sim.NewRNG(9)
	for i := 0; i < 3000; i++ {
		r.write(t, int64(rng.Uint64n(400)))
	}
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(1)
	r.array.FailDisk(4)
	r.verifyRAID(t)
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRAID6KDDCrashRecovery(t *testing.T) {
	r := newRig6(t)
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
		r.write(t, lba)
	}
	r.crash(t)
	r.verifyCache(t)
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(2)
	r.array.FailDisk(5)
	r.verifyRAID(t)
}

func TestRAID6DegradedSingleParityRepair(t *testing.T) {
	// With one disk failed, KDD's flush must still repair rows: either
	// both parities are healthy, one is (fold into the survivor), or the
	// data disk is gone (degraded write path).
	r := newRig6(t)
	for lba := int64(0); lba < 120; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 120; lba++ {
		r.write(t, lba)
	}
	r.array.FailDisk(3)
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("degraded RAID-6 flush left %d stale rows", r.array.StaleRows())
	}
	// Rebuild, then verify under a fresh single failure.
	fresh := blockdev.NewNullDataDevice("fresh", 4096)
	if _, err := r.array.ReplaceDisk(0, 3, fresh); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(0)
	r.verifyRAID(t)
}

func TestRAID6ReadOldFromDez(t *testing.T) {
	r := newRig6(t)
	// Enough updates to force DEZ commits, then verify combines.
	for lba := int64(0); lba < 80; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 80; lba++ {
		r.write(t, lba)
	}
	if r.kdd.Stats().DeltaCommits == 0 {
		t.Fatal("no DEZ commits")
	}
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < 80; lba++ {
		if _, err := r.kdd.Read(0, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, r.oracle[lba]) {
			t.Fatalf("lba %d combine wrong on RAID-6 stack", lba)
		}
	}
}
