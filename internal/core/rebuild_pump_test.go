package core_test

import (
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/lsraid"
)

// driveUntilHealthy issues mixed foreground traffic until the array's
// rebuild window closes (or the op budget runs out), returning the number
// of operations it took.
func (r *rig) driveUntilHealthy(t *testing.T, maxOps int) int {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for i := 0; i < maxOps; i++ {
		if r.array.Healthy() {
			return i
		}
		lba := int64(i % 120)
		if i%3 == 0 {
			r.write(t, lba)
		} else {
			if _, err := r.kdd.Read(0, lba, buf); err != nil {
				t.Fatalf("read %d during rebuild: %v", lba, err)
			}
		}
	}
	t.Fatalf("rebuild never completed within %d foreground ops", maxOps)
	return maxOps
}

// scrubCleanCore asserts parity is consistent everywhere and nothing was
// lost.
func (r *rig) scrubCleanCore(t *testing.T) {
	t.Helper()
	_, rep, err := r.array.Scrub(0)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.ParityFixed != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("scrub found damage after rebuild: fixed=%d unrecoverable=%v",
			rep.ParityFixed, rep.Unrecoverable)
	}
}

func TestPumpAutoAttachesSpareAndRebuildsOnline(t *testing.T) {
	r := newRig(t, 256)
	for lba := int64(0); lba < 120; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 120; lba += 2 {
		r.write(t, lba) // stage deltas: the attach must fold them first
	}
	if err := r.array.AddSpare(blockdev.NewNullDataDevice("spare", 4096)); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(1)

	r.driveUntilHealthy(t, 20000)

	st := r.kdd.Stats()
	if st.SpareAttaches != 1 {
		t.Fatalf("SpareAttaches = %d, want 1", st.SpareAttaches)
	}
	if st.RebuildsDone != 1 {
		t.Fatalf("RebuildsDone = %d, want 1", st.RebuildsDone)
	}
	// Online means interleaved: the whole disk must not have gone in one
	// burst between two foreground ops.
	if st.RebuildSteps < 10 {
		t.Fatalf("rebuild finished in %d steps; not interleaved", st.RebuildSteps)
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("stale rows after rebuild: %d", r.array.StaleRows())
	}
	if lost := r.array.LostRows(); len(lost) != 0 {
		t.Fatalf("lost rows after single-failure rebuild: %v", lost)
	}
	r.verifyCache(t)
	r.verifyRAID(t)
	r.scrubCleanCore(t)
}

func TestPumpThrottlesUnderForegroundPressure(t *testing.T) {
	// With pressure detection, ops that hit the RAID refill at the min
	// rate; a pure cache-hit stream refills at the max rate. Compare the
	// ops-to-completion of the two regimes on identical geometry.
	complete := func(misses bool) int {
		r := newRig(t, 256)
		for lba := int64(0); lba < 120; lba++ {
			r.write(t, lba)
		}
		if _, err := r.kdd.Flush(0); err != nil {
			t.Fatal(err)
		}
		if err := r.array.AddSpare(blockdev.NewNullDataDevice("spare", 4096)); err != nil {
			t.Fatal(err)
		}
		r.array.FailDisk(1)
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 40000; i++ {
			if r.array.Healthy() {
				return i
			}
			lba := int64(i % 120)
			if misses {
				// Far outside the cached set: every read misses and hits
				// the array.
				lba = 1000 + int64(i%2000)
			}
			if _, err := r.kdd.Read(0, lba, buf); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		t.Fatal("rebuild never completed")
		return 0
	}
	hot := complete(false)
	cold := complete(true)
	if cold <= hot {
		t.Fatalf("rebuild under RAID pressure (%d ops) was not slower than on cache hits (%d ops)", cold, hot)
	}
}

func TestRebuildCheckpointSurvivesCrash(t *testing.T) {
	r := newRig(t, 256)
	for lba := int64(0); lba < 120; lba++ {
		r.write(t, lba)
	}
	if err := r.array.AddSpare(blockdev.NewNullDataDevice("spare", 4096)); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(1)

	// Make partial progress, then crash.
	buf := make([]byte, blockdev.PageSize)
	for i := 0; i < 200; i++ {
		if _, err := r.kdd.Read(0, int64(i%120), buf); err != nil {
			t.Fatal(err)
		}
	}
	if !r.array.RebuildActive() {
		t.Fatal("pump never opened the rebuild window")
	}
	_, wmBefore, _ := r.array.RebuildTarget()
	if wmBefore == 0 {
		t.Fatal("no rebuild progress before the crash")
	}

	// The watermark is volatile: a power failure wipes it.
	r.array.CrashRebuildState()
	r.crash(t)

	disk, wm, active := r.array.RebuildTarget()
	if !active {
		t.Fatal("Restore did not resume the rebuild from its checkpoint")
	}
	if disk != 1 {
		t.Fatalf("resumed rebuild targets disk %d, want 1", disk)
	}
	if wm == 0 || wm > wmBefore {
		t.Fatalf("resumed watermark %d, want (0, %d]", wm, wmBefore)
	}

	r.driveUntilHealthy(t, 20000)
	if lost := r.array.LostRows(); len(lost) != 0 {
		t.Fatalf("lost rows after resumed rebuild: %v", lost)
	}
	r.verifyCache(t)
	r.verifyRAID(t)
	r.scrubCleanCore(t)
}

// TestPumpRebuildSurvivesURE: on the single-parity log, a latent sector
// error on a survivor inside a spare-driven rebuild is one row beyond
// tolerance. Whatever live pages the row still holds are lost loudly and
// the sweep carries on to full redundancy; foreground writes never see
// the rebuild's trouble.
func TestPumpRebuildSurvivesURE(t *testing.T) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 4096))
	}
	array, err := lsraid.New(lsraid.Config{ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDataDevice("ssd", 256+64), Backend: array,
		CachePages: 256, Ways: 32, MetaPages: 64, Codec: delta.ZRLE{},
	})
	if err != nil {
		t.Fatal(err)
	}
	mut := delta.NewMutator(5, 0.25)
	page := make([]byte, blockdev.PageSize)
	write := func(lba int64) error {
		mut.FillRandom(page)
		_, err := k.Write(0, lba, page)
		return err
	}
	// The log flushes a segment at a time (32 rows of 4 data pages here):
	// the footprint is past one segment, so the fill commits one and every
	// pass over the footprint commits another.
	const footprint = 160
	for lba := int64(0); lba < footprint; lba++ {
		if err := write(lba); err != nil {
			t.Fatal(err)
		}
	}
	if err := array.AddSpare(blockdev.NewNullDataDevice("spare", 4096)); err != nil {
		t.Fatal(err)
	}
	const failed = 1
	var ure *blockdev.FaultInjector
	for lba := int64(0); lba < array.Pages() && ure == nil; lba++ {
		if d, row := array.DataLocation(lba); d >= 0 && d != failed {
			ure = array.Injector(d)
			ure.InjectBadPage(row)
		}
	}
	if ure == nil {
		t.Fatal("no page has a member home off the failed disk: nothing committed")
	}
	array.FailDisk(failed)
	fails := 0
	for i := 0; i < 5000 && !array.Healthy(); i++ {
		if err := write(int64(i % footprint)); err != nil {
			fails++
		}
	}
	st := k.Stats()
	if st.RebuildsDone != 1 || !array.Healthy() {
		t.Fatalf("RebuildsDone = %d, healthy %v: the rebuild stalled", st.RebuildsDone, array.Healthy())
	}
	if fails != 0 {
		t.Fatalf("%d foreground writes failed", fails)
	}
	if ure.MediaErrors() == 0 {
		t.Fatal("the rebuild never met the URE")
	}
}
