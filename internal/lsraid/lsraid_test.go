package lsraid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// testArray builds a small data-mode log over nDisks members of
// diskPages pages each, with aggressive GC pressure (small segments).
func testArray(t *testing.T, nDisks int, diskPages, segRows int64) *Array {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < nDisks; i++ {
		members = append(members, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), diskPages))
	}
	a, err := New(Config{ChunkPages: 4, SegRows: segRows, Seed: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func pageOf(lba int64, version int) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(int(lba)*31 + version*7 + i)
	}
	return p
}

// TestWriteReadOverwriteGC drives enough overwrite traffic through a
// small log to force many GC passes, model-checking every read and the
// accounting invariant along the way. The subtest is named for the greedy
// victim rule (policy 0), the collector's only rule.
func TestWriteReadOverwriteGC(t *testing.T) {
	t.Run("policy0", writeReadOverwriteGC)
}

func writeReadOverwriteGC(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	rng := sim.NewRNG(42)
	footprint := int64(96)
	version := make(map[int64]int)
	var tt sim.Time
	for op := 0; op < 6000; op++ {
		lba := int64(rng.Uint64n(uint64(footprint)))
		if rng.Float64() < 0.65 {
			version[lba]++
			done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
			if err != nil {
				t.Fatalf("op %d: write %d: %v", op, lba, err)
			}
			tt = done
		} else {
			buf := make([]byte, blockdev.PageSize)
			done, err := a.ReadPages(tt, lba, 1, buf)
			if err != nil {
				t.Fatalf("op %d: read %d: %v", op, lba, err)
			}
			tt = done
			want := make([]byte, blockdev.PageSize)
			if v := version[lba]; v > 0 {
				want = pageOf(lba, v)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: read %d returned wrong bytes", op, lba)
			}
		}
		if op%500 == 0 {
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().GCSegments == 0 {
		t.Fatal("workload never triggered GC; test is not exercising the collector")
	}
	// Full content sweep.
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < footprint; lba++ {
		if _, err := a.ReadPages(tt, lba, 1, buf); err != nil {
			t.Fatalf("sweep read %d: %v", lba, err)
		}
		want := make([]byte, blockdev.PageSize)
		if v := version[lba]; v > 0 {
			want = pageOf(lba, v)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("sweep read %d wrong bytes", lba)
		}
	}
}

// TestGCNeverCopiesDeadPage is the first lsraid property from the issue:
// every page the collector copies forward must be the CURRENT version of
// its LBA at copy time. Copying a dead (superseded) page would resurrect
// stale data.
func TestGCNeverCopiesDeadPage(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	version := make(map[int64]int)
	bad := 0
	gcSweepHook = func(_ sim.Time, _ int, swept []pending) {
		for _, p := range swept {
			if !bytes.Equal(p.data, pageOf(p.lba, version[p.lba])) {
				bad++
				t.Errorf("GC copied a dead version of lba %d", p.lba)
			}
		}
	}
	defer func() { gcSweepHook = nil }()
	rng := sim.NewRNG(7)
	var tt sim.Time
	// The footprint must stay close to the logical capacity so victim
	// segments still hold live pages when the collector fires.
	for op := 0; op < 8000 && bad == 0; op++ {
		lba := int64(rng.Uint64n(uint64(a.Pages() * 3 / 4)))
		version[lba]++
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		tt = done
	}
	if a.Stats().GCCopies == 0 {
		t.Fatal("workload never made GC copy a live page; property untested")
	}
}

// TestCrashReplayEveryTornSite is the second lsraid property: the L2P
// map must round-trip through crash + replay for every enumerated
// member torn-write site. Member pages are write-atomic (TornPages=0),
// so a crash mid-flush persists nothing of the in-flight page, and a
// write that fails leaves no trace: every acked write must read back
// after replay, the failed one as the version before it, for every
// site, idempotently.
func TestCrashReplayEveryTornSite(t *testing.T) {
	const (
		disks   = 4
		dpages  = 128
		segRows = 8
		fp      = 48
		ops     = 300
	)
	runOps := func(a *Array, version map[int64]int) {
		rng := sim.NewRNG(99)
		var tt sim.Time
		for op := 0; op < ops; op++ {
			lba := int64(rng.Uint64n(fp))
			version[lba]++
			done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
			if err != nil {
				if errors.Is(err, blockdev.ErrCrashed) {
					version[lba]-- // the failed write left no trace
					return         // crash site fired; stop like a dying node
				}
				panic(err)
			}
			tt = done
		}
	}

	// Profile run: record member op traces.
	prof := testArray(t, disks, dpages, segRows)
	for i := 0; i < disks; i++ {
		prof.Injector(i).RecordOps(true)
	}
	runOps(prof, map[int64]int{})

	sites := 0
	for d := 0; d < disks; d++ {
		for _, fs := range blockdev.EnumerateSites(prof.Injector(d).Recorded(), uint64(d)) {
			if fs.Kind != blockdev.FaultCrashTorn {
				continue
			}
			fs.TornPages, fs.TornBytes = 0, 0 // member pages are write-atomic
			sites++
			a := testArray(t, disks, dpages, segRows)
			a.Injector(d).Arm(fs)
			version := make(map[int64]int)
			runOps(a, version)
			for i := 0; i < disks; i++ {
				a.Injector(i).ClearCrash()
			}
			a.CrashRebuildState() // wipe + replay from NVRAM
			d1 := a.StateDigest()
			a.CrashRebuildState()
			if d2 := a.StateDigest(); d1 != d2 {
				t.Fatalf("site disk%d %s: replay not idempotent: %016x vs %016x", d, fs, d1, d2)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("site disk%d %s: %v", d, fs, err)
			}
			// Every acked write must read back current; the in-flight
			// one, which failed, as the version before it.
			buf := make([]byte, blockdev.PageSize)
			for lba := int64(0); lba < fp; lba++ {
				if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
					t.Fatalf("site disk%d %s: read %d: %v", d, fs, lba, err)
				}
				want := make([]byte, blockdev.PageSize)
				if v := version[lba]; v > 0 {
					want = pageOf(lba, v)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("site disk%d %s: lba %d wrong bytes after replay", d, fs, lba)
				}
			}
		}
	}
	if sites == 0 {
		t.Fatal("no member torn-write sites enumerated; profile run recorded nothing")
	}
}

// TestAccountingInvariantRandomOps is the third lsraid property:
// live + dead + free == capacity (plus the full derived-state
// cross-check) after arbitrary op sequences, across several seeds.
func TestAccountingInvariantRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := testArray(t, 5, 200, 5)
			rng := sim.NewRNG(seed)
			var tt sim.Time
			buf := make([]byte, blockdev.PageSize)
			for op := 0; op < 3000; op++ {
				lba := int64(rng.Uint64n(120))
				var err error
				switch {
				case rng.Float64() < 0.55:
					_, err = a.WritePages(tt, lba, 1, pageOf(lba, op))
				case rng.Float64() < 0.5:
					_, err = a.ReadPages(tt, lba, 1, buf)
				default:
					// Row write through the logical geometry.
					peers := a.RowPeers(lba)
					row := make([]byte, len(peers)*blockdev.PageSize)
					ok := true
					for _, p := range peers {
						if p >= a.Pages() {
							ok = false
						}
					}
					if !ok {
						continue
					}
					_, err = a.WriteRow(tt, peers[0], row)
				}
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if op%250 == 0 {
					if err := a.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDegradedReadAndRebuild kills a member, proves reconstruction
// serves the full footprint, rebuilds onto a hot spare, and proves
// direct reads again.
func TestDegradedReadAndRebuild(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	if err := a.AddSpare(blockdev.NewNullDataDevice("spare", 256)); err != nil {
		t.Fatal(err)
	}
	version := make(map[int64]int)
	rng := sim.NewRNG(3)
	var tt sim.Time
	for op := 0; op < 2000; op++ {
		lba := int64(rng.Uint64n(64))
		version[lba]++
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
		if err != nil {
			t.Fatal(err)
		}
		tt = done
	}
	check := func(stage string) {
		buf := make([]byte, blockdev.PageSize)
		for lba := int64(0); lba < 64; lba++ {
			if _, err := a.ReadPages(tt, lba, 1, buf); err != nil {
				t.Fatalf("%s: read %d: %v", stage, lba, err)
			}
			want := make([]byte, blockdev.PageSize)
			if v := version[lba]; v > 0 {
				want = pageOf(lba, v)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s: lba %d wrong bytes", stage, lba)
			}
		}
	}
	a.FailDisk(2)
	if a.Healthy() {
		t.Fatal("healthy after FailDisk")
	}
	if !a.Survivable() {
		t.Fatal("single failure must be survivable")
	}
	check("degraded")
	// Writes must keep flowing while degraded.
	for op := 0; op < 500; op++ {
		lba := int64(rng.Uint64n(64))
		version[lba]++
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
		if err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		tt = done
	}
	check("degraded-after-writes")
	_, started, err := a.StartSpareRebuild(tt)
	if err != nil || !started {
		t.Fatalf("spare rebuild: started=%v err=%v", started, err)
	}
	// Interleave rebuild steps with foreground writes.
	for a.RebuildActive() {
		if _, _, _, err := a.RebuildStep(tt, 16); err != nil {
			t.Fatalf("rebuild step: %v", err)
		}
		lba := int64(rng.Uint64n(64))
		version[lba]++
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
		if err != nil {
			t.Fatalf("write during rebuild: %v", err)
		}
		tt = done
	}
	if !a.Healthy() {
		t.Fatal("not healthy after rebuild completed")
	}
	check("rebuilt")
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The rebuilt member must be byte-correct: fail a DIFFERENT member
	// and reconstruct through the rebuilt one.
	a.FailDisk(0)
	check("degraded-through-rebuilt")
	if got := a.Stats(); got.RebuildsCompleted != 1 || got.SpareAttaches != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

// TestMediaErrorReadRepair injects a latent media fault under a mapped
// page and proves the read reconstructs, repairs in place, and clears
// the fault.
func TestMediaErrorReadRepair(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	version := map[int64]int{}
	var tt sim.Time
	for lba := int64(0); lba < 24; lba++ {
		version[lba] = 1
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, 1))
		if err != nil {
			t.Fatal(err)
		}
		tt = done
	}
	// Find a committed page and fault it.
	var victim int64 = -1
	var vdisk int
	var vrow int64
	for lba := int64(0); lba < 24; lba++ {
		if d, row := a.DataLocation(lba); d >= 0 {
			victim, vdisk, vrow = lba, d, row
			break
		}
	}
	if victim < 0 {
		t.Fatal("no committed page found")
	}
	a.Injector(vdisk).InjectBadPage(vrow)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(tt, victim, 1, buf); err != nil {
		t.Fatalf("read with latent fault: %v", err)
	}
	if !bytes.Equal(buf, pageOf(victim, 1)) {
		t.Fatal("reconstructed read returned wrong bytes")
	}
	if a.Stats().ReadRepairs == 0 {
		t.Fatal("read did not repair in place")
	}
	if a.Injector(vdisk).BadPages() != 0 {
		t.Fatal("repair did not clear the latent fault")
	}
	// Direct read now succeeds without reconstruction.
	before := a.Stats().DegradedRead
	if _, err := a.ReadPages(tt, victim, 1, buf); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DegradedRead != before {
		t.Fatal("repaired page still reads degraded")
	}
}

// TestScrubRepairsLatentFaults seeds latent faults across members and
// proves a patrol scrub clears them all.
func TestScrubRepairsLatentFaults(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	var tt sim.Time
	for lba := int64(0); lba < 48; lba++ {
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, 1))
		if err != nil {
			t.Fatal(err)
		}
		tt = done
	}
	faults := 0
	for lba := int64(0); lba < 48 && faults < 5; lba += 11 {
		if d, row := a.DataLocation(lba); d >= 0 {
			a.Injector(d).InjectBadPage(row)
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected")
	}
	_, rep, err := a.Scrub(tt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MediaRepaired < int64(faults) {
		t.Fatalf("scrub repaired %d of %d faults", rep.MediaRepaired, faults)
	}
	if len(rep.Unrecoverable) != 0 {
		t.Fatalf("scrub reported unrecoverable rows %v", rep.Unrecoverable)
	}
	for d := 0; d < 4; d++ {
		if a.Injector(d).BadPages() != 0 {
			t.Fatalf("disk %d still has latent faults after scrub", d)
		}
	}
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < 48; lba++ {
		if _, err := a.ReadPages(tt, lba, 1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pageOf(lba, 1)) {
			t.Fatalf("lba %d wrong after scrub", lba)
		}
	}
}

// TestParityProtocolIsFree asserts the delayed-parity surface is inert:
// no stale rows, no-op parity updates, idempotent resync.
func TestParityProtocolIsFree(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	var tt sim.Time
	if _, err := a.WriteNoParity(tt, 3, 1, pageOf(3, 1)); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("log-structured backend reported stale parity")
	}
	if _, err := a.ParityUpdateDelta(tt, []int64{3}, [][]byte{make([]byte, blockdev.PageSize)}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ParityUpdateDeltaBatch(tt, []raid.RowFix{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ResyncRow(tt, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Resync(tt); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRange checks the address guard rails.
func TestOutOfRange(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, a.Pages(), 1, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if _, err := a.WritePages(0, a.Pages(), 1, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("write past end: %v", err)
	}
}

// TestSummaryCodecRoundTrip unit-tests the codec directly (the fuzz
// target explores hostile inputs).
func TestSummaryCodecRoundTrip(t *testing.T) {
	cases := []struct {
		seq  uint64
		rows int64
		lbas []int64
	}{
		{0, 0, nil},
		{1, 0, nil},
		{7, 2, []int64{5, 9, 1, 0, 1 << 40, 3}},
		{1 << 60, 1, []int64{0, 0, 0}},
	}
	for i, c := range cases {
		enc := encodeSummaryOf(c.seq, c.rows, c.lbas)
		dec, err := DecodeSummary(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if dec.Seq != c.seq || dec.Rows != c.rows || len(dec.LBAs) != len(c.lbas) {
			t.Fatalf("case %d: round-trip mismatch: %+v", i, dec)
		}
		for j := range c.lbas {
			if dec.LBAs[j] != c.lbas[j] {
				t.Fatalf("case %d: lba %d mismatch", i, j)
			}
		}
		// A flipped byte must be rejected (CRC).
		mut := append([]byte(nil), enc...)
		mut[len(mut)/2] ^= 0x40
		if _, err := DecodeSummary(mut); err == nil {
			t.Fatalf("case %d: corrupted summary decoded cleanly", i)
		}
	}
	if _, err := DecodeSummary(nil); err == nil {
		t.Fatal("nil summary decoded cleanly")
	}
}

// TestTimingMode runs the engine with nil buffers over timing-mode
// members: bookkeeping must hold without any byte payloads.
func TestTimingMode(t *testing.T) {
	var members []blockdev.Device
	for i := 0; i < 4; i++ {
		members = append(members, blockdev.NewNullDevice(fmt.Sprintf("d%d", i), 256))
	}
	a, err := New(Config{ChunkPages: 4, SegRows: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	var tt sim.Time
	for op := 0; op < 4000; op++ {
		lba := int64(rng.Uint64n(96))
		if rng.Float64() < 0.7 {
			done, err := a.WritePages(tt, lba, 1, nil)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			tt = done
		} else {
			done, err := a.ReadPages(tt, lba, 1, nil)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			tt = done
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().GCSegments == 0 {
		t.Fatal("timing-mode workload never triggered GC")
	}
}
