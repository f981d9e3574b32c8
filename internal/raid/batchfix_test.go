package raid

import (
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/hdd"
	"kddcache/internal/sim"
)

// mkDelta returns the XOR image transforming old into new.
func mkDelta(old, new []byte) []byte {
	d := make([]byte, len(old))
	for i := range d {
		d[i] = old[i] ^ new[i]
	}
	return d
}

func TestBatchFixEquivalentToPerRow(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		disks := 5
		if level == Level6 {
			disks = 6
		}
		a := newDataArray(t, level, disks, 160, 8)
		oracle := writeAll(t, a, 320)

		// Dirty many pages without parity and remember their deltas.
		rng := sim.NewRNG(3)
		var fixes []RowFix
		byRow := map[int64]*RowFix{}
		for i := 0; i < 120; i++ {
			lba := int64(rng.Uint64n(320))
			if _, seen := byRowLBA(byRow, lba); seen {
				continue // keep one delta per page for clarity
			}
			oldData := oracle[lba]
			newData := fillPage(byte(0x30 + i))
			if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
				t.Fatal(err)
			}
			key := a.RowPeers(lba)[0]
			f, ok := byRow[key]
			if !ok {
				f = &RowFix{}
				byRow[key] = f
			}
			f.LBAs = append(f.LBAs, lba)
			f.Deltas = append(f.Deltas, mkDelta(oldData, newData))
			oracle[lba] = newData
		}
		for _, f := range byRow {
			fixes = append(fixes, *f)
		}

		if _, err := a.ParityUpdateDeltaBatch(0, fixes); err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if a.StaleRows() != 0 {
			t.Fatalf("%v: %d stale rows after batch fix", level, a.StaleRows())
		}
		// Parity must be byte-correct: survive failure(s).
		a.FailDisk(1)
		if level == Level6 {
			a.FailDisk(3)
		}
		verifyAll(t, a, oracle)
	}
}

func byRowLBA(m map[int64]*RowFix, lba int64) (*RowFix, bool) {
	for _, f := range m {
		for _, l := range f.LBAs {
			if l == lba {
				return f, true
			}
		}
	}
	return nil, false
}

func TestBatchFixSequentialRuns(t *testing.T) {
	// Consecutive rows on the same parity disk must coalesce into one
	// device operation per phase.
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice("d", 4096))
	}
	a, err := New(Config{Level: Level5, ChunkPages: 16}, members)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..15 belong to stripe 0: same parity disk, consecutive rows.
	var fixes []RowFix
	for r := int64(0); r < 16; r++ {
		if _, err := a.WriteNoParity(0, r, 1, nil); err != nil { // page r of chunk 0
			t.Fatal(err)
		}
		fixes = append(fixes, RowFix{LBAs: []int64{r}})
	}
	before := members[4].(*blockdev.NullDevice).Reads() // stripe 0 parity on disk 4
	if _, err := a.ParityUpdateDeltaBatch(0, fixes); err != nil {
		t.Fatal(err)
	}
	after := members[4].(*blockdev.NullDevice).Reads()
	if after-before != 1 {
		t.Fatalf("16 consecutive rows issued %d parity reads, want 1 run", after-before)
	}
}

// On RAID-6 one group's Q disk is another group's P disk, and the HDD
// model's head position depends on arrival order: the batch must visit
// its groups in a fixed order or identical runs finish at different
// virtual times.
func TestBatchFixDeterministicRAID6(t *testing.T) {
	run := func() sim.Time {
		var members []blockdev.Device
		for i := 0; i < 6; i++ {
			members = append(members, hdd.New(fmt.Sprintf("d%d", i), hdd.DefaultConfig(4096), uint64(i+1)))
		}
		a, err := New(Config{Level: Level6, ChunkPages: 16}, members)
		if err != nil {
			t.Fatal(err)
		}
		var fixes []RowFix
		for i := int64(0); i < 24; i++ {
			lba := i * 67 // a new stripe, hence a new P disk, every fix
			if _, err := a.WriteNoParity(0, lba, 1, nil); err != nil {
				t.Fatal(err)
			}
			fixes = append(fixes, RowFix{LBAs: []int64{lba}})
		}
		done, err := a.ParityUpdateDeltaBatch(sim.Second, fixes)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	want := run()
	for i := 1; i < 40; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d completed at %v, run 0 at %v", i, got, want)
		}
	}
}

func TestBatchFixDegradedFallsBack(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	oracle := writeAll(t, a, 100)
	lba := int64(5)
	oldData := oracle[lba]
	newData := fillPage(0xAB)
	if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
		t.Fatal(err)
	}
	oracle[lba] = newData
	// Fail the parity disk of that row: batch must route through the
	// degraded single-row logic (rebuild-recomputes rule).
	l := a.geo.locate(lba)
	a.FailDisk(l.par[0])
	if _, err := a.ParityUpdateDeltaBatch(0, []RowFix{{
		LBAs: []int64{lba}, Deltas: [][]byte{mkDelta(oldData, newData)},
	}}); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("degraded row still stale")
	}
}

// A resync recomputes a stale row's parity from its data, after which
// the deltas still queued for the row are obsolete: folding them in would
// corrupt parity the resync made correct. The batch must skip such rows,
// as ParityUpdateDelta does, and still repair the rows that are stale.
func TestBatchFixSkipsResyncedRows(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		disks := 5
		if level == Level6 {
			disks = 6
		}
		a := newDataArray(t, level, disks, 96, 8)
		oracle := writeAll(t, a, 100)
		dirty := func(lba int64, v byte) RowFix {
			newData := fillPage(v)
			if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
				t.Fatal(err)
			}
			f := RowFix{LBAs: []int64{lba}, Deltas: [][]byte{mkDelta(oracle[lba], newData)}}
			oracle[lba] = newData
			return f
		}
		resynced := dirty(3, 0xC3)
		if _, err := a.Resync(0); err != nil {
			t.Fatal(err)
		}
		stale := dirty(40, 0x5A)
		if _, err := a.ParityUpdateDeltaBatch(0, []RowFix{resynced, stale}); err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if a.StaleRows() != 0 {
			t.Fatalf("%v: %d stale rows after batch fix", level, a.StaleRows())
		}
		// Lose the members holding both pages: each is rebuilt from parity.
		a.FailDisk(a.geo.locate(3).disk)
		if level == Level6 {
			a.FailDisk(a.geo.locate(40).disk)
		}
		verifyAll(t, a, oracle)
	}
}

// RAID-0 and RAID-1 cannot be built any more (TestGeometryValidation), so
// an empty batch is the only no-op case left.
func TestBatchFixEmptyAndNonParityLevels(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	if _, err := a.ParityUpdateDeltaBatch(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ParityUpdateDeltaBatch(0, []RowFix{{}}); err != nil {
		t.Fatal(err)
	}
}

// A media error on a stale row's parity page must not fail the batch:
// the per-row fold retries the read, folds into the surviving copy or
// resyncs the row, and the batch must do the same for the run holding
// the row. Every parity copy (P, and RAID-6's Q) takes a transient and a
// latent fault in turn; the parity left behind must rebuild a failed
// data disk.
func TestBatchFixSurvivesParityMediaFault(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		for j := 0; j < level.parityDisks(); j++ {
			for _, latent := range []bool{false, true} {
				name := fmt.Sprintf("%v parity %d latent=%v", level, j, latent)
				disks := 5
				if level == Level6 {
					disks = 6
				}
				a := newDataArray(t, level, disks, 96, 8)
				oracle := writeAll(t, a, 100)
				var fixes []RowFix
				// Rows 0..3 form one run on stripe 0's P disk; LBA 50
				// lies in another stripe.
				for i, lba := range []int64{0, 1, 2, 3, 50} {
					newData := fillPage(byte(0x40 + i))
					if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
						t.Fatal(err)
					}
					fixes = append(fixes, RowFix{LBAs: []int64{lba}, Deltas: [][]byte{mkDelta(oracle[lba], newData)}})
					oracle[lba] = newData
				}
				l := a.geo.locate(2)
				if latent {
					a.Injector(l.par[j]).InjectBadPage(l.row)
				} else {
					a.Injector(l.par[j]).InjectTransient(l.row, 1)
				}
				if _, err := a.ParityUpdateDeltaBatch(0, fixes); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a.StaleRows() != 0 {
					t.Fatalf("%s: %d stale rows after batch fix", name, a.StaleRows())
				}
				if a.Stats().MediaErrors == 0 {
					t.Fatalf("%s: media error not counted", name)
				}
				a.FailDisk(l.disk)
				verifyAll(t, a, oracle)
			}
		}
	}
}
