package raid

import (
	"bytes"
	"errors"
	"testing"

	"kddcache/internal/blockdev"
)

func TestWriteRowRAID6(t *testing.T) {
	a := newDataArray(t, Level6, 6, 160, 16)
	peers := a.RowPeers(0)
	buf := make([]byte, len(peers)*blockdev.PageSize)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	if _, err := a.WriteRow(0, peers[0], buf); err != nil {
		t.Fatal(err)
	}
	// Both parities must be correct: double failure must be survivable.
	a.FailDisk(0)
	a.FailDisk(1)
	got := make([]byte, blockdev.PageSize)
	for i, lba := range peers {
		if _, err := a.ReadPages(0, lba, 1, got); err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if !bytes.Equal(got, buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize]) {
			t.Fatalf("peer %d mismatch after double failure", i)
		}
	}
}

func TestParityUpdateReconstructWithDeadParity(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	oracle := writeAll(t, a, 64)
	peers := a.RowPeers(0)
	rowData := make([][]byte, len(peers))
	for i, lba := range peers {
		p := fillPage(byte(0x40 + i))
		if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
			t.Fatal(err)
		}
		oracle[lba] = p
		rowData[i] = p
	}
	// Parity disk of this row dies before the repair: reconstruct must
	// treat the row as resolved (rebuild recomputes it from data).
	l := a.geo.locate(peers[0])
	a.FailDisk(l.par[0])
	if _, err := a.ParityUpdateReconstruct(0, peers[0], rowData); err != nil {
		t.Fatal(err)
	}
	if a.stale.Has(l.row) {
		t.Fatal("row still stale")
	}
	// Rebuild the disk; afterwards everything must verify.
	fresh := blockdev.NewNullDataDevice("fresh", 96)
	if _, err := a.ReplaceDisk(0, l.par[0], fresh); err != nil {
		t.Fatal(err)
	}
	a.FailDisk((l.par[0] + 1) % 5)
	verifyAll(t, a, oracle)
}

func TestParityUpdateDeltaAllParityDead(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	oracle := writeAll(t, a, 64)
	lba := int64(3)
	oldData := oracle[lba]
	newData := fillPage(0x66)
	if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
		t.Fatal(err)
	}
	oracle[lba] = newData
	l := a.geo.locate(lba)
	a.FailDisk(l.par[0])
	// RAID-5 with the parity member dead: the delta fix is a no-op that
	// clears staleness (rebuild recomputes).
	delta := mkDelta(oldData, newData)
	if _, err := a.ParityUpdateDelta(0, []int64{lba}, [][]byte{delta}); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("stale not cleared")
	}
	fresh := blockdev.NewNullDataDevice("fresh", 96)
	if _, err := a.ReplaceDisk(0, l.par[0], fresh); err != nil {
		t.Fatal(err)
	}
	a.FailDisk(l.disk)
	verifyAll(t, a, oracle)
}

func TestRAID6OneParityDeadDeltaFoldsIntoSurvivor(t *testing.T) {
	a := newDataArray(t, Level6, 6, 96, 8)
	oracle := writeAll(t, a, 64)
	lba := int64(9)
	oldData := oracle[lba]
	newData := fillPage(0x5E)
	if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
		t.Fatal(err)
	}
	oracle[lba] = newData
	l := a.geo.locate(lba)
	a.FailDisk(l.par[0]) // P dead, Q survives
	if _, err := a.ParityUpdateDelta(0, []int64{lba},
		[][]byte{mkDelta(oldData, newData)}); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("stale not cleared")
	}
	// With P dead and Q repaired, the data disk may also die (two
	// failures, reconstruct via Q).
	a.FailDisk(l.disk)
	verifyAll(t, a, oracle)
}

func TestReplaceDiskSizeMismatch(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	writeAll(t, a, 10)
	a.FailDisk(0)
	if _, err := a.ReplaceDisk(0, 0, blockdev.NewNullDataDevice("small", 64)); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("err = %v", err)
	}
}

func TestHealthyAndFailedDisks(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 8)
	if !a.Healthy() || a.FailedDisks() != nil {
		t.Fatal("fresh array not healthy")
	}
	a.FailDisk(2)
	a.FailDisk(2) // idempotent
	if a.Healthy() {
		t.Fatal("failure not registered")
	}
	if got := a.FailedDisks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedDisks = %v", got)
	}
	if !a.Survivable() {
		t.Fatal("single failure should be survivable on RAID-5")
	}
	a.FailDisk(3)
	if a.Survivable() {
		t.Fatal("double failure should not be survivable on RAID-5")
	}
}

func TestNameAndAccessors(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	if a.Name() != "RAID-5" || a.Level() != Level5 {
		t.Fatal("identity accessors wrong")
	}
	if a.ChunkPages() != 16 || a.DataChunks() != 4 || a.StripePages() != 64 {
		t.Fatalf("geometry accessors: chunk=%d dc=%d stripe=%d",
			a.ChunkPages(), a.DataChunks(), a.StripePages())
	}
	if a.StripeOf(0) != 0 || a.StripeOf(64) != 1 {
		t.Fatal("StripeOf wrong")
	}
}
