package raid

import (
	"bytes"
	"errors"
	"testing"

	"kddcache/internal/blockdev"
)

func memberStore(t *testing.T, a *Array, i int) *blockdev.MemStore {
	t.Helper()
	s, ok := a.Member(i).(blockdev.Storer)
	if !ok || s.Store() == nil {
		t.Fatal("test requires data-mode members")
	}
	return s.Store()
}

func memberReads(t *testing.T, a *Array, i int) int64 {
	t.Helper()
	r, ok := a.Member(i).(interface{ Reads() int64 })
	if !ok {
		t.Fatal("member has no read counter")
	}
	return r.Reads()
}

// A single-page media error on an otherwise healthy member must be healed
// by read-repair: the read succeeds with correct data, the member is NOT
// declared failed, and — verified through per-disk op counters — the very
// next read of the same page is served by the member directly, no
// reconstruction involved.
func TestReadRepairSingleMediaError(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		disks := 5
		if level == Level6 {
			disks = 6
		}
		a := newDataArray(t, level, disks, 160, 16)
		oracle := writeAll(t, a, a.Pages())

		lba := int64(37)
		l := a.geo.locate(lba)
		a.Injector(l.disk).InjectBadPage(l.row)

		buf := make([]byte, blockdev.PageSize)
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("%v: read with media error: %v", level, err)
		}
		if !bytes.Equal(buf, oracle[lba]) {
			t.Fatalf("%v: read-repair returned wrong data", level)
		}
		if len(a.FailedDisks()) != 0 {
			t.Fatalf("%v: media error failed the member disk", level)
		}
		st := a.Stats()
		if st.MediaErrors != 1 || st.ReadRepairs != 1 {
			t.Fatalf("%v: stats = %+v, want 1 media error / 1 read repair", level, st)
		}

		// The page was rewritten in place: re-reading touches only the
		// data member, proving the repair stuck.
		before := make([]int64, disks)
		for i := range before {
			before[i] = memberReads(t, a, i)
		}
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("%v: re-read: %v", level, err)
		}
		for i := range before {
			delta := memberReads(t, a, i) - before[i]
			want := int64(0)
			if i == l.disk {
				want = 1
			}
			if delta != want {
				t.Fatalf("%v: disk %d saw %d reads after repair, want %d", level, i, delta, want)
			}
		}
		verifyAll(t, a, oracle)
	}
}

// RAID-6 can repair a media-lost data page via Q even while the P disk is
// whole-device failed.
func TestReadRepairViaQWithPFailed(t *testing.T) {
	a := newDataArray(t, Level6, 6, 160, 16)
	oracle := writeAll(t, a, a.Pages())
	lba := int64(101)
	l := a.geo.locate(lba)
	a.FailDisk(l.par[0])
	a.Injector(l.disk).InjectBadPage(l.row)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, oracle[lba]) {
		t.Fatal("repair via Q returned wrong data")
	}
}

// When redundancy is exhausted the read must fail loudly, not serve
// zeros or stale bytes.
func TestReadRepairUnrecoverable(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	writeAll(t, a, a.Pages())
	lba := int64(5)
	l := a.geo.locate(lba)
	peers := a.RowPeers(lba)
	l2 := a.geo.locate(peers[1])
	a.Injector(l.disk).InjectBadPage(l.row)
	a.Injector(l2.disk).InjectBadPage(l2.row)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, lba, 1, buf); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

// A media error on a row whose parity is stale is inside the
// delayed-parity data-loss window: it must surface as ErrStaleParity.
func TestReadRepairStaleRow(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, a.Pages())
	lba := int64(12)
	p := oracle[lba]
	p[2] ^= 0xFF
	if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
		t.Fatal(err)
	}
	// Lose a *different* page of the same (now stale) row.
	peers := a.RowPeers(lba)
	l2 := a.geo.locate(peers[1])
	a.Injector(l2.disk).InjectBadPage(l2.row)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, peers[1], 1, buf); !errors.Is(err, ErrStaleParity) {
		t.Fatalf("err = %v, want ErrStaleParity", err)
	}
}

func TestScrubRepairsLatentAndBitRot(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, a.Pages())

	// Latent sector error on one member page.
	lbaA := int64(3)
	la := a.geo.locate(lbaA)
	a.Injector(la.disk).InjectBadPage(la.row)

	// Detectable bit-rot (checksum mismatch) on another member page.
	lbaB := int64(400)
	lb := a.geo.locate(lbaB)
	memberStore(t, a, lb.disk).CorruptPage(lb.row, 99)

	// Silent bit-flip on a parity page: only the parity cross-check can
	// see it.
	lbaC := int64(200)
	lc := a.geo.locate(lbaC)
	memberStore(t, a, lc.par[0]).CorruptPageSilently(lc.row, 7)

	_, rep, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MediaRepaired != 2 {
		t.Fatalf("MediaRepaired = %d, want 2 (latent + bit-rot)", rep.MediaRepaired)
	}
	if rep.ParityFixed != 1 {
		t.Fatalf("ParityFixed = %d, want 1 (silent parity flip)", rep.ParityFixed)
	}
	if len(rep.Unrecoverable) != 0 {
		t.Fatalf("unexpected unrecoverable rows: %v", rep.Unrecoverable)
	}
	verifyAll(t, a, oracle)

	// A second pass must find a fully healthy array.
	_, rep2, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MediaRepaired != 0 || rep2.ParityFixed != 0 || len(rep2.Unrecoverable) != 0 {
		t.Fatalf("second scrub not clean: %+v", rep2)
	}
}

// Stale-parity rows belong to the cleaner: the scrub must leave them
// alone (resyncing them here would race the pending delta application).
func TestScrubSkipsStaleRows(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, a.Pages())
	lba := int64(48)
	p := oracle[lba]
	p[0] ^= 0xAA
	if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
		t.Fatal(err)
	}
	stale := a.StaleRows()
	if stale == 0 {
		t.Fatal("WriteNoParity left no stale rows")
	}
	_, rep, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSkipped != int64(stale) {
		t.Fatalf("RowsSkipped = %d, want %d", rep.RowsSkipped, stale)
	}
	if rep.ParityFixed != 0 {
		t.Fatal("scrub touched parity of a stale row")
	}
	if a.StaleRows() != stale {
		t.Fatal("scrub changed the stale-row set")
	}
}

func TestScrubReportsUnrecoverableRows(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	writeAll(t, a, a.Pages())
	lba := int64(64)
	peers := a.RowPeers(lba)
	l0 := a.geo.locate(peers[0])
	l1 := a.geo.locate(peers[1])
	a.Injector(l0.disk).InjectBadPage(l0.row)
	a.Injector(l1.disk).InjectBadPage(l1.row)
	_, rep, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecoverable) != 1 || rep.Unrecoverable[0] != l0.row {
		t.Fatalf("Unrecoverable = %v, want [%d]", rep.Unrecoverable, l0.row)
	}
	// The pages must still read as errors — never silently "repaired".
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, peers[0], 1, buf); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("unrecoverable page served: %v", err)
	}
}

func TestResyncRowClearsStaleAndRepairsParity(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, a.Pages())
	lba := int64(80)
	p := oracle[lba]
	p[5] ^= 0x55
	if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ResyncRow(0, lba); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("ResyncRow left the row stale")
	}
	_, rep, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityFixed != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("parity inconsistent after ResyncRow: %+v", rep)
	}
	verifyAll(t, a, oracle)
}
