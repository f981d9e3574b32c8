package raid

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// newDataArray builds a data-mode array over NullDevices (zero latency).
func newDataArray(t *testing.T, level Level, disks int, diskPages int64, chunk int64) *Array {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < disks; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", diskPages))
	}
	a, err := New(Config{Level: level, ChunkPages: chunk}, members)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func fillPage(v byte) []byte { return bytes.Repeat([]byte{v}, blockdev.PageSize) }

func writeAll(t *testing.T, a *Array, n int64) map[int64][]byte {
	t.Helper()
	oracle := make(map[int64][]byte)
	rng := sim.NewRNG(1)
	for lba := int64(0); lba < n; lba++ {
		p := fillPage(byte(rng.Uint64()))
		p[0] = byte(lba) // make pages distinct-ish
		p[1] = byte(lba >> 8)
		if _, err := a.WritePages(0, lba, 1, p); err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
		oracle[lba] = p
	}
	return oracle
}

func verifyAll(t *testing.T, a *Array, oracle map[int64][]byte) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range oracle {
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("LBA %d corrupted", lba)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	mk := func(n int) []blockdev.Device {
		var m []blockdev.Device
		for i := 0; i < n; i++ {
			m = append(m, blockdev.NewNullDevice("d", 64))
		}
		return m
	}
	cases := []struct {
		level Level
		disks int
		chunk int64
		ok    bool
	}{
		{Level5, 2, 4, false},
		{Level5, 3, 4, true},
		{Level6, 3, 4, false},
		{Level6, 4, 4, true},
		{Level5, 5, 0, false},
		{Level(0), 5, 4, false},
		{Level(1), 5, 4, false},
		{Level(3), 5, 4, false},
	}
	for _, c := range cases {
		_, err := New(Config{Level: c.level, ChunkPages: c.chunk}, mk(c.disks))
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadGeometry) {
			t.Errorf("level=%v disks=%d chunk=%d: err=%v", c.level, c.disks, c.chunk, err)
		}
	}
	if _, err := New(Config{Level: Level5, ChunkPages: 4}, nil); err == nil {
		t.Error("empty member list accepted")
	}
	mixed := mk(3)
	mixed[2] = blockdev.NewNullDevice("odd", 128)
	if _, err := New(Config{Level: Level5, ChunkPages: 4}, mixed); err == nil {
		t.Error("mismatched member sizes accepted")
	}
}

func TestCapacity(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	// 5 disks, 4 data chunks per stripe, 160 pages/disk → 640 data pages.
	if got := a.Pages(); got != 640 {
		t.Fatalf("Pages = %d, want 640", got)
	}
	a6 := newDataArray(t, Level6, 6, 160, 16)
	if got := a6.Pages(); got != 640 {
		t.Fatalf("RAID6 Pages = %d, want 640", got)
	}
}

func TestLayoutParityRotates(t *testing.T) {
	g := layout{level: Level5, disks: 5, chunkPages: 16, diskPages: 1600}
	seen := map[int]bool{}
	for s := int64(0); s < 5; s++ {
		l := g.locate(s * 16 * 4) // first page of each stripe
		if l.stripe != s {
			t.Fatalf("stripe calc wrong: %+v", l)
		}
		seen[l.par[0]] = true
		if l.disk == l.par[0] {
			t.Fatalf("data and parity on same disk: %+v", l)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("parity visited %d disks over 5 stripes, want 5", len(seen))
	}
}

func TestLayoutLocateRoundTrip(t *testing.T) {
	f := func(lbaRaw uint32, level8 bool) bool {
		level, disks := Level5, 5
		if level8 {
			level, disks = Level6, 8
		}
		g := layout{level: level, disks: disks, chunkPages: 16, diskPages: 1 << 20}
		lba := int64(lbaRaw % (1 << 24))
		l := g.locate(lba)
		back := g.logicalLBA(l.stripe, l.dataIdx, l.row%g.chunkPages)
		if back != lba {
			return false
		}
		// Data disk must never collide with parity disks.
		if l.disk == l.par[0] || (l.par[1] >= 0 && l.disk == l.par[1]) {
			return false
		}
		// Row peers must be distinct disks.
		rl := g.locateRow(l.row)
		ds := map[int]bool{rl.par[0]: true}
		if rl.par[1] >= 0 {
			if ds[rl.par[1]] {
				return false
			}
			ds[rl.par[1]] = true
		}
		for _, d := range rl.dataDisks {
			if ds[d] {
				return false
			}
			ds[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRAID5ReadWriteRoundTrip(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, 200)
	verifyAll(t, a, oracle)
}

func TestRAID5DegradedReadEveryDisk(t *testing.T) {
	for fail := 0; fail < 5; fail++ {
		a := newDataArray(t, Level5, 5, 160, 16)
		oracle := writeAll(t, a, 320)
		a.FailDisk(fail)
		verifyAll(t, a, oracle) // must reconstruct transparently
		if a.Stats().DegradedRead == 0 {
			t.Fatalf("disk %d: no degraded reads recorded", fail)
		}
	}
}

func TestRAID6SingleAndDoubleFailure(t *testing.T) {
	cases := [][]int{{0}, {3}, {0, 1}, {2, 5}, {4, 5}, {0, 5}}
	for _, fails := range cases {
		a := newDataArray(t, Level6, 6, 160, 16)
		oracle := writeAll(t, a, 300)
		for _, f := range fails {
			a.FailDisk(f)
		}
		verifyAll(t, a, oracle)
	}
}

func TestRAID6TripleFailureFails(t *testing.T) {
	a := newDataArray(t, Level6, 6, 160, 16)
	writeAll(t, a, 50)
	a.FailDisk(0)
	a.FailDisk(1)
	a.FailDisk(2)
	buf := make([]byte, blockdev.PageSize)
	anyErr := false
	for lba := int64(0); lba < 50; lba++ {
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			anyErr = true
			if !errors.Is(err, ErrTooManyFailures) {
				t.Fatalf("unexpected error %v", err)
			}
		}
	}
	if !anyErr {
		t.Fatal("triple failure went unnoticed")
	}
}

func TestRAID5DegradedWriteThenReadBack(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, 320)
	a.FailDisk(2)
	// Overwrite pages while degraded; both pages on the failed disk and on
	// healthy disks.
	for lba := int64(0); lba < 320; lba += 7 {
		p := fillPage(byte(0xE0 + lba))
		if _, err := a.WritePages(0, lba, 1, p); err != nil {
			t.Fatalf("degraded write %d: %v", lba, err)
		}
		oracle[lba] = p
	}
	verifyAll(t, a, oracle)
}

func TestWriteNoParityMarksStaleAndDeltaRepairs(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, 320)

	// Overwrite one page without parity update.
	lba := int64(37)
	oldData := oracle[lba]
	newData := fillPage(0x77)
	if _, err := a.WriteNoParity(0, lba, 1, newData); err != nil {
		t.Fatal(err)
	}
	oracle[lba] = newData
	if a.StaleRows() != 1 {
		t.Fatalf("StaleRows = %d, want 1", a.StaleRows())
	}

	// Normal reads still fine (no disk failed).
	verifyAll(t, a, oracle)

	// Degraded read of the stale row must report the vulnerability window.
	l := a.geo.locate(lba)
	a.FailDisk(l.disk)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, lba, 1, buf); !errors.Is(err, ErrStaleParity) {
		t.Fatalf("stale degraded read err = %v, want ErrStaleParity", err)
	}
	// Heal the disk again for the repair phase.
	a.disks[l.disk].Repair(mirrorOf(t, a, l.disk))
	a.failed--

	// Apply the delta (old ⊕ new) to repair parity.
	delta := make([]byte, blockdev.PageSize)
	copy(delta, oldData)
	blockdev.XORInto(delta, newData)
	if _, err := a.ParityUpdateDelta(0, []int64{lba}, [][]byte{delta}); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatalf("StaleRows = %d after repair", a.StaleRows())
	}

	// Now a degraded read must reconstruct the NEW data correctly.
	a.FailDisk(l.disk)
	if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, newData) {
		t.Fatal("parity repair did not capture the new data")
	}
}

// mirrorOf clones the current content of member disk i so it can be
// "repaired" without rebuilding (test helper only).
func mirrorOf(t *testing.T, a *Array, i int) blockdev.Device {
	t.Helper()
	s, ok := a.disks[i].Inner().(blockdev.Storer)
	if !ok || s.Store() == nil {
		t.Fatal("mirrorOf requires data mode")
	}
	nd := blockdev.NewNullDataDevice("clone", a.geo.diskPages)
	buf := make([]byte, blockdev.PageSize)
	for r := int64(0); r < a.geo.diskPages; r++ {
		s.Store().ReadPage(r, buf)
		nd.Store().WritePage(r, buf)
	}
	return nd
}

func TestResyncAfterManyNoParityWrites(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, 320)
	rng := sim.NewRNG(5)
	for i := 0; i < 100; i++ {
		lba := int64(rng.Uint64n(320))
		p := fillPage(byte(rng.Uint64()))
		if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
			t.Fatal(err)
		}
		oracle[lba] = p
	}
	if a.StaleRows() == 0 {
		t.Fatal("expected stale rows")
	}
	if _, err := a.Resync(0); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("resync left stale rows")
	}
	// After resync, any single-disk failure must be fully recoverable.
	a.FailDisk(1)
	verifyAll(t, a, oracle)
}

func TestReplaceDiskRebuild(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		disks := 5
		if level == Level6 {
			disks = 6
		}
		a := newDataArray(t, level, disks, 96, 16)
		oracle := writeAll(t, a, a.Pages()/2)
		a.FailDisk(1)
		fresh := blockdev.NewNullDataDevice("fresh", 96)
		if _, err := a.ReplaceDisk(0, 1, fresh); err != nil {
			t.Fatalf("%v rebuild: %v", level, err)
		}
		if !a.Healthy() {
			t.Fatalf("%v: array not healthy after rebuild", level)
		}
		verifyAll(t, a, oracle)
		// After rebuild a different disk may fail and data must survive.
		a.FailDisk(2)
		verifyAll(t, a, oracle)
	}
}

func TestReplaceDiskAutoResync(t *testing.T) {
	// ReplaceDisk runs the §III-E resync itself (parity_update precedes
	// rebuild), so callers no longer see a bare ErrNeedResync. A stale row
	// whose data all survives (the failed member holds its parity) is
	// healed transparently; a stale row whose data was on the failed
	// member really lost that page, and the rebuild must say so loudly.
	a := newDataArray(t, Level5, 5, 96, 16)
	oracle := writeAll(t, a, 100)

	// Stripe 0 parity lives on disk 4: a stale row there loses only parity.
	p0 := fillPage(0xA1)
	if _, err := a.WriteNoParity(0, 5, 1, p0); err != nil {
		t.Fatal(err)
	}
	oracle[5] = p0
	a.FailDisk(4)
	if _, err := a.ReplaceDisk(0, 4, blockdev.NewNullDataDevice("f", 96)); err != nil {
		t.Fatalf("auto-resync rebuild: %v", err)
	}
	if n := len(a.LostRows()); n != 0 {
		t.Fatalf("lost rows after parity-only staleness: %d", n)
	}
	if a.StaleRows() != 0 {
		t.Fatal("stale rows survived ReplaceDisk")
	}
	verifyAll(t, a, oracle)

	// Make a row stale again and fail the member holding lba 53, a data
	// page of that row: the §III-E window lost it for real.
	p1 := fillPage(0xB2)
	if _, err := a.WriteNoParity(0, 5, 1, p1); err != nil {
		t.Fatal(err)
	}
	oracle[5] = p1
	a.FailDisk(3)
	if _, err := a.ReplaceDisk(0, 3, blockdev.NewNullDataDevice("g", 96)); err != nil {
		t.Fatalf("rebuild with lost data: %v", err)
	}
	if n := len(a.LostRows()); n != 1 {
		t.Fatalf("lost rows = %d, want 1", n)
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, 53, 1, buf); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("read of lost page: err = %v, want ErrUnrecoverable", err)
	}
	// Unaffected pages of the same row still read fine.
	if _, err := a.ReadPages(0, 5, 1, buf); err != nil {
		t.Fatalf("read of surviving page: %v", err)
	}
	// Overwriting the lost page heals it.
	p2 := fillPage(0xC3)
	if _, err := a.WritePages(0, 53, 1, p2); err != nil {
		t.Fatal(err)
	}
	oracle[53] = p2
	if len(a.LostRows()) != 0 {
		t.Fatal("overwrite did not heal the lost page")
	}
	verifyAll(t, a, oracle)
}

func TestReplaceHealthyDiskRejected(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 16)
	if _, err := a.ReplaceDisk(0, 0, blockdev.NewNullDataDevice("f", 96)); !errors.Is(err, ErrNotDegraded) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteRowFullStripe(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	peers := a.RowPeers(0)
	if len(peers) != 4 {
		t.Fatalf("RowPeers = %v", peers)
	}
	buf := make([]byte, 4*blockdev.PageSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if _, err := a.WriteRow(0, peers[0], buf); err != nil {
		t.Fatal(err)
	}
	// Read back each page and verify under single-disk failure too.
	got := make([]byte, blockdev.PageSize)
	for i, lba := range peers {
		if _, err := a.ReadPages(0, lba, 1, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize]) {
			t.Fatalf("peer %d mismatch", i)
		}
	}
	a.FailDisk(a.geo.locate(peers[2]).disk)
	if _, err := a.ReadPages(0, peers[2], 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf[2*blockdev.PageSize:3*blockdev.PageSize]) {
		t.Fatal("full-stripe parity wrong (degraded read failed)")
	}
}

func TestParityUpdateReconstruct(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	oracle := writeAll(t, a, 64)
	peers := a.RowPeers(0)
	// Dirty all peers without parity.
	rowData := make([][]byte, len(peers))
	for i, lba := range peers {
		p := fillPage(byte(0x10 + i))
		if _, err := a.WriteNoParity(0, lba, 1, p); err != nil {
			t.Fatal(err)
		}
		oracle[lba] = p
		rowData[i] = p
	}
	if _, err := a.ParityUpdateReconstruct(0, peers[0], rowData); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("reconstruct did not clear stale")
	}
	a.FailDisk(a.geo.locate(peers[1]).disk)
	verifyAll(t, a, oracle)
}

func TestRowPeersShareRow(t *testing.T) {
	a := newDataArray(t, Level6, 6, 160, 16)
	f := func(raw uint16) bool {
		lba := int64(raw) % a.Pages()
		peers := a.RowPeers(lba)
		if len(peers) != a.DataChunks() {
			return false
		}
		row := a.geo.locate(lba).row
		found := false
		for _, p := range peers {
			if a.geo.locate(p).row != row {
				return false
			}
			if p == lba {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWriteTimingTwoPhases(t *testing.T) {
	// With 1ms-latency members, a RAID-5 small write must take ~2ms (read
	// phase + write phase), not 4ms (fully serialized) and not 1ms.
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		d := blockdev.NewNullDevice("d", 1024)
		d.Latency = sim.Millisecond
		members = append(members, d)
	}
	a, err := New(Config{Level: Level5, ChunkPages: 16}, members)
	if err != nil {
		t.Fatal(err)
	}
	done, err := a.WritePages(0, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != 2*sim.Millisecond {
		t.Fatalf("small write latency = %v, want 2ms", done)
	}
	// WriteNoParity is a single disk write: 1ms.
	done, err = a.WriteNoParity(0, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != sim.Millisecond {
		t.Fatalf("no-parity write latency = %v, want 1ms", done)
	}
}

func TestStatsCounters(t *testing.T) {
	a := newDataArray(t, Level5, 5, 160, 16)
	writeAll(t, a, 10)
	s := a.Stats()
	if s.DataWrites != 10 || s.ParityWrites != 10 || s.DataReads != 10 || s.ParityReads != 10 {
		t.Fatalf("RMW counters off: %+v", s)
	}
	if _, err := a.WriteNoParity(0, 0, 1, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().NoParityWr != 1 {
		t.Fatalf("NoParityWr = %d", a.Stats().NoParityWr)
	}
}

func TestRandomOpsAgainstOracleProperty(t *testing.T) {
	// Random mix of parity and no-parity writes with periodic resyncs and
	// a final failure: the array must always agree with a flat oracle.
	f := func(seed uint64) bool {
		a := newDataArray(t, Level5, 5, 96, 8)
		rng := sim.NewRNG(seed)
		oracle := make(map[int64][]byte)
		n := a.Pages()
		for i := 0; i < 300; i++ {
			lba := int64(rng.Uint64n(uint64(n)))
			p := fillPage(byte(rng.Uint64()))
			var err error
			if rng.Float64() < 0.5 {
				_, err = a.WritePages(0, lba, 1, p)
			} else {
				_, err = a.WriteNoParity(0, lba, 1, p)
			}
			if err != nil {
				return false
			}
			oracle[lba] = p
			if i%97 == 96 {
				if _, err := a.Resync(0); err != nil {
					return false
				}
			}
		}
		if _, err := a.Resync(0); err != nil {
			return false
		}
		a.FailDisk(int(rng.Uint64n(5)))
		buf := make([]byte, blockdev.PageSize)
		for lba, want := range oracle {
			if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeErrors(t *testing.T) {
	a := newDataArray(t, Level5, 5, 96, 16)
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, a.Pages(), 1, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.WritePages(0, -1, 1, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.WriteNoParity(0, a.Pages(), 1, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.ReadPages(0, 0, 2, buf); !errors.Is(err, blockdev.ErrBadBuffer) {
		t.Fatalf("err = %v", err)
	}
}
