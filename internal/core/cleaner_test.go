package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// loggedOp is one device operation as its device saw it: which device,
// what kind, the virtual time it was submitted at, and its first page. A
// write also carries a hash of its payload.
type loggedOp struct {
	dev  int
	kind blockdev.Op
	at   sim.Time
	lba  int64
	sum  uint64
}

// opLog collects the operations of several devices in submission order.
type opLog struct{ ops []loggedOp }

// loggingDev wraps a device and appends every operation to a shared log
// before passing it on.
type loggingDev struct {
	*blockdev.NullDevice
	id  int
	log *opLog
}

func (d *loggingDev) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.log.ops = append(d.log.ops, loggedOp{dev: d.id, kind: blockdev.OpRead, at: t, lba: lba})
	return d.NullDevice.ReadPages(t, lba, count, buf)
}

func (d *loggingDev) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	h := fnv.New64a()
	h.Write(buf)
	d.log.ops = append(d.log.ops, loggedOp{dev: d.id, kind: blockdev.OpWrite, at: t, lba: lba, sum: h.Sum64()})
	return d.NullDevice.WritePages(t, lba, count, buf)
}

func (d *loggingDev) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	d.log.ops = append(d.log.ops, loggedOp{dev: d.id, kind: blockdev.OpTrim, at: t, lba: lba})
	return d.NullDevice.TrimPages(t, lba, count)
}

// cleanerPassDigest pins the cache-side outcome of the threshold pass in
// TestCleanerIssuesPassAtStart: the reclaimed slots (SSD trims) and the
// committed metadata-log page images in order, the records still in the
// NVRAM metadata buffer, and the engine's final state digest. It was
// taken from a cleaner that chained each row on the previous row's
// completion: when a row is issued must not change what the pass does.
const cleanerPassDigest uint64 = 0xcbe79196d2d9bc0f

// TestCleanerIssuesPassAtStart runs a timed data-mode KDD over logged
// member disks until the first threshold cleaning pass, and checks the
// cleaner's issue rule: every row repair of the pass is submitted at the
// pass start, rows in LRU victim order, while the reclaims and metadata
// records are exactly those of a cleaner that chains its rows.
func TestCleanerIssuesPassAtStart(t *testing.T) {
	const (
		diskLat    = 10 * sim.Millisecond
		chunkPages = 8
		cachePages = 256
		metaPages  = 64
		rows       = 128
	)
	memberLog, ssdLog := &opLog{}, &opLog{}
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		d := blockdev.NewNullDataDevice("d", 4096)
		d.Latency = diskLat
		members = append(members, &loggingDev{NullDevice: d, id: i, log: memberLog})
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: chunkPages}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssdDev := blockdev.NewNullDataDevice("ssd", cachePages+256)
	ssdDev.Latency = 100 * sim.Microsecond
	k, err := core.New(core.Config{
		SSD: &loggingDev{NullDevice: ssdDev, log: ssdLog}, Backend: a,
		CachePages: cachePages, Ways: 32, MetaPages: metaPages,
		Codec: delta.ZRLE{},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One cached page per parity row (page 0 of each stripe), so every
	// repair is a read-modify-write of that row's parity alone. The
	// rewrite order is a permutation, so the LRU victim order is not the
	// row order.
	stripe := a.StripePages()
	lbaOf := func(i int) int64 { return int64(i) * stripe }
	order := make([]int, rows)
	for i := range order {
		order[i] = i * 37 % rows
	}
	mut := delta.NewMutator(5, 0.25)
	pages := make(map[int64][]byte)
	now := sim.Time(0)
	write := func(lba int64) sim.Time {
		t.Helper()
		page := make([]byte, blockdev.PageSize)
		if prev, ok := pages[lba]; ok {
			copy(page, prev)
			mut.Mutate(page)
		} else {
			mut.FillRandom(page)
		}
		pages[lba] = page
		done, err := k.Write(now, lba, page)
		if err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
		now += sim.Second
		return done
	}
	for i := 0; i < rows; i++ {
		write(lbaOf(i))
	}
	if k.Stats().CleanerRuns != 0 {
		t.Fatal("cleaner ran while the cache was only filling")
	}

	// Rewrite until a write hit crosses the high-water mark. The pass
	// runs behind that write's response, from its completion time.
	var passStart sim.Time
	mark := 0
	for _, i := range order {
		mark = len(memberLog.ops)
		passStart = write(lbaOf(i))
		if k.Stats().CleanerRuns > 0 {
			break
		}
	}
	if k.Stats().CleanerRuns != 1 {
		t.Fatalf("cleaner runs %d after the rewrites, want 1", k.Stats().CleanerRuns)
	}
	call := memberLog.ops[mark:]
	if len(call) == 0 || call[0].kind != blockdev.OpWrite || call[0].at+diskLat != passStart {
		t.Fatalf("triggering write hit is not one member write ending at the pass start: %+v", call)
	}
	pass := call[1:]
	if len(pass) == 0 || len(pass)%2 != 0 {
		t.Fatalf("pass issued %d member ops, want read/write pairs", len(pass))
	}

	var passRows []int64
	for r := 0; r < len(pass); r += 2 {
		rd, wr := pass[r], pass[r+1]
		if rd.kind != blockdev.OpRead || wr.kind != blockdev.OpWrite || rd.dev != wr.dev || rd.lba != wr.lba {
			t.Fatalf("row %d: ops %+v, %+v are not a parity read-modify-write", r/2, rd, wr)
		}
		if rd.at != passStart {
			t.Errorf("row %d: first member op submitted at %v, want the pass start %v", r/2, rd.at, passStart)
		}
		if wr.at != rd.at+diskLat {
			t.Errorf("row %d: parity write submitted at %v, want its read's completion %v", r/2, wr.at, rd.at+diskLat)
		}
		passRows = append(passRows, rd.lba)
	}
	// Page 0 of stripe s sits at member page s×chunk on every member, so
	// that is the parity page of its row.
	for r, got := range passRows {
		if want := lbaOf(order[r]) / stripe * chunkPages; got != want {
			t.Fatalf("row %d repaired member page %d, want %d (LRU victim order %v…)", r, got, want, order[:len(passRows)])
		}
	}

	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	trims := 0
	for _, op := range ssdLog.ops {
		switch {
		case op.kind == blockdev.OpTrim:
			trims++
			put(uint64(op.lba))
		case op.kind == blockdev.OpWrite && op.lba < metaPages:
			put(uint64(op.lba))
			put(op.sum)
		}
	}
	records := k.Log().BufferedEntries()
	for _, e := range records {
		put(uint64(e.State))
		put(uint64(e.DazPage)<<32 | uint64(e.RaidLBA))
		put(uint64(e.DezPage)<<32 | uint64(e.DezOff)<<16 | uint64(e.DezLen))
		if e.DezRaw {
			put(1)
		}
	}
	if trims == 0 || len(records) == 0 {
		t.Fatalf("digest covers %d trims and %d buffered metadata records; want both", trims, len(records))
	}
	put(k.StateDigest())
	if got := h.Sum64(); got != cleanerPassDigest {
		t.Errorf("reclaims and metadata records digest %#x, want %#x", got, cleanerPassDigest)
	}
	t.Logf("pass at %v: %d rows, %d trims, %d metadata records", passStart, len(passRows), trims, len(records))
}
