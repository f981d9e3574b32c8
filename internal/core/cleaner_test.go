package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
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
// NVRAM metadata buffer, and the engine's final state digest. The pass
// repairs the queued rows, then its own, each run in ascending
// member-row order, so it reclaims and logs in that order too.
const cleanerPassDigest uint64 = 0x42f55b181e4a69ab

// TestCleanerIssuesPassAtStart runs a timed data-mode KDD over logged
// member disks, with requests too close together for idle repairs, until
// the first threshold cleaning pass, and checks the cleaner's issue rule:
// the pass repairs the rows an LRU walk picks — first the rows the idle
// queue holds, then its own plan, each in ascending member-row order —
// with every row repair submitted at the pass start; the reclaims and
// metadata records are pinned as a digest.
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
		now += cache.IdleGap / 2
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
	var queued []int64
	mark := 0
	for _, i := range order {
		mark = len(memberLog.ops)
		queued, _ = k.IdleRows()
		passStart = write(lbaOf(i))
		if k.Stats().ParityUpdates > 0 {
			break
		}
	}
	if k.Stats().ParityUpdates == 0 || len(queued) == 0 {
		t.Fatalf("%d rows queued before the pass, %d repaired after the rewrites; want both",
			len(queued), k.Stats().ParityUpdates)
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
	// Every rewritten page is one Old page in a row of its own, so the
	// LRU walk repairs the rows of the first len(passRows) rewrites. Page
	// 0 of stripe s sits at member page s×chunk on every member, so that
	// is the parity page of its row. The queued rows come first, as
	// planned; the pass's own plan follows in ascending order.
	memberPage := func(lba int64) int64 { return lba / stripe * chunkPages }
	var want []int64
	for _, lba := range queued {
		want = append(want, memberPage(lba))
	}
	var walk, own []int64
	for r := range passRows {
		p := memberPage(lbaOf(order[r]))
		walk = append(walk, p)
		if !slices.Contains(want, p) {
			own = append(own, p)
		}
	}
	slices.Sort(own)
	want = append(want, own...)
	if !slices.Equal(passRows, want) {
		slices.Sort(walk)
		t.Fatalf("pass repaired member pages %v, want the LRU walk's rows %v: queued %v first, then the rest ascending",
			passRows, walk, queued)
	}
	if k.DirtyPages() > k.CleanerLow(false) {
		t.Fatalf("pass stopped at %d dirty pages, above the low-water mark %d", k.DirtyPages(), k.CleanerLow(false))
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
	t.Logf("pass at %v: %d rows (%d queued), %d trims, %d metadata records", passStart, len(passRows), len(queued), trims, len(records))
}

// rowLog wraps a backend and records, in issue order, every parity row
// the cache repairs by delta or by reconstruct-write, each by its first
// LBA (RowPeers(lba)[0]).
type rowLog struct {
	cache.Backend
	rows []int64
}

func (r *rowLog) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	r.rows = append(r.rows, r.RowPeers(lbas[0])[0])
	return r.Backend.ParityUpdateDelta(t, lbas, deltas)
}

func (r *rowLog) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	r.rows = append(r.rows, r.RowPeers(lba)[0])
	return r.Backend.ParityUpdateReconstruct(t, lba, rowData)
}

// lruWalk is the reference cleaning pass: take LRU victims, repair one
// row at a time, and re-read DirtyPages after every row. It returns the
// rows it repaired, each by its first LBA, in repair order.
func lruWalk(t *testing.T, k *core.KDD, b cache.Backend, now sim.Time, force bool) []int64 {
	t.Helper()
	f := k.Frame()
	low := k.CleanerLow(force)
	var rows []int64
	for f.Count(cache.Old) > 0 && (force || k.DirtyPages() > low) {
		for _, v := range slices.Clone(f.OldestSlots(cache.Old, core.CleanerBatch)) {
			if f.Slot(v).State != cache.Old {
				continue
			}
			rows = append(rows, b.RowPeers(f.Slot(v).RaidLBA)[0])
			if _, err := k.RepairRow(now, v); err != nil {
				t.Fatal(err)
			}
			if !force && k.DirtyPages() <= low {
				break
			}
		}
	}
	return rows
}

// TestCleanerPlanMatchesLRUWalk feeds one seeded random write sequence to
// two identical data-mode engines, and at every pass cleans one with its
// own cleaner and the other with the row-at-a-time reference walk. The
// cleaner's plan must pick the walk's rows, the pass must repair exactly
// the plan in ascending row order, and both engines must be left with
// the same DirtyPages — under both reclaim schemes, forced and not.
func TestCleanerPlanMatchesLRUWalk(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("materialize=%v/seed=%d", materialize, seed), func(t *testing.T) {
				planMatchesWalk(t, materialize, seed)
			})
		}
	}
}

func planMatchesWalk(t *testing.T, materialize bool, seed uint64) {
	const (
		chunkPages = 2
		cachePages = 256
		footprint  = 96 // pages, in 12 stripes of 8
		passes     = 12
	)
	build := func() (*core.KDD, *rowLog) {
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			members = append(members, blockdev.NewNullDataDevice("d", 256))
		}
		a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: chunkPages}, members)
		if err != nil {
			t.Fatal(err)
		}
		rl := &rowLog{Backend: a}
		k, err := core.New(core.Config{
			SSD: blockdev.NewNullDataDevice("ssd", 64+cachePages), Backend: rl,
			CachePages: cachePages, Ways: 64, MetaPages: 64,
			Codec: delta.ZRLE{}, ReclaimMaterialize: materialize,
		})
		if err != nil {
			t.Fatal(err)
		}
		return k, rl
	}
	planned, pl := build()
	walked, wl := build()

	// Page 7 of every stripe is never written, so row 1 of each stripe is
	// never wholly cached and is repaired by read-modify-write, while row
	// 0 is repaired by reconstruct-write once its four pages are cached.
	rng := sim.NewRNG(seed)
	mut := delta.NewMutator(seed, 0.25)
	pages := make(map[int64][]byte)
	now := sim.Time(0)
	write := func() {
		lba := int64(rng.Intn(footprint))
		if lba%8 == 7 {
			lba--
		}
		page := make([]byte, blockdev.PageSize)
		if prev, ok := pages[lba]; ok {
			copy(page, prev)
			mut.Mutate(page)
		} else {
			mut.FillRandom(page)
		}
		pages[lba] = page
		for _, k := range []*core.KDD{planned, walked} {
			if _, err := k.Write(now, lba, page); err != nil {
				t.Fatalf("write %d: %v", lba, err)
			}
		}
		now += sim.Millisecond
	}

	// A write hit adds at most an Old page and a DEZ page; stopping four
	// short of the high-water mark keeps every pass explicit.
	high := planned.CleanerHigh() - 4
	for pass := 0; pass < passes; pass++ {
		for planned.DirtyPages() < high {
			write()
		}
		if got := planned.Stats().CleanerRuns; got != int64(pass) || walked.Stats().CleanerRuns != 0 {
			t.Fatalf("pass %d: a write ran the cleaner (runs %d and %d)", pass, got, walked.Stats().CleanerRuns)
		}
		if d := walked.DirtyPages(); d != planned.DirtyPages() {
			t.Fatalf("pass %d: engines fed the same writes hold %d and %d dirty pages", pass, planned.DirtyPages(), d)
		}
		if old := planned.Frame().Count(cache.Old); old > core.CleanerBatch {
			t.Fatalf("pass %d: %d Old pages need more than one batch", pass, old)
		}
		force := rng.Intn(3) == 0
		plan := planned.CleanerPlan(force)

		pl.rows, wl.rows = pl.rows[:0], wl.rows[:0]
		if _, err := planned.Clean(now, force); err != nil {
			t.Fatal(err)
		}
		walk := lruWalk(t, walked, wl, now, force)
		if !slices.Equal(wl.rows, walk) {
			t.Fatalf("pass %d: reference repaired %v, recorded %v", pass, walk, wl.rows)
		}
		if !slices.Equal(pl.rows, plan) {
			t.Fatalf("pass %d (force=%v): cleaner repaired %v, its plan was %v", pass, force, pl.rows, plan)
		}
		if !slices.IsSorted(plan) {
			t.Fatalf("pass %d: plan %v is not in ascending row order", pass, plan)
		}
		slices.Sort(walk)
		if !slices.Equal(plan, walk) {
			t.Fatalf("pass %d (force=%v): plan repairs rows %v, the LRU walk %v", pass, force, plan, walk)
		}
		if p, w := planned.DirtyPages(), walked.DirtyPages(); p != w {
			t.Fatalf("pass %d (force=%v): %d dirty pages after the planned pass, %d after the walk", pass, force, p, w)
		}
		if len(plan) == 0 {
			t.Fatalf("pass %d: nothing to clean", pass)
		}
		now += sim.Second
	}
}

// BenchmarkCleanPass measures the cleaner's host cost on a timing-mode
// stack: each iteration dirties the cache with 1 024 random write hits
// (untimed) and times one forced pass, which plans and issues every stale
// row. It reports ns and allocations per repaired row; -benchmem's
// figures are per pass.
func BenchmarkCleanPass(b *testing.B) {
	const (
		cachePages = 4096
		footprint  = 3072
		hits       = 1024
	)
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice("d", 1<<16))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 4}, members)
	if err != nil {
		b.Fatal(err)
	}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDevice("ssd", 64+cachePages), Backend: a,
		CachePages: cachePages, Ways: 64, MetaPages: 64,
		Codec: delta.NewModelled(1, 0.25),
	})
	if err != nil {
		b.Fatal(err)
	}
	for lba := int64(0); lba < footprint; lba++ { // write misses: cached Clean
		if _, err := k.Write(0, lba, nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	var rows, mallocs uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < hits; j++ {
			if _, err := k.Write(0, int64(rng.Intn(footprint)), nil); err != nil {
				b.Fatal(err)
			}
		}
		before := k.Stats().ParityUpdates
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		if _, err := k.Clean(0, true); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		rows += uint64(k.Stats().ParityUpdates - before)
	}
	if rows == 0 {
		b.Fatal("no row repaired")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(mallocs)/float64(rows), "allocs/row")
}
