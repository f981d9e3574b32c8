package core_test

import (
	"fmt"
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

// queuedOp is one member operation with its queueing: submitted at at,
// served from start to done.
type queuedOp struct {
	dev             int
	kind            blockdev.Op
	at, start, done sim.Time
	lba             int64
}

// queuedDev is a data member with one arm: every operation takes svc and
// waits for the operations submitted before it, and the shared log
// records when each was submitted and served.
type queuedDev struct {
	*blockdev.NullDevice
	id  int
	svc sim.Time
	arm *sim.Station
	log *[]queuedOp
}

func (d *queuedDev) serve(kind blockdev.Op, t sim.Time, lba int64) sim.Time {
	done := d.arm.Submit(t, d.svc)
	*d.log = append(*d.log, queuedOp{dev: d.id, kind: kind, at: t, start: done - d.svc, done: done, lba: lba})
	return done
}

func (d *queuedDev) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if _, err := d.NullDevice.ReadPages(t, lba, count, buf); err != nil {
		return t, err
	}
	return d.serve(blockdev.OpRead, t, lba), nil
}

func (d *queuedDev) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if _, err := d.NullDevice.WritePages(t, lba, count, buf); err != nil {
		return t, err
	}
	return d.serve(blockdev.OpWrite, t, lba), nil
}

// repair is one row repair as the cache issued it: the row's first LBA
// and the issue time.
type repair struct {
	row int64
	at  sim.Time
}

// repairLog wraps a backend and records every row repair, by delta or by
// reconstruct-write, in issue order.
type repairLog struct {
	cache.Backend
	repairs []repair
}

func (r *repairLog) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	r.repairs = append(r.repairs, repair{r.RowPeers(lbas[0])[0], t})
	return r.Backend.ParityUpdateDelta(t, lbas, deltas)
}

func (r *repairLog) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	r.repairs = append(r.repairs, repair{r.RowPeers(lba)[0], t})
	return r.Backend.ParityUpdateReconstruct(t, lba, rowData)
}

// TestIdleRepairDispatch drives a data-mode KDD over queued RAID-5
// members through the idle queue's life: write hits too close together
// for idle repairs until the cleaner queues a batch; requests an idle
// gap apart, each of which must release exactly one row, issued as the
// engine's own work (and so the row's parity member) drains, never before
// the plan, so the request behind it waits at most that one repair; then
// a second batch that a synchronous pass must issue at once, at its own
// start.
func TestIdleRepairDispatch(t *testing.T) {
	const (
		svc        = 10 * sim.Millisecond
		chunkPages = 8
		cachePages = 1024
		footprint  = 900 // fills the cache to within one batch of its end
	)
	var ops []queuedOp
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, &queuedDev{
			NullDevice: blockdev.NewNullDataDevice("d", 4096),
			id:         i, svc: svc, arm: sim.NewStation("d", 1), log: &ops,
		})
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: chunkPages}, members)
	if err != nil {
		t.Fatal(err)
	}
	rl := &repairLog{Backend: a}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDataDevice("ssd", 64+cachePages), Backend: rl,
		CachePages: cachePages, Ways: 64, MetaPages: 64, Codec: delta.ZRLE{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small deltas: the dirty pages pass the low-water mark long before
	// DEZ pages use up the free pool.
	mut := delta.NewMutator(1, 0.05)
	pages := make(map[int64][]byte)
	now, last := sim.Time(0), sim.Time(0) // last: the latest request completion
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
		last = max(last, done)
		return done
	}
	for lba := int64(0); lba < footprint; lba++ { // write misses, a second apart
		write(lba)
		now += sim.Second
	}
	rng := sim.NewRNG(1)
	plan := func() ([]int64, sim.Time) {
		t.Helper()
		for i := 0; i < 4*footprint; i++ {
			if rows, at := k.IdleRows(); len(rows) > 0 {
				return rows, at
			}
			now += cache.IdleGap / 4
			write(int64(rng.Intn(footprint)))
		}
		t.Fatal("no batch queued")
		return nil, 0
	}

	// Reads of pages the cache never held: one member read apiece. Those
	// closer together than an idle gap release nothing.
	next := int64(2 * footprint)
	read := func() sim.Time {
		t.Helper()
		done, err := k.Read(now, next, make([]byte, blockdev.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		next += chunkPages
		return done
	}
	rows, planned := plan()
	for i := 0; i < 4; i++ {
		now += cache.IdleGap - 1
		last = max(last, read())
	}
	if len(rl.repairs) != 0 {
		t.Fatalf("%d rows repaired before any idle gap", len(rl.repairs))
	}
	for i, want := range rows {
		now += cache.IdleGap
		mark, before := len(ops), len(rl.repairs)
		done := read()
		if got := len(rl.repairs) - before; got != 1 {
			t.Fatalf("request %d released %d rows, want 1", i, got)
		}
		r := rl.repairs[before]
		if r.row != want {
			t.Fatalf("request %d repaired row %d, want the queue's next row %d", i, r.row, want)
		}
		if want := max(last, planned); r.at != want {
			t.Errorf("row %d issued at %v, want the later of the last completion %v and the plan %v",
				r.row, r.at, last, planned)
		}
		last = max(last, done)
		// Every member op submitted before the repair, on its parity
		// member or any other, has completed when the repair is issued,
		// and the repair's own first op starts as it is submitted.
		var first *queuedOp
		for j := range ops {
			op := &ops[j]
			if j < mark && op.done > r.at {
				t.Errorf("row %d issued at %v while member %d is busy until %v", r.row, r.at, op.dev, op.done)
			}
			if j >= mark && first == nil && op.at == r.at {
				first = op
			}
			if j >= mark {
				last = max(last, op.done) // the repair's completion
			}
		}
		if first == nil || first.start != first.at {
			t.Fatalf("row %d: first member op %+v did not start at its issue", r.row, first)
		}
		// The read waits at most for the one repair already started (a
		// parity read and write on one member), then takes its own turn.
		if lat := done - now; lat > 3*svc {
			t.Errorf("request %d took %v, more than one repair (%v) and its own read (%v)", i, lat, 2*svc, svc)
		}
	}
	if left, _ := k.IdleRows(); len(left) != 0 {
		t.Fatalf("%d rows still queued after one idle gap per row", len(left))
	}

	// The backstop: a pass issues everything still queued at its start.
	rows, _ = plan()
	before := len(rl.repairs)
	if _, err := k.Clean(now, false); err != nil {
		t.Fatal(err)
	}
	issued := rl.repairs[before:]
	if len(issued) < len(rows) {
		t.Fatalf("pass repaired %d rows, %d were queued", len(issued), len(rows))
	}
	for i, r := range issued[:len(rows)] {
		if r.row != rows[i] || r.at != now {
			t.Fatalf("pass repair %d: row %d at %v, want queued row %d at the pass start %v", i, r.row, r.at, rows[i], now)
		}
	}
	if left, _ := k.IdleRows(); len(left) != 0 {
		t.Fatalf("%d rows still queued after the pass", len(left))
	}
	t.Logf("%d rows released one per idle gap, %d issued by the pass", len(rl.repairs)-len(issued), len(rows))
}

// TestIdlePlanMatchesLRUWalk feeds one seeded random write sequence to
// two identical engines with requests too close together for idle
// repairs. Whenever the cleaner queues a batch, the queued rows must be
// the ones TestCleanerPlanMatchesLRUWalk's row-at-a-time reference walk
// repairs on the twin, in ascending row order; a pass then issues them,
// and both engines must be left in the same state — under both reclaim
// schemes.
func TestIdlePlanMatchesLRUWalk(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("materialize=%v/seed=%d", materialize, seed), func(t *testing.T) {
				idlePlanMatchesWalk(t, materialize, seed)
			})
		}
	}
}

func idlePlanMatchesWalk(t *testing.T, materialize bool, seed uint64) {
	const (
		chunkPages = 2
		cachePages = 256
		footprint  = 160 // pages, in 20 stripes of 8: 96 pages stay free
		plans      = 8
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
	queued, ql := build()
	walked, wl := build()

	// Small deltas: the dirty pages pass the low-water mark long before
	// DEZ pages use up the free pool.
	rng := sim.NewRNG(seed)
	mut := delta.NewMutator(seed, 0.05)
	pages := make(map[int64][]byte)
	now := sim.Time(0)
	write := func(lba int64) {
		page := make([]byte, blockdev.PageSize)
		if prev, ok := pages[lba]; ok {
			copy(page, prev)
			mut.Mutate(page)
		} else {
			mut.FillRandom(page)
		}
		pages[lba] = page
		for _, k := range []*core.KDD{queued, walked} {
			if _, err := k.Write(now, lba, page); err != nil {
				t.Fatalf("write %d: %v", lba, err)
			}
		}
		now += sim.Millisecond
	}
	for lba := int64(0); lba < footprint; lba++ { // fill: the free pool is below one batch
		write(lba)
	}
	for plan := 0; plan < plans; plan++ {
		var rows []int64
		for i := 0; len(rows) == 0; i++ {
			if i > 100*footprint {
				t.Fatalf("plan %d: no batch queued", plan)
			}
			write(int64(rng.Intn(footprint)))
			rows, _ = queued.IdleRows()
		}
		if ql.rows != nil {
			t.Fatalf("plan %d: rows %v repaired without an idle gap or a pass", plan, ql.rows)
		}
		if !slices.IsSorted(rows) {
			t.Fatalf("plan %d: queued rows %v are not in ascending row order", plan, rows)
		}
		walk := lruWalk(t, walked, wl, now, false)
		slices.Sort(walk)
		if !slices.Equal(rows, walk) {
			t.Fatalf("plan %d: queued rows %v, the LRU walk repairs %v", plan, rows, walk)
		}
		// The pass issues the queue; on the twin, whose walk already
		// repaired those rows, it skips them.
		for _, k := range []*core.KDD{queued, walked} {
			if _, err := k.Clean(now, false); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(ql.rows, rows) || len(wl.rows) != len(walk) {
			t.Fatalf("plan %d: pass repaired %v (twin %d rows after its walk), want the queue %v",
				plan, ql.rows, len(wl.rows), rows)
		}
		if q, w := queued.StateDigest(), walked.StateDigest(); q != w {
			t.Fatalf("plan %d: state digest %#x after the queued repairs, %#x after the walk", plan, q, w)
		}
		ql.rows, wl.rows = nil, nil
	}
}

// BenchmarkIdleDispatch measures the idle queue's host cost on a
// timing-mode stack: each iteration dirties the cache with write hits a
// millisecond apart (untimed) until the cleaner queues a batch, then
// times read hits an idle gap apart until the queue is empty — one row
// released and repaired per read. It reports ns and allocations per
// queued row, the read hit included; -benchmem's figures are per batch.
func BenchmarkIdleDispatch(b *testing.B) {
	const (
		cachePages = 4096
		footprint  = 2 * cachePages // misses keep the free pool low, as on fin1
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
	now := sim.Time(0)
	for lba := int64(0); lba < footprint; lba++ { // write misses: cached Clean
		if _, err := k.Write(now, lba, nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	var rows, mallocs uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; k.IdleQueued() == 0; n++ {
			if n == 100*footprint {
				b.Fatal("no batch queued")
			}
			now += sim.Millisecond
			if _, err := k.Write(now, int64(rng.Intn(footprint)), nil); err != nil {
				b.Fatal(err)
			}
		}
		rows += uint64(k.IdleQueued())
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for k.IdleQueued() > 0 {
			now += cache.IdleGap
			if _, err := k.Read(now, int64(rng.Intn(footprint)), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(mallocs)/float64(rows), "allocs/row")
}
