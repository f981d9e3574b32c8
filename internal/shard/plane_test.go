package shard_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/hdd"
	"kddcache/internal/nvram"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

const (
	prigMetaPages  = 64
	prigCachePages = 1024 // 128 pages per lane
	prigWays       = 16
	prigDiskPages  = 4096
	prigChunk      = 8
	prigFootprint  = 2048 // backing LBAs the workload touches
)

// prig is a plane test rig: 5-disk RAID-5, data-mode devices, ZRLE
// codec, and a sequential oracle of backing-store contents.
type prig struct {
	p      *shard.Plane
	arr    *raid.Array
	ssd    *blockdev.NullDevice
	cfg    shard.Config
	oracle map[int64][]byte
	mut    *delta.Mutator
	rng    *sim.RNG
}

func newPRig(t testing.TB, shards int, opts ...func(*shard.Config)) *prig {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), prigDiskPages))
	}
	arr, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: prigChunk}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDataDevice("ssd", prigMetaPages+prigCachePages+64)
	cfg := shard.Config{
		SSD:        ssd,
		Backend:    arr,
		CachePages: prigCachePages,
		Ways:       prigWays,
		MetaPages:  prigMetaPages,
		Codec:      func(int) delta.Codec { return delta.ZRLE{} },
		Shards:     shards,
	}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return &prig{
		p: p, arr: arr, ssd: ssd, cfg: cfg,
		oracle: make(map[int64][]byte),
		mut:    delta.NewMutator(7, 0.25),
		rng:    sim.NewRNG(0xBEEF),
	}
}

// batch generates n mixed ops (60% writes) over the hot footprint,
// advancing the oracle sequentially — valid for the plane too, because
// per-LBA order is preserved by lane routing.
func (r *prig) batch(n int) ([]shard.Op, [][]byte) {
	ops := make([]shard.Op, 0, n)
	expect := make([][]byte, n)
	for i := 0; i < n; i++ {
		lba := int64(r.rng.Intn(prigFootprint))
		if r.rng.Float64() < 0.6 {
			page := make([]byte, blockdev.PageSize)
			if prev, ok := r.oracle[lba]; ok {
				copy(page, prev)
				r.mut.Mutate(page)
			} else {
				r.mut.FillRandom(page)
			}
			r.oracle[lba] = page
			ops = append(ops, shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: page})
		} else {
			buf := make([]byte, blockdev.PageSize)
			if prev, ok := r.oracle[lba]; ok {
				snap := make([]byte, blockdev.PageSize)
				copy(snap, prev)
				expect[len(ops)] = snap
			}
			ops = append(ops, shard.Op{Kind: shard.OpRead, LBA: lba, Buf: buf})
		}
	}
	return ops, expect
}

// run drives batches batches of size n, checking every result.
func (r *prig) run(t *testing.T, batches, n int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		ops, expect := r.batch(n)
		res := r.p.RunBatch(0, ops)
		for i, rr := range res {
			if rr.Err != nil {
				t.Fatalf("batch %d op %d (%v lba %d): %v", b, i, ops[i].Kind, ops[i].LBA, rr.Err)
			}
			if ops[i].Kind == shard.OpRead && expect[i] != nil {
				if string(ops[i].Buf) != string(expect[i]) {
					t.Fatalf("batch %d: read %d returned wrong data", b, ops[i].LBA)
				}
			}
		}
	}
}

// verifyOracle reads every written LBA back and checks the contents.
func (r *prig) verifyOracle(t *testing.T) {
	t.Helper()
	for lba, want := range r.oracle {
		buf := make([]byte, blockdev.PageSize)
		if _, err := r.p.Read(0, lba, buf); err != nil {
			t.Fatalf("verify read %d: %v", lba, err)
		}
		if string(buf) != string(want) {
			t.Fatalf("verify read %d: wrong data", lba)
		}
	}
}

// TestRoutingProperties pins the dispatch hash: stable, stripe-granular
// (every page of a stripe shares a lane), independent of shard count,
// and reasonably balanced over the lanes.
func TestRoutingProperties(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 4)
	r2 := newPRig(t, 8)
	stripePages := r.arr.StripePages()
	counts := make([]int, shard.Lanes)
	stripes := int(r.arr.Pages() / stripePages)
	for s := 0; s < stripes; s++ {
		base := int64(s) * stripePages
		lane := r.p.LaneOf(base)
		if lane < 0 || lane >= shard.Lanes {
			t.Fatalf("stripe %d routed to lane %d", s, lane)
		}
		counts[lane]++
		for off := int64(1); off < stripePages; off += 7 {
			if got := r.p.LaneOf(base + off); got != lane {
				t.Fatalf("stripe %d split across lanes %d and %d", s, lane, got)
			}
		}
		if r2.p.LaneOf(base) != lane {
			t.Fatalf("stripe %d routed differently at another shard count", s)
		}
	}
	// 512 stripes over 8 lanes: every lane must carry a fair share. A
	// bound of a quarter of the mean catches residue-correlation bugs
	// (the failure mode of reusing the frame's set hash) without being
	// flaky about ordinary imbalance.
	for lane, c := range counts {
		if c < stripes/shard.Lanes/4 {
			t.Fatalf("lane %d owns only %d of %d stripes", lane, c, stripes)
		}
	}
	// Lanes map onto shards statically and onto valid shard indices.
	for lane := 0; lane < shard.Lanes; lane++ {
		if s := r.p.ShardOf(lane); s < 0 || s >= 4 {
			t.Fatalf("lane %d on shard %d of 4", lane, s)
		}
	}
}

// zipfOutcome is everything a timed data-mode run of the plane lets a
// caller observe: each op's result, what each lane was asked to do, and
// the quiesced state, counters and completion time.
type zipfOutcome struct {
	results []shard.Result
	trace   *planeTrace
	digest  uint64
	stats   string
	done    sim.Time
}

// zipfRun drives a Zipf stream with real pages through a plane over the
// timing models — five hdd members in RAID-5 and a flash SSD, both
// storing data — the way the benchmark's plane workload does: one batch
// in flight, every op of a batch arriving when the previous batch's last
// op completed, reads checked against an oracle.
func zipfRun(t *testing.T, shards int, goroutines bool) zipfOutcome {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, hdd.NewData(fmt.Sprintf("hdd%d", i), hdd.DefaultConfig(prigDiskPages), 3+uint64(i)*7))
	}
	arr, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: prigChunk}, members)
	if err != nil {
		t.Fatal(err)
	}
	out := zipfOutcome{trace: new(planeTrace)}
	flash := recordingSSD{ssd.NewData("ssd", ssd.DefaultConfig(prigMetaPages+prigCachePages+64)), out.trace}
	p, err := shard.New(shard.Config{
		SSD:        flash,
		Backend:    arr,
		CachePages: prigCachePages,
		Ways:       prigWays,
		MetaPages:  prigMetaPages,
		Codec:      func(lane int) delta.Codec { return recordingCodec{tr: out.trace, lane: lane} },
		Shards:     shards,
		Goroutines: goroutines,
		Coalesce:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	reqs := workload.OpenLoop{
		Name: "zipf", OfferedIOPS: 1000, Requests: 3000, Footprint: prigFootprint,
		ReadRatio: 0.5, Theta: 0.9, Seed: 0x21F,
	}.Generate().Requests
	mut := delta.NewMutator(5, 0.25)
	oracle := make(map[int64][]byte)
	var now sim.Time
	for start := 0; start < len(reqs); start += 64 {
		batch := reqs[start:min(start+64, len(reqs))]
		ops := make([]shard.Op, len(batch))
		want := make([][]byte, len(batch))
		for i, q := range batch {
			buf := make([]byte, blockdev.PageSize)
			if q.Op == trace.Read {
				want[i] = oracle[q.LBA]
			} else if prev, ok := oracle[q.LBA]; ok {
				copy(buf, prev)
				mut.Mutate(buf)
				oracle[q.LBA] = buf
			} else {
				mut.FillRandom(buf)
				oracle[q.LBA] = buf
			}
			ops[i] = shard.Op{Kind: shard.OpWrite, LBA: q.LBA, Buf: buf}
			if q.Op == trace.Read {
				ops[i].Kind = shard.OpRead
			}
		}
		next := now
		for i, r := range p.RunBatch(now, ops) {
			if r.Err != nil {
				t.Fatalf("shards=%d goroutines=%v: op %d: %v", shards, goroutines, start+i, r.Err)
			}
			if want[i] != nil && string(ops[i].Buf) != string(want[i]) {
				t.Fatalf("shards=%d goroutines=%v: read %d of LBA %d returned wrong data", shards, goroutines, start+i, ops[i].LBA)
			}
			out.results = append(out.results, r)
			next = sim.MaxTime(next, r.Done)
		}
		now = next
		out.trace.events = append(out.trace.events, evBatch)
	}
	if out.done, err = p.Quiesce(now); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	out.digest, out.stats = p.StateDigest(), p.Stats().String()
	return out
}

// TestDigestEqualityAcrossShards is the plane's determinism contract on
// the timing models: with the goroutine option on or off, at shard
// counts 1, 2, 4 and 8, every op of a Zipf stream completes at the same
// virtual time with the same result, every lane sees the same codec calls
// in the same order, the plane interleaves them with the same metadata
// pages and batch ends, and the quiesced digest and
// counters agree. (While goroutine mode ran one worker per shard, the
// members served the workers' sweeps interleaved, and every one of these
// moved with the shard count.)
func TestDigestEqualityAcrossShards(t *testing.T) {
	t.Parallel()
	want := zipfRun(t, 1, false)
	if want.trace.barrierAfterOps(t, "shards=1") == 0 {
		t.Fatal("no barrier committed a page: the workload is too short to say where barriers run")
	}
	for _, goroutines := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("det-%d", shards)
			if goroutines {
				name = fmt.Sprintf("pool-%d", shards)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				got := zipfRun(t, shards, goroutines)
				for i := range want.results {
					if got.results[i] != want.results[i] {
						t.Fatalf("op %d: result %+v, shards=1 gave %+v", i, got.results[i], want.results[i])
					}
				}
				for lane := range got.trace.lanes {
					if !slices.Equal(got.trace.lanes[lane], want.trace.lanes[lane]) {
						t.Errorf("lane %d saw %d codec calls in an order the shards=1 run (%d) did not",
							lane, len(got.trace.lanes[lane]), len(want.trace.lanes[lane]))
					}
				}
				if !slices.Equal(got.trace.events, want.trace.events) {
					t.Errorf("the plane's codec calls, metadata pages and batch ends (%d events) differ from the shards=1 run's (%d)",
						len(got.trace.events), len(want.trace.events))
				}
				if got.digest != want.digest {
					t.Errorf("digest %#x != shards-1 digest %#x", got.digest, want.digest)
				}
				if got.stats != want.stats {
					t.Errorf("stats diverged from shards=1:\n%s\nvs\n%s", got.stats, want.stats)
				}
				if got.done != want.done {
					t.Errorf("quiesce done at %d, shards=1 at %d", got.done, want.done)
				}
			})
		}
	}
}

// TestCoalescing pins the supersede rule: within one batch a write is
// dropped when a later write covers the same LBA and no read intervenes,
// and kept when one does.
func TestCoalescing(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 4, func(c *shard.Config) { c.Coalesce = true; c.Goroutines = true })
	pageA := make([]byte, blockdev.PageSize)
	pageB := make([]byte, blockdev.PageSize)
	r.mut.FillRandom(pageA)
	copy(pageB, pageA)
	r.mut.Mutate(pageB)
	readBuf := make([]byte, blockdev.PageSize)
	res := r.p.RunBatch(0, []shard.Op{
		{Kind: shard.OpWrite, LBA: 5, Buf: pageA}, // superseded by the op below
		{Kind: shard.OpWrite, LBA: 5, Buf: pageB},
		{Kind: shard.OpWrite, LBA: 9, Buf: pageA}, // read of 9 intervenes: kept
		{Kind: shard.OpRead, LBA: 9, Buf: readBuf},
		{Kind: shard.OpWrite, LBA: 9, Buf: pageB},
	})
	for i, rr := range res {
		if rr.Err != nil {
			t.Fatalf("op %d: %v", i, rr.Err)
		}
	}
	if !res[0].Coalesced || res[1].Coalesced || res[2].Coalesced || res[4].Coalesced {
		t.Fatalf("coalesce verdicts wrong: %+v", res)
	}
	if string(readBuf) != string(pageA) {
		t.Fatal("read between writes observed the wrong version")
	}
	if got := r.p.CoalescedWrites(); got != 1 {
		t.Fatalf("CoalescedWrites = %d, want 1", got)
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.p.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(pageB) {
		t.Fatal("coalesced LBA does not hold the superseding write")
	}
}

// TestLaneRegions pins the lane data regions, which the plane derives
// rather than configures: lane i owns SSD pages [MetaPages + i*L, +L) with
// L = CachePages/Lanes, so the lanes tile the cache partition without
// overlap. Every Clean page is read straight off the SSD at the page that
// formula names, with the goroutine option on and off and again on a
// restored plane.
// The restore also replays an NVRAM-staged delta on a lane >= 1, whose
// region is shifted off the start of the cache partition, and reads the
// page back through it.
func TestLaneRegions(t *testing.T) {
	t.Parallel()
	const lanePages = prigCachePages / shard.Lanes
	for _, goroutines := range []bool{false, true} {
		r := newPRig(t, 4, func(c *shard.Config) { c.Goroutines = goroutines })
		stripePages := r.arr.StripePages()
		var lbas []int64
		for s := int64(0); s < 64; s++ {
			for off := int64(0); off < 2; off++ {
				lba := s*stripePages + off
				page := make([]byte, blockdev.PageSize)
				r.mut.FillRandom(page)
				if _, err := r.p.Write(0, lba, page); err != nil {
					t.Fatalf("goroutines=%v: write %d: %v", goroutines, lba, err)
				}
				r.oracle[lba] = page
				lbas = append(lbas, lba)
			}
		}
		checkRegions := func(p *shard.Plane, when string) {
			t.Helper()
			owner := map[int64]int{} // SSD page -> lane
			buf := make([]byte, blockdev.PageSize)
			for _, lba := range lbas {
				lane := p.LaneOf(lba)
				f := p.Lane(lane).Frame()
				slot := f.Lookup(lba)
				if slot == cache.NoSlot || f.Slot(slot).State != cache.Clean {
					continue
				}
				page := prigMetaPages + int64(lane)*lanePages + int64(slot)
				if prev, ok := owner[page]; ok {
					t.Fatalf("goroutines=%v, %s: SSD page %d claimed by lanes %d and %d", goroutines, when, page, prev, lane)
				}
				owner[page] = lane
				r.ssd.Store().ReadPage(page, buf)
				if string(buf) != string(r.oracle[lba]) {
					t.Fatalf("goroutines=%v, %s: lane %d slot %d: SSD page %d does not hold lba %d",
						goroutines, when, lane, slot, page, lba)
				}
			}
			lanes := map[int]bool{}
			for page, lane := range owner {
				if page < prigMetaPages || page >= prigMetaPages+prigCachePages {
					t.Fatalf("goroutines=%v, %s: SSD page %d outside the cache partition", goroutines, when, page)
				}
				lanes[lane] = true
			}
			if len(lanes) != shard.Lanes {
				t.Fatalf("goroutines=%v, %s: Clean pages on %d lanes, want all %d", goroutines, when, len(lanes), shard.Lanes)
			}
		}
		checkRegions(r.p, "fresh")

		// Rewrite one page on a lane >= 1: the write hit stages its delta.
		var hot int64 = -1
		for _, lba := range lbas {
			if r.p.LaneOf(lba) >= 1 {
				hot = lba
				break
			}
		}
		page := make([]byte, blockdev.PageSize)
		copy(page, r.oracle[hot])
		r.mut.Mutate(page)
		if _, err := r.p.Write(0, hot, page); err != nil {
			t.Fatal(err)
		}
		r.oracle[hot] = page
		hotLane := r.p.LaneOf(hot)
		if r.p.Lane(hotLane).Staging().Len() == 0 {
			t.Fatalf("goroutines=%v: setup: lane %d staged no delta", goroutines, hotLane)
		}

		var stagings [shard.Lanes]*nvram.Staging
		for i := range stagings {
			stagings[i] = r.p.Lane(i).Staging()
		}
		p2, _, err := shard.Restore(r.cfg, 0, r.p.Log().Counters(), r.p.Log().BufferedEntries(), stagings)
		if err != nil {
			t.Fatalf("goroutines=%v: Restore: %v", goroutines, err)
		}
		t.Cleanup(p2.Close)
		checkRegions(p2, "restored")
		buf := make([]byte, blockdev.PageSize)
		if _, err := p2.Read(0, hot, buf); err != nil {
			t.Fatalf("goroutines=%v: read of the staged page on lane %d: %v", goroutines, hotLane, err)
		}
		if string(buf) != string(page) {
			t.Fatalf("goroutines=%v: staged page on lane %d read back wrong after restore", goroutines, hotLane)
		}
	}
}

// TestPlaneRestore crashes a plane mid-workload (no quiesce) and
// rebuilds it from the metadata log plus the NVRAM snapshots: recovered
// reads must match the oracle, and restoring twice from one snapshot
// must yield equal digests (replay idempotence).
func TestPlaneRestore(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 4)
	r.run(t, 25, 32)
	// Crash: capture NVRAM (log counters + buffer, per-lane staging).
	ctr := r.p.Log().Counters()
	buffered := r.p.Log().BufferedEntries()
	var stagings [shard.Lanes]*nvram.Staging
	for i := 0; i < shard.Lanes; i++ {
		stagings[i] = r.p.Lane(i).Staging()
	}
	restore := func() *shard.Plane {
		t.Helper()
		p2, _, err := shard.Restore(r.cfg, 0, ctr, buffered, stagings)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		t.Cleanup(p2.Close)
		return p2
	}
	p2 := restore()
	if err := p2.CheckInvariants(); err != nil {
		t.Fatalf("recovered plane: %v", err)
	}
	d1 := p2.StateDigest()
	p3 := restore()
	if d2 := p3.StateDigest(); d2 != d1 {
		t.Fatalf("double restore diverged: %#x != %#x", d1, d2)
	}
	// Serve the oracle from the recovered plane.
	old := r.p
	r.p = p2
	r.verifyOracle(t)
	r.p = old
}

// TestRebuildPacing fails a member under a live plane and lets the
// batch-barrier pump drive the spare rebuild to completion, in both
// goroutine-option settings, at most eight rows per barrier.
func TestRebuildPacing(t *testing.T) {
	t.Parallel()
	for _, goroutines := range []bool{false, true} {
		goroutines := goroutines
		t.Run(fmt.Sprintf("goroutines=%v", goroutines), func(t *testing.T) {
			t.Parallel()
			r := newPRig(t, 4, func(c *shard.Config) { c.Goroutines = goroutines })
			r.run(t, 10, 32)
			if _, err := r.p.Quiesce(0); err != nil {
				t.Fatal(err)
			}
			spare := blockdev.NewNullDataDevice("spare", prigDiskPages)
			if err := r.arr.AddSpare(spare); err != nil {
				t.Fatal(err)
			}
			r.arr.FailDisk(2)
			if _, started, err := r.arr.StartSpareRebuild(0); err != nil || !started {
				t.Fatalf("StartSpareRebuild: started=%v err=%v", started, err)
			}
			// Foreground traffic continues while the barrier pump pays the
			// rebuild down: 4096 rows at eight a barrier.
			r.runUntilHealthy(t, 600)
			st := r.p.Stats()
			if st.RebuildRows != prigDiskPages || st.RebuildsDone != 1 {
				t.Fatalf("pump stats: rows=%d done=%d", st.RebuildRows, st.RebuildsDone)
			}
			if _, err := r.p.Quiesce(0); err != nil {
				t.Fatal(err)
			}
			r.verifyOracle(t)
		})
	}
}

// runUntilHealthy drives single small batches until the array is fully
// redundant, checking that no barrier steps the rebuild more than eight
// rows.
func (r *prig) runUntilHealthy(t *testing.T, maxBatches int) {
	t.Helper()
	_, prev, _ := r.arr.RebuildTarget()
	for i := 0; i < maxBatches; i++ {
		if r.arr.Healthy() {
			return
		}
		r.run(t, 1, 8)
		_, wm, active := r.arr.RebuildTarget()
		if !active {
			wm = prigDiskPages
		}
		if wm-prev > 8 {
			t.Fatalf("barrier %d stepped the rebuild %d rows, want at most 8", i, wm-prev)
		}
		prev = wm
	}
	t.Fatalf("array not fully redundant after %d batches", maxBatches)
}

// attachProbe records the array's stale-row count at every spare attach.
type attachProbe struct {
	*raid.Array
	staleAtAttach []int
}

func (a *attachProbe) StartSpareRebuild(t sim.Time) (sim.Time, bool, error) {
	a.staleAtAttach = append(a.staleAtAttach, a.StaleRows())
	return a.Array.StartSpareRebuild(t)
}

// TestPlaneAttachesSpare: a plane with a hot spare parked, deltas staged
// across its lanes and a member failed heals itself under foreground
// batches alone. The barrier pump folds every lane before it attaches the
// spare (§III-E: no stale row may meet the rebuild), then paces the
// rebuild to full redundancy, with the goroutine option on and off.
func TestPlaneAttachesSpare(t *testing.T) {
	t.Parallel()
	for _, goroutines := range []bool{false, true} {
		goroutines := goroutines
		t.Run(fmt.Sprintf("goroutines=%v", goroutines), func(t *testing.T) {
			t.Parallel()
			var probe *attachProbe
			r := newPRig(t, 4, func(c *shard.Config) {
				c.Goroutines = goroutines
				probe = &attachProbe{Array: c.Backend.(*raid.Array)}
				c.Backend = probe
			})
			r.run(t, 10, 32)
			// Overwrite cached pages: write hits stage deltas and leave
			// their rows' parity stale.
			var hits []shard.Op
			for lba, prev := range r.oracle {
				page := make([]byte, blockdev.PageSize)
				copy(page, prev)
				r.mut.Mutate(page)
				r.oracle[lba] = page
				hits = append(hits, shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: page})
			}
			for _, res := range r.p.RunBatch(0, hits) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			if r.arr.StaleRows() == 0 {
				t.Fatal("no stale parity staged before the failure")
			}
			if err := r.arr.AddSpare(blockdev.NewNullDataDevice("spare", prigDiskPages)); err != nil {
				t.Fatal(err)
			}
			r.arr.FailDisk(2)
			// One write to a page no lane caches, so no read meets a stale
			// row before the barrier folds: the pump attaches behind it.
			page := make([]byte, blockdev.PageSize)
			r.mut.FillRandom(page)
			r.oracle[prigFootprint] = page
			if res := r.p.RunBatch(0, []shard.Op{{Kind: shard.OpWrite, LBA: prigFootprint, Buf: page}}); res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			if !r.arr.RebuildActive() {
				t.Fatal("the barrier did not attach the parked spare")
			}
			r.runUntilHealthy(t, 600)
			if len(probe.staleAtAttach) != 1 || probe.staleAtAttach[0] != 0 {
				t.Fatalf("stale rows at each attach: %v, want [0]", probe.staleAtAttach)
			}
			st := r.p.Stats()
			if st.SpareAttaches != 1 || st.RebuildsDone != 1 {
				t.Fatalf("pump stats: attaches=%d done=%d, want 1 and 1", st.SpareAttaches, st.RebuildsDone)
			}
			if lost := r.arr.LostRows(); len(lost) != 0 {
				t.Fatalf("rows lost in a single-failure rebuild: %v", lost)
			}
			if _, err := r.p.Quiesce(0); err != nil {
				t.Fatal(err)
			}
			r.verifyOracle(t)
		})
	}
}

// TestShardCountValidation pins the lane-divisibility rule.
func TestShardCountValidation(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 1)
	bad := r.cfg
	bad.Shards = 3
	if _, err := shard.New(bad); err == nil {
		t.Fatal("shard count 3 accepted over 8 lanes")
	}
	bad = r.cfg
	bad.CachePages = prigCachePages + 4
	if _, err := shard.New(bad); err == nil {
		t.Fatal("non-lane-divisible cache accepted")
	}
}

// TestMetaLogGeometryIsAnError: a shared metadata partition too small,
// too large for the log's int32 ring slots, or off the end of the SSD is
// an error from New and Restore, with the goroutine option on and off.
func TestMetaLogGeometryIsAnError(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 2)
	ssdPages := r.ssd.Pages()
	for _, goroutines := range []bool{false, true} {
		for _, g := range []struct {
			name      string
			metaPages int64
		}{
			{"one page", 1},
			{"2^31 pages", 1 << 31},
			{"past the device", ssdPages + 1},
		} {
			bad := r.cfg
			bad.Goroutines, bad.MetaPages = goroutines, g.metaPages
			if _, err := shard.New(bad); err == nil || !strings.Contains(err.Error(), "metalog") {
				t.Errorf("goroutines=%v, %s: New: %v, want the metadata log's geometry error", goroutines, g.name, err)
			}
			var stagings [shard.Lanes]*nvram.Staging
			if _, _, err := shard.Restore(bad, 0, &nvram.Counters{}, nil, stagings); err == nil || !strings.Contains(err.Error(), "metalog") {
				t.Errorf("goroutines=%v, %s: Restore: %v, want the metadata log's geometry error", goroutines, g.name, err)
			}
		}
	}
}

// TestRunBatchAfterClose: Close latches the plane, so every later op —
// batched or single — fails with ErrClosed without touching lane state,
// Quiesce reports it too, and closing twice is harmless.
func TestRunBatchAfterClose(t *testing.T) {
	t.Parallel()
	r := newPRig(t, 4)
	r.run(t, 4, 32)
	if _, err := r.p.Quiesce(0); err != nil {
		t.Fatal(err)
	}
	digest, stats := r.p.StateDigest(), r.p.Stats().String()
	r.p.Close()
	r.p.Close()
	ops, _ := r.batch(16)
	for i, res := range r.p.RunBatch(sim.Second, ops) {
		if !errors.Is(res.Err, shard.ErrClosed) || res.Done != sim.Second || res.Coalesced {
			t.Fatalf("op %d after Close: %+v, want ErrClosed at the batch time", i, res)
		}
	}
	if _, err := r.p.Write(sim.Second, 3, make([]byte, blockdev.PageSize)); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Write after Close: %v, want ErrClosed", err)
	}
	if _, err := r.p.Read(sim.Second, 3, make([]byte, blockdev.PageSize)); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}
	if _, err := r.p.Quiesce(sim.Second); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Quiesce after Close: %v, want ErrClosed", err)
	}
	if r.p.StateDigest() != digest || r.p.Stats().String() != stats {
		t.Fatal("ops after Close changed the plane's state")
	}
}
