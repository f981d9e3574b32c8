package core_test

import (
	"runtime"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/lsraid"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// poolDropsPuts is set by race_test.go when the race detector is on.
var poolDropsPuts bool

// measureHitAllocs reports allocations per cached read hit and write hit.
func measureHitAllocs(t *testing.T, traced bool) (readHit, writeHit float64) {
	t.Helper()
	var tr *obs.Tracer
	if traced {
		tr = obs.New().Tracer
	}
	r := newRig(t, 1024, func(c *core.Config) { c.Tracer = tr })
	const lba = 17
	r.write(t, lba) // miss: admitted Clean
	r.write(t, lba) // hit: page goes Old with a staged delta
	buf := make([]byte, blockdev.PageSize)
	readHit = testing.AllocsPerRun(200, func() {
		if _, err := r.kdd.Read(0, lba, buf); err != nil {
			t.Fatal(err)
		}
	})
	page := make([]byte, blockdev.PageSize)
	copy(page, r.oracle[lba])
	writeHit = testing.AllocsPerRun(200, func() {
		r.mut.Mutate(page)
		if _, err := r.kdd.Write(0, lba, page); err != nil {
			t.Fatal(err)
		}
	})
	return readHit, writeHit
}

// measureDataWriteHits reports allocations and allocated bytes per
// data-mode write hit under delta.ZRLE over the named backend. Each
// measured op is the first rewrite of a cached page with a quarter of its
// bytes changed, so it encodes a delta of about a quarter page, and the
// staging buffer packs and commits DEZ pages along the way. The array is
// aged first — its logical space overwritten until the log has wrapped —
// because a member page written for the first time is the store growing,
// not garbage.
func measureDataWriteHits(t *testing.T, backend string) (allocs, bytes float64) {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 512))
	}
	var array cache.Backend
	var err error
	if backend == "lsraid" {
		array, err = lsraid.New(lsraid.Config{ChunkPages: 8}, members)
	} else {
		array, err = raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	}
	if err != nil {
		t.Fatal(err)
	}
	const set, batch = 768, 256 // working set; pages per warm-up and per measured pass
	mut := delta.NewMutator(5, 0.25)
	page := make([]byte, blockdev.PageSize)
	for round := 0; round < 4; round++ {
		for lba := int64(0); lba < set; lba++ {
			mut.FillRandom(page)
			if _, err := array.WritePages(0, lba, 1, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The SSD is aged too: a DEZ slot written for the first time is the
	// same growth.
	ssd := blockdev.NewNullDataDevice("ssd", 1024+256)
	for lba := int64(0); lba < ssd.Pages(); lba++ {
		if _, err := ssd.WritePages(0, lba, 1, page); err != nil {
			t.Fatal(err)
		}
	}
	k, err := core.New(core.Config{
		SSD: ssd, Backend: array,
		CachePages: 1024, Ways: 32, MetaPages: 64, Codec: delta.ZRLE{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(from, to int64) {
		for lba := from; lba < to; lba++ {
			if _, err := k.Read(0, lba, page); err != nil {
				t.Fatal(err)
			}
			mut.Mutate(page)
			if _, err := k.Write(0, lba, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	for lba := int64(0); lba < set; lba++ {
		if _, err := k.Read(0, lba, page); err != nil { // miss: admitted Clean
			t.Fatal(err)
		}
	}
	rewrite(0, batch) // warms pools, maps and the staging queue
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rewrite(batch, 2*batch)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / batch, float64(after.TotalAlloc-before.TotalAlloc) / batch
}

// measureTimingSteadyState reports allocations and allocated bytes per op
// of a timing-mode engine (nil buffers, modelled codec) over the named
// backend, after warm-up: 1024 cache pages, a footprint of 4096, four ops
// in five writes, two thirds of them to a hot region that fits the cache —
// write hits, DEZ packing, cleaning, eviction — and a metadata partition
// small enough that the log wraps and collects during warm-up.
func measureTimingSteadyState(t *testing.T, backend string) (allocs, bytes float64) {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice("d", 2048))
	}
	var array cache.Backend
	var err error
	if backend == "lsraid" {
		array, err = lsraid.New(lsraid.Config{ChunkPages: 8, LogicalPages: 4096}, members)
	} else {
		array, err = raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	}
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDevice("ssd", 1024+16), Backend: array,
		CachePages: 1024, Ways: 32, MetaPages: 16, Codec: delta.NewModelled(3, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	run := func(ops int) {
		for i := 0; i < ops; i++ {
			lba := int64(rng.Intn(4096))
			if rng.Intn(3) > 0 {
				lba = int64(rng.Intn(800))
			}
			var err error
			if rng.Intn(5) > 0 {
				_, err = k.Write(0, lba, nil)
			} else {
				_, err = k.Read(0, lba, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	run(100000)
	st, ls := *k.Stats(), k.Log().Stats()
	const ops = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	d, dl := *k.Stats(), k.Log().Stats()
	if d.CleanerRuns == st.CleanerRuns || d.DeltaCommits == st.DeltaCommits || d.Evictions == st.Evictions ||
		dl.PagesWritten == ls.PagesWritten || dl.GCRuns == ls.GCRuns {
		t.Fatalf("%s: the measured window missed a mechanism: cleaner runs %d, DEZ commits %d, evictions %d, log pages %d, log GC runs %d",
			backend, d.CleanerRuns-st.CleanerRuns, d.DeltaCommits-st.DeltaCommits, d.Evictions-st.Evictions,
			dl.PagesWritten-ls.PagesWritten, dl.GCRuns-ls.GCRuns)
	}
	return float64(after.Mallocs-before.Mallocs) / ops, float64(after.TotalAlloc-before.TotalAlloc) / ops
}

// TestHitAllocRegression pins the allocation budget of the cached hot
// paths. The pre-pool baselines (measured before the page pool and the
// binary span ring landed) were:
//
//	untraced: read hit 1.0 allocs/op, write hit 3.0 allocs/op
//	traced:   read hit 3.0 allocs/op, write hit 3.0 allocs/op
//
// With pooled page buffers a read hit allocates nothing, and since delta
// payloads are recycled (ZRLE.Encode draws its output from a size-classed
// free list that NVRAM staging returns it to — see nvram.StagedDelta) a
// write hit allocates nothing either; it was 1.0 while the payload was a
// fresh exact-size slice, 2.0 while the encoder grew a buffer by append.
// The ceilings below sit halfway to the previous counts: loose enough to
// tolerate an occasional sync.Pool miss after a GC, tight enough that
// reintroducing any per-op page allocation, fresh payload, grown buffer
// or per-span formatting fails the test.
func TestHitAllocRegression(t *testing.T) {
	for _, tc := range []struct {
		traced              bool
		readCeil, writeCeil float64
	}{
		{traced: false, readCeil: 0.5, writeCeil: 0.5},
		{traced: true, readCeil: 0.5, writeCeil: 0.5},
	} {
		if poolDropsPuts {
			tc.writeCeil = 1.5 // a write hit draws four pooled buffers; a quarter of them miss
		}
		rh, wh := measureHitAllocs(t, tc.traced)
		t.Logf("traced=%v read-hit allocs/op=%.2f write-hit allocs/op=%.2f", tc.traced, rh, wh)
		if rh > tc.readCeil {
			t.Errorf("traced=%v: read hit allocates %.2f/op, budget %.1f (pre-pool baseline was 1.0 untraced, 3.0 traced)",
				tc.traced, rh, tc.readCeil)
		}
		if wh > tc.writeCeil {
			t.Errorf("traced=%v: write hit allocates %.2f/op, budget %.1f (pre-pool baseline was 3.0, append-grown delta 2.0, fresh exact-size delta 1.0)",
				tc.traced, wh, tc.writeCeil)
		}
	}

	// Data mode, both backends, DEZ packing and row cleaning included: a
	// write hit allocates no payload, no page and no scratch — the delta
	// comes from the free list, the RMW and parity pages from the page
	// pool, the store reuses trimmed pages, the cleaner fills its row
	// peers into engine scratch. What is left is the metadata log's page
	// lists growing on their first lap. History of this arm, allocs/op and
	// B/op per hit:
	//
	//	append-grown encode buffer, lsraid staging into fresh pages   7.5 / 3.7 KiB (raid), 9.3 / 7.9 KiB (lsraid)
	//	fresh slices per batch in PackPage, commitDez, cleanRow, log  4.3
	//	exact-size delta, reused batch slices (PR 14/18)              1.85 / 1.6 KiB
	//	recycled delta payloads, pooled RMW scratch, dense page store 0.45 / 233 B
	//	row peers filled into scratch (cache.AppendRowPeers)          0.21 / 253 B
	//
	// The ceilings sit below any one of those coming back: a fresh payload
	// costs 1 alloc and about 1 KiB per hit, a page 4 KiB, the per-batch
	// slices 2.4 allocs, a fresh peer slice per cleaned row about 0.25; a
	// sync.Pool miss after a GC costs one page over the 256 measured hits,
	// 16 B/op.
	backends := []string{"raid", "lsraid"}
	if poolDropsPuts {
		backends = nil
	}
	for _, backend := range backends {
		allocs, bytes := measureDataWriteHits(t, backend)
		t.Logf("%s: data-mode write hit %.2f allocs/op, %.0f B/op", backend, allocs, bytes)
		if allocs > 0.4 {
			t.Errorf("%s: data-mode write hit allocates %.2f/op, budget 0.4 (the log's first lap; no delta payload, no peer slice)", backend, allocs)
		}
		if bytes > 512 {
			t.Errorf("%s: data-mode write hit allocates %.0f B/op, budget 512 (no quarter-page payload, no page-sized garbage)", backend, bytes)
		}
	}

	// Timing mode, both backends, the whole engine in steady state: a
	// write-dominant stream over four times the cache keeps the cleaner,
	// DEZ packing, eviction and the metadata log's flush and GC all
	// running. Every per-batch and per-row structure is reused
	// (PackPage's result, commitDez's offsets, the plan and its row peers,
	// the idle queue, cleanRow's peer lists, parityRMW's LBAs, the log's
	// page lists). Measured 0.11 allocs/op and 3.5 B/op while RowPeers
	// returned a fresh slice per cleaned row, 0.000 and 0.0 since; one
	// append-grown slice per DEZ commit or per cleaned row would add
	// 0.1–0.5 and 5–40 B.
	for _, backend := range []string{"raid", "lsraid"} {
		allocs, bytes := measureTimingSteadyState(t, backend)
		t.Logf("%s: timing-mode steady state %.3f allocs/op, %.1f B/op", backend, allocs, bytes)
		if allocs > 0.01 || bytes > 1 {
			t.Errorf("%s: timing-mode steady state allocates %.3f/op and %.1f B/op, budget 0.01 and 1 (nothing per row, nothing per batch)",
				backend, allocs, bytes)
		}
	}

	// The cleaner's victim list is frame-owned scratch merged from the
	// recency lists: once warm, selecting a cleanPass batch allocates
	// nothing (it used to build and sort a candidate slice of every Old
	// slot per batch).
	r := newRig(t, 1024)
	for lba := int64(0); lba < 300; lba++ {
		r.write(t, lba)
		r.write(t, lba) // hit: Old
	}
	f := r.kdd.Frame()
	if n := len(f.OldestSlots(cache.Old, 128)); n != 128 {
		t.Fatalf("rig holds %d Old victims, want a full batch of 128", n)
	}
	if a := testing.AllocsPerRun(100, func() { f.OldestSlots(cache.Old, 128) }); a != 0 {
		t.Errorf("OldestSlots allocates %.2f/batch in steady state, want 0", a)
	}
}

// TestRestoreBuildsOneLog: Restore builds the metadata log it recovers
// into and no other. The log's where table, one int32 per SSD page, is
// the only allocation that scales with a large SSD, so the bytes Restore
// allocates count the tables it built.
func TestRestoreBuildsOneLog(t *testing.T) {
	const ssdPages = 1 << 20
	cfg := core.Config{
		SSD:     blockdev.NewNullDevice("s", ssdPages),
		Backend: mustArray(t),
		Codec:   delta.ZRLE{}, CachePages: 256, Ways: 32, MetaPages: 16,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k, _, err := core.Restore(cfg, 0, &nvram.Counters{}, nil, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(k)
	where := uint64(ssdPages * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got < where || got >= where+where/2 {
		t.Fatalf("Restore allocated %d bytes; one where table is %d", got, where)
	}
}

// TestReconstructPassAllocs pins the data-mode reconstruct-write pass's
// allocations: each run rewrites one page of a wholly cached row and
// cleans, so the pass reconstructs that row's parity from the cache
// (reclaim scheme 1 keeps the page cached for the next run). The array
// has nine data chunks, more than a small map keeps off the heap, so a
// per-call LBA→slot map would cost three allocations a pass, and
// RowPeers' fresh slice one; the pass fills engine scratch instead
// (cache.AppendRowPeers) and allocates nothing.
func TestReconstructPassAllocs(t *testing.T) {
	if poolDropsPuts {
		t.Skip("the race detector's sync.Pool drops puts: every row page is a fresh allocation")
	}
	var members []blockdev.Device
	for i := 0; i < 10; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 256))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDataDevice("ssd", 64+256), Backend: a,
		CachePages: 256, Ways: 128, MetaPages: 64,
		Codec: delta.ZRLE{}, ReclaimMaterialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := a.RowPeers(0)
	mut := delta.NewMutator(1, 0.25)
	page := make([]byte, blockdev.PageSize)
	mut.FillRandom(page)
	for _, p := range peers { // write misses: the whole row cached Clean
		if _, err := k.Write(0, p, page); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	before := k.Stats().ParityUpdates
	allocs := testing.AllocsPerRun(runs, func() {
		mut.Mutate(page)
		if _, err := k.Write(0, peers[1], page); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Clean(0, true); err != nil {
			t.Fatal(err)
		}
	})
	if got := k.Stats().ParityUpdates - before; got != runs+1 {
		t.Fatalf("%d parity updates over %d passes, want one each", got, runs+1)
	}
	for _, p := range peers {
		if k.Frame().Lookup(p) == cache.NoSlot {
			t.Fatalf("row page %d left the cache: the passes were not all reconstruct-writes", p)
		}
	}
	if allocs > 0 {
		t.Errorf("data-mode reconstruct pass allocates %.0f/op, budget 0", allocs)
	}
}
