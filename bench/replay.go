package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/harness"
	"kddcache/internal/lsraid"
	"kddcache/internal/metalog"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
)

// repMode selects what a rep measures.
type repMode uint8

const (
	modeUntraced repMode = iota // harness.Build's stack: the end-to-end numbers
	modeTraced                  // the hand-assembled decorated stack: the per-layer ledger
	modeStub                    // program calls stubbed out: the benchmark's own cost
)

// windowOps is the host-time sampling window of driver.batch_us_*.
const windowOps = 1024

// virtual is the model's output on the virtual clock.
type virtual struct {
	meanMs, p50Ms, p99Ms float64
	duration             sim.Time
}

// counters is the program's own accounting at the end of the replay,
// before the epilogue flush adds to it.
type counters struct {
	cache     stats.CacheStats
	log       metalog.Stats
	flash     ssd.Stats
	array     raid.Stats
	hddReads  int64
	hddWrites int64
	hddSeq    int64
	hddBusy   sim.Time
	members   int
	staleRows int
	coalesced int64
}

// rep is everything one set-up + replay + epilogue produced.
type rep struct {
	synthS, buildS float64 // set-up, outside the timed region

	ops        int64
	wallS      float64
	cpuS       float64 // process CPU time over the replay
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
	gcCycles   uint32
	gcPauseNs  uint64
	windowsUs  []float64
	calibMops  float64

	virt    virtual
	ctr     counters
	laneOps [shard.Lanes]int64

	flushMs     float64
	flushVirtMs float64
	replayMs    float64 // lsraid CrashRebuildState (first of two)
	freeSegsEnd int64
	digest      uint64

	attempted, failed int64
	tr                *tracer
}

func (r *rep) setupS() float64 { return r.synthS + r.buildS }

// check records one epilogue or accounting check.
func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "kddbench: CHECK FAILED: "+format+"\n", args...)
	}
}

// rig is one built workload instance: inputs, stack, and the call targets
// of the replay loop.
type rig struct {
	w     workloadDef
	mode  repMode
	reqs  *trace.Trace
	pay   *payload
	st    *harness.Stack
	kdd   *core.KDD    // the engine behind policy (nil on the plane)
	plane *shard.Plane // nil unless kindPlane

	policy cache.Policy                                    // kindTrace, kindDirect
	batch  func(t sim.Time, ops []shard.Op) []shard.Result // kindPlane

	buf, wbuf, ebuf []byte // page scratch, allocated at set-up
	ops             []shard.Op
	want            [][]byte // per batch slot: what a read must return
	nextWrite       []int32  // per request: index of the next write of its page
	win             windows
	hist            *stats.Histogram
	corruptAt       int64 // flip a byte of this op's read-back (tests); -1 = never
}

// windows records host time per windowOps operations.
type windows struct {
	last time.Time
	us   []float64
}

func (w *windows) mark() {
	now := time.Now()
	w.us = append(w.us, float64(now.Sub(w.last))/1e3)
	w.last = now
}

// stubPolicy stands in for the program when measuring the load
// generator: reads return the expected page so verification does its
// full compare, writes vanish.
type stubPolicy struct{ pay *payload }

func (s stubPolicy) Name() string { return "stub" }
func (s stubPolicy) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if buf != nil {
		copy(buf, s.pay.page(lba))
	}
	return t, nil
}
func (s stubPolicy) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) { return t, nil }
func (s stubPolicy) Clean(t sim.Time, force bool) (sim.Time, error)            { return t, nil }
func (s stubPolicy) Flush(t sim.Time) (sim.Time, error)                        { return t, nil }
func (s stubPolicy) Stats() *stats.CacheStats                                  { return &stats.CacheStats{} }

// setup synthesises the inputs and builds the stack for one rep.
func setup(w workloadDef, cfg runConfig, mode repMode, r *rep) (*rig, error) {
	g := &rig{w: w, mode: mode, corruptAt: -1}
	if mode == modeUntraced {
		g.corruptAt = cfg.corruptAt
	}

	t0 := time.Now()
	g.reqs = w.synthesize(cfg.size, cfg.seed)
	n := len(g.reqs.Requests)
	if w.kind != kindTrace {
		g.pay = newPayload(deriveSeed(cfg.seed, streamPayload), w.stream.Footprint)
		g.buf = make([]byte, pageSize)
		g.hist = stats.NewHistogram(1 << 16)
	}
	if w.kind == kindPlane {
		g.wbuf = make([]byte, planeBatch*pageSize)
		g.ebuf = make([]byte, planeBatch*pageSize)
		g.ops = make([]shard.Op, 0, planeBatch)
		g.want = make([][]byte, planeBatch)
		g.nextWrite = nextWrites(g.reqs.Requests, w.stream.Footprint)
	}
	g.win.us = make([]float64, 0, n/windowOps+1)
	r.synthS = time.Since(t0).Seconds()

	t1 := time.Now()
	defer func() { r.buildS = time.Since(t1).Seconds() }()
	if mode == modeStub {
		g.policy = stubPolicy{pay: g.pay}
		g.batch = func(t sim.Time, ops []shard.Op) []shard.Result {
			for i := range ops {
				if ops[i].Kind == shard.OpRead {
					copy(ops[i].Buf, g.pay.page(ops[i].LBA))
				}
			}
			return make([]shard.Result, len(ops))
		}
		g.st = &harness.Stack{}
		return g, nil
	}

	o := w.stackOpts(cfg.size, cfg.seed)
	var err error
	if mode == modeTraced {
		every := int64(1024)
		if w.kind == kindPlane {
			every = 1024 / planeBatch
		}
		r.tr = newTracer(every)
		g.st, err = buildTraced(o, r.tr)
	} else {
		g.st, err = harness.Build(o)
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	if w.kind != kindPlane {
		g.policy = g.st.Policy
		engine := g.policy
		if tp, ok := engine.(*tracedPolicy); ok {
			engine = tp.inner
		}
		g.kdd = engine.(*core.KDD)
		return g, nil
	}
	// Traced, the plane runs its deterministic scheduler at the same shard
	// count, so spans nest on one goroutine and the subtraction is valid.
	g.plane, err = newPlane(g.st, cfg.shards, mode == modeUntraced && cfg.goPlane)
	if err != nil {
		return nil, fmt.Errorf("build %s plane: %w", w.name, err)
	}
	g.batch = g.plane.RunBatch
	if tr := r.tr; tr != nil {
		g.batch = func(t sim.Time, ops []shard.Op) []shard.Result {
			tr.begin(seamRoot, mBatch)
			res := g.plane.RunBatch(t, ops)
			tr.end(len(ops))
			return res
		}
	}
	for _, q := range g.reqs.Requests {
		r.laneOps[g.plane.LaneOf(q.LBA)]++
	}
	return g, nil
}

// close releases the plane's workers.
func (g *rig) close() {
	if g.plane != nil {
		g.plane.Close()
	}
}

// replay drives the whole request stream and returns the virtual time of
// the last completion.
func (g *rig) replay(r *rep) sim.Time {
	g.win.last = time.Now()
	switch g.w.kind {
	case kindTrace:
		return g.replayTrace(r)
	case kindDirect:
		return g.replayDirect(r)
	default:
		return g.replayPlane(r)
	}
}

func (g *rig) setVirtual(r *rep, h *stats.Histogram, end sim.Time) {
	ms := float64(sim.Millisecond)
	r.virt = virtual{
		meanMs:   h.Mean() / ms,
		p50Ms:    float64(h.Percentile(50)) / ms,
		p99Ms:    float64(h.Percentile(99)) / ms,
		duration: end,
	}
}

// replayTrace is harness.RunTrace: open loop in virtual time (requests
// issued at their trace timestamps, latency counted from the due time),
// one call in flight in host time.
func (g *rig) replayTrace(r *rep) sim.Time {
	st := *g.st
	st.Policy = g.policy
	st.PerRequest = func(i int) {
		if i%windowOps == 0 && i > 0 {
			g.win.mark()
		}
	}
	r.ops = int64(len(g.reqs.Requests)) // every synthesised request is one page
	r.attempted += r.ops
	res, err := harness.RunTrace(&st, g.reqs)
	if err != nil {
		// RunTrace stops at the first failing request.
		r.failed++
		fmt.Fprintf(os.Stderr, "kddbench: %s: %v\n", g.w.name, err)
		return 0
	}
	g.setVirtual(r, res.Latency, res.Duration)
	return res.Duration
}

// verify compares a read-back with the driver's (lba -> version) table.
func (g *rig) verify(r *rep, op int64, got, want []byte) {
	if op == g.corruptAt {
		got[0] ^= 0xFF
	}
	if !bytes.Equal(got, want) && g.mode != modeStub {
		r.failed++
		fmt.Fprintf(os.Stderr, "kddbench: %s: op %d read back wrong bytes\n", g.w.name, op)
	}
}

// replayDirect is a closed loop on both clocks: the next request is
// issued, at the previous one's virtual completion, when the call returns.
func (g *rig) replayDirect(r *rep) sim.Time {
	var now sim.Time
	for i, q := range g.reqs.Requests {
		var done sim.Time
		var err error
		if q.Op == trace.Read {
			done, err = g.policy.Read(now, q.LBA, g.buf)
			if err == nil {
				g.verify(r, int64(i), g.buf, g.pay.page(q.LBA))
			}
		} else {
			done, err = g.policy.Write(now, q.LBA, g.pay.rewrite(q.LBA))
		}
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "kddbench: %s: op %d lba %d: %v\n", g.w.name, i, q.LBA, err)
			continue
		}
		g.hist.Observe(int64(done - now))
		now = sim.MaxTime(now, done)
		if (i+1)%windowOps == 0 {
			g.win.mark()
		}
	}
	r.ops = int64(len(g.reqs.Requests))
	g.setVirtual(r, g.hist, now)
	return now
}

// replayPlane keeps one 256-op batch in flight: on the virtual clock every
// op of a batch arrives when the previous batch's last op completed.
func (g *rig) replayPlane(r *rep) sim.Time {
	var now sim.Time
	reqs := g.reqs.Requests
	for start := 0; start < len(reqs); start += planeBatch {
		end := start + planeBatch
		if end > len(reqs) {
			end = len(reqs)
		}
		g.ops = g.ops[:0]
		for i, q := range reqs[start:end] {
			// The shadow page itself serves as the write's buffer and the
			// read's expectation unless a later write of this batch will
			// advance it first; only then is a private copy taken.
			page := g.pay.page(q.LBA)
			private := int(g.nextWrite[start+i]) < end
			if q.Op == trace.Read {
				g.want[i] = page
				if private {
					g.want[i] = g.ebuf[i*pageSize : (i+1)*pageSize]
					copy(g.want[i], page)
				}
				g.ops = append(g.ops, shard.Op{Kind: shard.OpRead, LBA: q.LBA, Buf: g.wbuf[i*pageSize : (i+1)*pageSize]})
				continue
			}
			page = g.pay.rewrite(q.LBA)
			if private {
				slot := g.wbuf[i*pageSize : (i+1)*pageSize]
				copy(slot, page)
				page = slot
			}
			g.ops = append(g.ops, shard.Op{Kind: shard.OpWrite, LBA: q.LBA, Buf: page})
		}
		next := now
		for i, res := range g.batch(now, g.ops) {
			r.attempted++
			if res.Err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "kddbench: %s: op %d lba %d: %v\n", g.w.name, start+i, g.ops[i].LBA, res.Err)
				continue
			}
			if g.ops[i].Kind == shard.OpRead {
				g.verify(r, int64(start+i), g.ops[i].Buf, g.want[i])
			}
			g.hist.Observe(int64(res.Done - now))
			next = sim.MaxTime(next, res.Done)
		}
		now = next
		if end%windowOps == 0 {
			g.win.mark()
		}
	}
	r.ops = int64(len(reqs))
	g.setVirtual(r, g.hist, now)
	return now
}

// nextWrites returns, for every request, the index of the next write of the
// same page (len(reqs) when there is none).
func nextWrites(reqs []trace.Request, footprint int64) []int32 {
	upcoming := make([]int32, footprint)
	for i := range upcoming {
		upcoming[i] = int32(len(reqs))
	}
	next := make([]int32, len(reqs))
	for i := len(reqs) - 1; i >= 0; i-- {
		next[i] = upcoming[reqs[i].LBA]
		if reqs[i].Op == trace.Write {
			upcoming[reqs[i].LBA] = int32(i)
		}
	}
	return next
}

// snapshot copies the program's public counters.
func (g *rig) snapshot(r *rep) {
	c := &r.ctr
	if g.plane != nil {
		c.cache = *g.plane.Stats()
		c.log = g.plane.Log().Stats()
		c.coalesced = g.plane.CoalescedWrites()
	} else {
		c.cache = *g.kdd.Stats()
		c.log = g.kdd.Log().Stats()
	}
	c.flash = g.st.FlashModel.Stats()
	c.array = g.st.Array.Stats()
	c.staleRows = g.st.Array.StaleRows()
	c.members = len(g.st.Disks)
	for _, d := range g.st.Disks {
		c.hddReads += d.Reads()
		c.hddWrites += d.Writes()
		c.hddSeq += d.SeqHits()
		c.hddBusy += d.BusyTime()
	}
}

// epilogue drains the stack and checks its outputs.
func (g *rig) epilogue(r *rep, end sim.Time) {
	t0 := time.Now()
	var done sim.Time
	var err error
	if g.plane != nil {
		done, err = g.plane.Quiesce(end)
	} else {
		done, err = g.policy.Flush(end)
	}
	r.flushMs = float64(time.Since(t0)) / 1e6
	r.flushVirtMs = (done - end).Millis()
	r.check(err == nil, "%s: flush: %v", g.w.name, err)

	if g.plane != nil {
		err = g.plane.CheckInvariants()
		r.digest = g.plane.StateDigest()
	} else {
		err = g.kdd.CheckInvariants()
		r.digest = g.kdd.StateDigest()
	}
	r.check(err == nil, "%s: cache invariants: %v", g.w.name, err)

	ls, isLog := g.st.Array.(*lsraid.Array)
	if !isLog {
		stale := g.st.Array.StaleRows()
		r.check(stale == 0, "%s: %d stale parity rows after flush", g.w.name, stale)
		return
	}
	err = ls.CheckInvariants()
	r.check(err == nil, "%s: lsraid invariants: %v", g.w.name, err)
	// Replay idempotence: rebuilding the volatile state from NVRAM twice
	// must land on the same digest.
	t0 = time.Now()
	ls.CrashRebuildState()
	r.replayMs = float64(time.Since(t0)) / 1e6
	first := ls.StateDigest()
	ls.CrashRebuildState()
	second := ls.StateDigest()
	r.check(first == second, "%s: lsraid replay not idempotent: %#x then %#x", g.w.name, first, second)
	err = ls.CheckInvariants()
	r.check(err == nil, "%s: lsraid invariants after replay: %v", g.w.name, err)
	r.freeSegsEnd = ls.FreeSegments()
	if g.pay == nil {
		return
	}
	// KDD always dispatches data to the array, so after the flush the
	// replayed array alone must return every page's last version.
	bad := 0
	for lba, written := range g.pay.written {
		if !written {
			continue
		}
		if _, err := ls.ReadPages(done, int64(lba), 1, g.buf); err != nil || !bytes.Equal(g.buf, g.pay.page(int64(lba))) {
			bad++
		}
	}
	r.check(bad == 0, "%s: %d pages read back wrong from the replayed array", g.w.name, bad)
}

// sink keeps calibrate's loop from being optimised away.
var sink uint64

// calibrate runs a fixed pure-CPU spin and returns its rate, so a slow
// machine is distinguishable from a slow program.
func calibrate() float64 {
	const n = 1 << 25
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink = x
	return n / time.Since(t0).Seconds() / 1e6
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRep sets up a fresh stack, replays the workload once inside the
// timed region, and runs the epilogue.
func runRep(w workloadDef, cfg runConfig, mode repMode) (*rep, error) {
	r := &rep{}
	if !cfg.quick {
		r.calibMops = calibrate()
	}
	runtime.GC() // the previous rep's stack is garbage: keep its collection out of setup_s
	g, err := setup(w, cfg, mode, r)
	if err != nil {
		return nil, err
	}
	defer g.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	end := g.replay(r)
	r.wallS = time.Since(t0).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	r.windowsUs = g.win.us
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeap = m1.HeapAlloc
	runtime.KeepAlive(g)

	if mode == modeStub || r.failed > 0 {
		return r, nil
	}
	if r.tr != nil {
		r.tr.freeze()
	}
	g.snapshot(r)
	g.epilogue(r, end)
	return r, nil
}
