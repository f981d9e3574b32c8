// Package shard implements the sharded data plane: a fixed set of lanes
// — each a complete core.KDD over its own slice of the SSD cache —
// dispatched by backing-LBA stripe hash, with the batch swept on the
// calling goroutine.
//
// The state partition count (Lanes) is FIXED. The shard count does not
// change what runs or in what order: it only names how many CPU servers
// the saturation and noisy-neighbor models charge (ShardOf). Every batch
// runs the same way at every shard count, so per-lane state, every
// virtual time and every byte of output are functions of the request
// stream alone.
//
// Per batch the plane coalesces superseded writes (a write to an LBA
// overwritten later in the same batch with no intervening read of it is
// dropped), executes each operation on its lane, and ends with one
// metadata barrier — metalog entries reach NVRAM at the operation (the
// durability point), while their page flushes batch into the barrier.
//
// Ops that arrive together are executed as one elevator sweep: within
// each run of consecutive ops sharing one arrival time the plane executes
// them in ascending LBA order (stably, so same-LBA ops keep their
// submission order), standing in for the host block layer's request
// scheduler. RAID places a page at member row
// stripe*chunkPages+pageInChunk, which rises with LBA on every member, so
// the sweep is one ascending pass of every arm.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/metalog"
	"kddcache/internal/obs"
	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// Lanes is the fixed number of state partitions. Shard counts must
// divide it. Eight matches the paper-scale geometries the experiments
// use (and the largest shard count the saturation sweep drives).
const Lanes = 8

// ErrStopped is returned for every operation after the plane fail-stops:
// a lane reported a fatal device error (power loss mid-write, whole-SSD
// death), so the remaining queued work is refused untouched — those ops
// never started, never reached NVRAM, and recovery sees exactly the
// state at the instant of the failure. Restore a new plane to continue.
var ErrStopped = errors.New("shard: plane stopped on a fatal device error; restore required")

// ErrClosed is returned for every operation submitted after Close.
var ErrClosed = errors.New("shard: plane closed")

// fatalErr reports whether a lane error means the shared device is gone
// (as opposed to a semantic, retryable refusal like a stale-parity
// fold-first error).
func fatalErr(err error) bool {
	return errors.Is(err, blockdev.ErrCrashed) || errors.Is(err, blockdev.ErrFailed)
}

// Config assembles a plane.
type Config struct {
	SSD     blockdev.Device
	Backend cache.Backend

	CachePages int64 // total cache capacity, split evenly across lanes
	Ways       int   // set associativity per lane (default 256)

	MetaPages int64 // shared metadata partition [0, MetaPages) (>= 2)

	// Codec builds each lane's delta codec. Stateful codecs (the
	// modelled one carries an RNG) must not be shared between lanes, or
	// they couple lane state.
	Codec func(lane int) delta.Codec

	// Shards is the number of CPU servers the lanes are grouped onto
	// (ShardOf), for the models that charge per-shard compute. It does
	// not change execution. Must divide Lanes; default 1.
	Shards int

	// Goroutines once selected a per-shard worker pool.
	//
	// Deprecated: has no effect; every batch is swept on the calling
	// goroutine.
	Goroutines bool

	// Coalesce drops writes superseded within a batch. Lane-consistent
	// by construction (only same-LBA operations interact, and an LBA
	// always routes to the same lane), so it preserves the determinism
	// contract across shard counts.
	Coalesce bool

	// Tracer records the lanes', the log's and the admission gate's
	// spans.
	Tracer *obs.Tracer

	// QoS attaches a per-tenant admission controller. RunBatch consults
	// it in submission order before any op executes, so its decisions
	// are identical at every shard count. Over-budget ops are rejected
	// with typed qos errors; bypass-rung ops are served around cache
	// admission (core.KDD.Serve with admit false).
	QoS *qos.Controller
}

// OpKind selects a plane operation.
type OpKind uint8

// Plane operations: page-granular reads and writes, as cache.Policy.
const (
	OpRead OpKind = iota
	OpWrite
)

// Op is one request submitted to the plane.
type Op struct {
	Kind OpKind
	LBA  int64
	Buf  []byte

	// Tenant is the submitting tenant's index for the QoS controller
	// (ignored without one; zero is the untagged/first tenant).
	Tenant int

	// At is the request's arrival time; zero means the batch time. The
	// admission gate and the deadline check use it, so batched replay
	// keeps per-request bucket accounting exact.
	At sim.Time

	// Deadline, when non-zero, is the absolute virtual time after which
	// the request is rejected with qos.ErrDeadlineExceeded instead of
	// being served. It is enforced at the plane boundary before any
	// engine work, whether or not a controller is attached — a deadline
	// is a property of the request.
	Deadline sim.Time
}

// Result reports one Op's completion.
type Result struct {
	Done      sim.Time
	Err       error
	Coalesced bool // write superseded within its batch; never executed
	Bypassed  bool // served around cache admission (QoS bypass verdict)
}

// Plane is the sharded data plane. It is not safe for concurrent use:
// one batch runs at a time, on the goroutine that submits it.
type Plane struct {
	cfg         Config
	lanes       [Lanes]*core.KDD
	log         *metalog.Log
	pump        *core.RebuildPump // the plane owns the log's rebuild checkpoint, so it paces the rebuild
	stripePages int64
	lanePages   int64

	// dead latches after a lane reports a fatal device error (crash or
	// fail-stop): the rest of the batch — and everything after it — is
	// refused with ErrStopped instead of executing against a dead device
	// and smearing half-ordered state across NVRAM. The latch flips at
	// the same op ordinal at every shard count.
	dead bool

	// closed latches at Close: every later op is refused with ErrClosed.
	closed bool

	b   batch // the batch in flight
	one [1]Op // Read's and Write's single-op batch

	coalesced int64
	sticky    error // first barrier failure, surfaced at Quiesce
}

// withDefaults fills zero fields and validates the geometry.
func (c Config) withDefaults() (Config, error) {
	if c.SSD == nil || c.Backend == nil || c.Codec == nil {
		return c, fmt.Errorf("shard: SSD, Backend and Codec are required")
	}
	if c.Ways == 0 {
		c.Ways = 256
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > Lanes || Lanes%c.Shards != 0 {
		return c, fmt.Errorf("shard: shard count %d must divide the %d lanes", c.Shards, Lanes)
	}
	if c.CachePages%Lanes != 0 {
		return c, fmt.Errorf("shard: cache of %d pages not divisible into %d lanes", c.CachePages, Lanes)
	}
	if c.CachePages/Lanes < int64(c.Ways) {
		return c, fmt.Errorf("shard: lane cache of %d pages below one %d-way set", c.CachePages/Lanes, c.Ways)
	}
	return c, nil
}

// laneConfig assembles lane i's core configuration around the shared
// devices and log.
func (c Config) laneConfig(i int, log *metalog.Log) core.Config {
	return core.Config{
		SSD:        c.SSD,
		Backend:    c.Backend,
		CachePages: c.CachePages / Lanes,
		Ways:       c.Ways,
		MetaPages:  c.MetaPages,
		Codec:      c.Codec(i),
		SharedLog:  log,
		Lane:       uint8(i),
		// The breaker votes per lane but the SSD fails as a whole; only
		// fail-stop failover (which every lane observes identically) is
		// meaningful here, so the per-lane breakers are disabled.
		BreakerWindow: -1,
		Tracer:        c.Tracer,
	}
}

// New builds a plane with fresh lanes.
func New(cfg Config) (*Plane, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := newShell(cfg)
	if p.log, err = metalog.New(cfg.SSD, cfg.MetaPages); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	p.log.SetTracer(cfg.Tracer)
	for i := 0; i < Lanes; i++ {
		k, err := core.New(cfg.laneConfig(i, p.log))
		if err != nil {
			return nil, fmt.Errorf("shard: lane %d: %w", i, err)
		}
		p.lanes[i] = k
	}
	p.pump = core.NewRebuildPump(cfg.Backend, p.log, p.lanes[:], new(stats.CacheStats))
	return p, nil
}

// newShell builds everything but the log and lanes (shared with
// Restore). cfg has been validated.
func newShell(cfg Config) *Plane {
	return &Plane{
		cfg:         cfg,
		stripePages: cfg.Backend.StripePages(),
		lanePages:   cfg.CachePages / Lanes,
		b:           batch{later: map[int64]bool{}},
	}
}

// Close latches the plane closed: every later operation fails with
// ErrClosed, and Quiesce reports it. Closing twice is harmless.
func (p *Plane) Close() { p.closed = true }

// LaneOf routes a backing LBA to its lane: hash of the stripe index, so
// a stripe's pages — and everything the engine does for them — belong to
// exactly one lane. The mix constant differs from the frame's set hash
// on purpose: reusing it would correlate lane and set residues and leave
// most of each lane's sets unreachable.
func (p *Plane) LaneOf(lba int64) int {
	h := uint64(lba/p.stripePages) * 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int(h % Lanes)
}

// ShardOf maps a lane to the CPU server the saturation and
// noisy-neighbor models charge its compute to.
func (p *Plane) ShardOf(lane int) int { return lane % p.cfg.Shards }

// Lane exposes lane i's engine (tests, the checker).
func (p *Plane) Lane(i int) *core.KDD { return p.lanes[i] }

// Log exposes the shared metadata log.
func (p *Plane) Log() *metalog.Log { return p.log }

// CoalescedWrites returns the number of writes dropped as superseded.
func (p *Plane) CoalescedWrites() int64 { return p.coalesced }

// note records the first barrier failure for surfacing at Quiesce.
func (p *Plane) note(err error) {
	if p.sticky == nil {
		p.sticky = err
	}
}

// batch is RunBatch's scratch, owned by the plane and reused from one
// batch to the next.
type batch struct {
	t      sim.Time
	ops    []Op
	res    []Result
	drop   []bool         // rejected by the admission gate; res already holds the error
	bypass []bool         // served around cache admission (QoS bypass verdict)
	skip   []bool         // write superseded later in the batch
	sweep  []sweepKey     // the ops to execute, in sweep order
	later  map[int64]bool // coalesceSkips' set, cleared per batch (keeps its buckets)
}

// sweepKey is one op's place in the sweep: its arrival run (the ordinal
// of its run of consecutive ops sharing one arrival time), its LBA and
// its index in the batch, which keeps same-LBA ops in submission order
// and makes the order total, so an unstable sort yields the stable one.
type sweepKey struct {
	lba  int64
	wave int32
	idx  int32
}

// compareSweep orders sweep keys by arrival run, then LBA, then index.
func compareSweep(x, y sweepKey) int {
	if x.wave != y.wave {
		return cmp.Compare(x.wave, y.wave)
	}
	if x.lba != y.lba {
		return cmp.Compare(x.lba, y.lba)
	}
	return cmp.Compare(x.idx, y.idx)
}

// reset sizes the scratch for ops and clears what the last batch left
// (not res: every op's entry is assigned exactly once — by the gate, the
// coalescer or the sweep).
func (b *batch) reset(t sim.Time, ops []Op) {
	n := len(ops)
	b.t, b.ops = t, ops
	if cap(b.res) < n {
		b.res = make([]Result, n)
		b.drop = make([]bool, n)
		b.bypass = make([]bool, n)
		b.skip = make([]bool, n)
		b.sweep = make([]sweepKey, 0, n)
	}
	b.res, b.drop, b.bypass, b.skip = b.res[:n], b.drop[:n], b.bypass[:n], b.skip[:n]
	clear(b.drop)
	clear(b.bypass)
	clear(b.skip)
	b.sweep = b.sweep[:0]
}

// at is op i's arrival time: its own, or the batch time.
func (b *batch) at(i int) sim.Time {
	if b.ops[i].At != 0 {
		return b.ops[i].At
	}
	return b.t
}

// plan lists the ops to execute in sweep, in sweep order, and settles
// the superseded writes' results. It returns how many it coalesced.
func (b *batch) plan() (coalesced int64) {
	var wave int32
	for i := range b.ops {
		if i > 0 && b.at(i) != b.at(i-1) {
			wave++
		}
		switch {
		case b.drop[i]:
		case b.skip[i]:
			b.res[i] = Result{Done: b.t, Coalesced: true}
			coalesced++
		default:
			b.sweep = append(b.sweep, sweepKey{lba: b.ops[i].LBA, wave: wave, idx: int32(i)})
		}
	}
	slices.SortFunc(b.sweep, compareSweep)
	return coalesced
}

// coalesceSkips marks writes superseded later in the batch: same LBA
// written again with no read of it in between. One backward scan suffices
// — only same-LBA operations interact, and an LBA always lands on one
// lane, so the result is lane-consistent. Ops the admission gate already
// rejected (drop) do not participate: a shed write never executes, so it
// must not supersede an earlier one.
func (p *Plane) coalesceSkips() {
	b := &p.b
	clear(b.later)
	for i := len(b.ops) - 1; i >= 0; i-- {
		if b.drop[i] {
			continue
		}
		switch b.ops[i].Kind {
		case OpWrite:
			if b.later[b.ops[i].LBA] {
				b.skip[i] = true
			} else {
				b.later[b.ops[i].LBA] = true
			}
		case OpRead:
			delete(b.later, b.ops[i].LBA)
		}
	}
}

// gate runs the admission boundary (qos.Controller.Gate: deadline, then
// verdict) over the batch in submission order. What the plane adds is
// the batch bookkeeping: a rejected op is dropped with its typed error in
// res and a throttle/shed mark in the trace, a bypass verdict is
// remembered for exec. Running strictly before any op executes is what
// makes the verdict sequence independent of the sweep and of the shard
// count.
func (p *Plane) gate() {
	b := &p.b
	for i := range b.ops {
		at := b.at(i)
		d, err := p.cfg.QoS.Gate(at, b.ops[i].Tenant, b.ops[i].Deadline)
		if err != nil {
			switch d.Verdict {
			case qos.VerdictThrottle:
				p.cfg.Tracer.Mark(at, obs.PhaseQoSThrottle, b.ops[i].LBA)
			case qos.VerdictShed:
				p.cfg.Tracer.Mark(at, obs.PhaseQoSShed, b.ops[i].LBA)
			}
			b.drop[i] = true
			b.res[i] = Result{Done: at, Err: err}
		} else if d.Verdict == qos.VerdictBypass {
			b.bypass[i] = true
		}
	}
}

// exec runs one operation on its lane. A plane that has fail-stopped
// refuses the op untouched.
func (p *Plane) exec(t sim.Time, op Op, bypass bool) Result {
	if p.dead {
		return Result{Done: t, Err: ErrStopped}
	}
	if op.At != 0 {
		t = op.At
	}
	r := Result{Bypassed: bypass}
	r.Done, r.Err = p.lanes[p.LaneOf(op.LBA)].Serve(t, op.LBA, op.Buf, op.Kind == OpWrite, !bypass)
	if fatalErr(r.Err) {
		p.dead = true
	}
	return r
}

// RunBatch runs a batch of operations and returns when it is done: every
// op executed (or coalesced away), one metadata page-flush barrier, one
// rebuild pacing step. Results are in input order. Execution is one
// sweep over the whole batch: each run of consecutive ops sharing one
// arrival time (At, or t when zero) goes in ascending LBA order, stably,
// and runs never pass one another; then the barrier. The shard count
// changes nothing here.
//
// One batch runs at a time, and the results are the plane's scratch:
// they are valid until the next RunBatch (Read and Write included), so
// consume or copy them before submitting again. After Close every op
// fails with ErrClosed.
func (p *Plane) RunBatch(t sim.Time, ops []Op) []Result {
	b := &p.b
	b.reset(t, ops)
	if p.closed {
		for i := range b.res {
			b.res[i] = Result{Done: t, Err: ErrClosed}
		}
		b.ops = nil
		return b.res
	}
	p.gate()
	if p.cfg.Coalesce {
		p.coalesceSkips()
	}
	p.coalesced += b.plan()
	for _, k := range b.sweep {
		b.res[k.idx] = p.exec(t, ops[k.idx], b.bypass[k.idx])
	}
	p.barrier(t)
	b.ops = nil // the caller's ops (and their buffers) are not ours to keep
	if !p.dead {
		p.note(p.pump.Turn(t, false))
	}
	return b.res
}

// barrier commits the batch's full metadata pages in one page-flush
// barrier. A stopped plane skips it: the buffered entries are already at
// their durability point in NVRAM, and the device is gone.
func (p *Plane) barrier(t sim.Time) {
	if p.dead {
		return
	}
	if _, err := p.log.FlushBatch(t); err != nil {
		if fatalErr(err) {
			p.dead = true
		}
		p.note(fmt.Errorf("shard: meta barrier: %w", err))
	}
}

// Read serves one read through the batch machinery.
func (p *Plane) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return p.runOne(t, Op{Kind: OpRead, LBA: lba, Buf: buf})
}

// Write serves one write through the batch machinery.
func (p *Plane) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return p.runOne(t, Op{Kind: OpWrite, LBA: lba, Buf: buf})
}

func (p *Plane) runOne(t sim.Time, op Op) (sim.Time, error) {
	p.one[0] = op
	r := p.RunBatch(t, p.one[:])[0]
	p.one[0] = Op{}
	return r.Done, r.Err
}

// Quiesce drains the plane: every lane's stale parities flushed, the
// metadata buffer fully committed (final partial page included). Returns
// the latest completion time and the first error — including any failure
// noted at a batch barrier.
func (p *Plane) Quiesce(t sim.Time) (sim.Time, error) {
	if p.closed {
		return t, ErrClosed
	}
	if p.dead {
		return t, ErrStopped
	}
	done := t
	for lane := 0; lane < Lanes; lane++ {
		d, err := p.lanes[lane].Flush(t)
		if err != nil {
			return done, fmt.Errorf("shard: lane %d flush: %w", lane, err)
		}
		done = sim.MaxTime(done, d)
	}
	d, err := p.log.Flush(t)
	if err != nil {
		return done, fmt.Errorf("shard: final meta barrier: %w", err)
	}
	done = sim.MaxTime(done, d)
	err, p.sticky = p.sticky, nil
	return done, err
}

// StateDigest folds the lanes' digests in lane order: an I/O-free
// fingerprint of the whole plane, independent of shard count. Call at a
// barrier (e.g. after Quiesce) — lane digests read live engine state.
func (p *Plane) StateDigest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, k := range p.lanes {
		d := k.StateDigest()
		for b := 0; b < 8; b++ {
			w[b] = byte(d >> (8 * b))
		}
		h.Write(w[:])
	}
	return h.Sum64()
}

// CheckInvariants validates every lane. Call at a barrier.
func (p *Plane) CheckInvariants() error {
	for i, k := range p.lanes {
		if err := k.CheckInvariants(); err != nil {
			return fmt.Errorf("shard: lane %d: %w", i, err)
		}
	}
	return nil
}

// Stats sums the lanes' counters, the shared log's traffic (counted
// once — lanes skip it), and the rebuild pump's. Call at a barrier.
func (p *Plane) Stats() *stats.CacheStats {
	var agg stats.CacheStats
	for _, k := range p.lanes {
		agg.Add(k.Stats())
	}
	ls := p.log.Stats()
	gc := ls.GCPageEquivalent()
	agg.MetaWrites = ls.PagesWritten - gc
	agg.MetaGCWrites = gc
	agg.Add(p.pump.Stats())
	return &agg
}
