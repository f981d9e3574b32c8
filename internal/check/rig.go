package check

import (
	"bytes"
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/lsraid"
	"kddcache/internal/model"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// This file is the one fault rig both drivers run: the crash checker
// (check.go: enumerate every fault site of a profile run, replay once per
// site) and the chaos harness (chaos.go: a table of fault plans) are data
// over it. A run is a pure function of (seed, spec, armed faults), so
// replaying a violation needs only those.

// geometry is a driver's stack literal: the array members, the cache's
// set associativity, and the SSD's metadata and slack partitions.
type geometry struct {
	disks     int
	diskPages int64
	chunk     int64
	ways      int
	metaPages int64
	padPages  int64 // SSD pages past the cache partition, never addressed
}

var (
	// The checker's engine stack is deliberately small: hundreds of
	// per-site replays per seed must stay cheap while still exercising
	// eviction, DEZ packing, cleaning and parity maintenance.
	checkGeometry = geometry{disks: 4, diskPages: 256, chunk: 4, ways: 16, metaPages: 32}
	// The checker's plane stack splits its cache into shard.Lanes private
	// slices, so it is a little larger: every lane must still be able to
	// evict and clean.
	planeGeometry = geometry{disks: 5, diskPages: 512, chunk: 4, ways: 8, metaPages: 32}
	// The chaos stack: a scrub pass stays cheap, and the default footprint
	// overflows the cache into eviction, cleaning and the DEZ machinery.
	chaosGeometry = geometry{disks: 5, diskPages: 1024, chunk: 8, ways: 32, metaPages: 64, padPages: 64}
)

// spec is everything a driver says about one run: the stack to build
// and the seeded workload to drive at it.
type spec struct {
	geometry
	level   raid.Level // zero = RAID-5
	spares  int        // hot spares parked at build time
	backend string     // "kdd" (parity RAID, delayed parity) or "lsraid"
	cache   int64      // SSD cache data pages

	// plane makes the subject a shard.Plane; otherwise a bare core.KDD.
	// The plane sweeps each batch on one goroutine, so its device-op
	// trace is a pure function of the op stream: a crash-site replay
	// reproduces the profile run's SSD write ordinals and a chaos
	// schedule its fingerprint.
	plane bool
	// coalesce lets the plane drop writes superseded within a batch. A
	// sweep that crashes mid-batch keeps it off: a dropped-then-crashed
	// write pair would need a three-valued old-or-new pin.
	coalesce bool
	tune     func(*core.Config) // adjust the bare engine's config before core.New

	ops       int   // workload operations
	batch     int   // ops per subject batch: 1 for a bare engine
	footprint int64 // distinct LBAs touched
	// pick draws the next LBA. The RNG draw order is each driver's
	// contract with its own pinned outputs, so the draw stays data.
	pick func(rng *sim.RNG, footprint int64) int64
	step sim.Time // virtual time between batches
}

// subject is what the rig drives and power-cycles: a bare *core.KDD or a
// *shard.Plane, behind the handful of operations the two spell
// differently.
type subject interface {
	// RunBatch executes a batch, one result per op in submission order,
	// valid until the next batch. The engine serves the ops in submission
	// order, the plane in its sweep order: each LBA's ops keep their order.
	RunBatch(t sim.Time, ops []shard.Op) []shard.Result
	// restore builds a fresh instance from this one's NVRAM (metadata-log
	// counters and buffer, every staging buffer) the way a power-on does,
	// threading tr through the recovered instance.
	restore(tr *obs.Tracer) (subject, error)
	// engines lists the cache engines inside: one, or the plane's lanes.
	engines() []*core.KDD
	// settle flushes every stale parity and buffered metadata entry.
	settle(t sim.Time) error
	Stats() *stats.CacheStats
	close()
}

type engineSubject struct {
	*core.KDD
	cfg core.Config
}

func (e engineSubject) RunBatch(t sim.Time, ops []shard.Op) []shard.Result {
	res := make([]shard.Result, len(ops))
	for i, op := range ops {
		res[i].Done, res[i].Err = e.Serve(t, op.LBA, op.Buf, op.Kind == shard.OpWrite, true)
	}
	return res
}

func (e engineSubject) restore(tr *obs.Tracer) (subject, error) {
	cfg := e.cfg
	cfg.Tracer = tr
	k, _, err := core.Restore(cfg, 0, e.Log().Counters(), e.Log().BufferedEntries(), e.Staging())
	return engineSubject{k, e.cfg}, err
}

func (e engineSubject) engines() []*core.KDD { return []*core.KDD{e.KDD} }

func (e engineSubject) settle(t sim.Time) error {
	_, err := e.Flush(t)
	return err
}

func (e engineSubject) close() {}

type planeSubject struct {
	*shard.Plane
	cfg shard.Config
}

func (p planeSubject) restore(tr *obs.Tracer) (subject, error) {
	cfg := p.cfg
	cfg.Tracer = tr
	var stagings [shard.Lanes]*nvram.Staging
	for i := range stagings {
		stagings[i] = p.Lane(i).Staging()
	}
	np, _, err := shard.Restore(cfg, 0, p.Log().Counters(), p.Log().BufferedEntries(), stagings)
	return planeSubject{np, p.cfg}, err
}

func (p planeSubject) engines() []*core.KDD {
	out := make([]*core.KDD, shard.Lanes)
	for i := range out {
		out[i] = p.Lane(i)
	}
	return out
}

func (p planeSubject) settle(t sim.Time) error {
	_, err := p.Quiesce(t)
	return err
}

func (p planeSubject) close() { p.Close() }

// rig is one run's stack — the real cache over a real array on one side,
// the reference model on the other — plus the tallies both drivers read.
type rig struct {
	spec
	rng *sim.RNG
	mut *delta.Mutator
	mdl *model.Model
	now sim.Time

	members []*blockdev.NullDevice // as built; a spare attach swaps the medium behind an injector, not this
	arr     raidiface.Array
	inj     *blockdev.FaultInjector   // SSD-side injector
	injs    []*blockdev.FaultInjector // inj, then every member's (stable: a spare attach swaps the medium behind it)
	ob      *obs.Obs                  // the run's tracer and span ring: chaos digests the ring
	sub     subject

	// Driver data: hooks and the per-plan/per-site flags.
	everyBatch func(i int) // before each batch; i is the index of its first op
	// allowLost excuses LOUD data loss (ErrUnrecoverable reads, lost-row
	// accounting) where losing pages is the spec: a whole-SSD fail-stop
	// inside a rebuild window kills the only copy of the deltas that could
	// repair stale parity, and a stale row plus the missing member exceeds
	// even RAID-6's two-erasure budget. Silent corruption is never excused.
	allowLost         bool
	rearmCrash        bool // arm a fresh crash point after every recovery
	skipDegradedProof bool

	halt           bool
	crashes        int
	pendingCrashes int              // crashes that struck with rows in an engine's idle queue
	rebuildResumes int              // power cycles that re-opened a rebuild window from the NVRAM checkpoint
	banked         stats.CacheStats // counters of the instances power cycles replaced
	lastScrub      raid.ScrubReport
	proofFailed    int // member the degraded proof failed; -1 until it runs
	violations     []string
}

// newRig builds the stack a spec describes. Everything a flag or a
// caller's Options can get wrong surfaces here as an error, once.
func newRig(seed uint64, s spec) (*rig, error) {
	r := &rig{
		spec:        s,
		rng:         sim.NewRNG(seed),
		mut:         delta.NewMutator(seed^0xD00D, 0.25),
		mdl:         model.New(),
		proofFailed: -1,
	}
	var members []blockdev.Device
	for i := 0; i < s.disks; i++ {
		d := blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), s.diskPages)
		r.members = append(r.members, d)
		members = append(members, d)
	}
	level := s.level
	if level == 0 {
		level = raid.Level5
	}
	var err error
	switch {
	case s.backend == "kdd":
		r.arr, err = raid.New(raid.Config{Level: level, ChunkPages: s.chunk}, members)
	case s.backend != "lsraid":
		err = fmt.Errorf("check: unknown backend %q (want kdd or lsraid)", s.backend)
	case level != raid.Level5:
		err = fmt.Errorf("check: the lsraid backend is single-parity: no %v scenario", level)
	default:
		// 4-row segments: 64 of them on the smallest geometry, 12 data
		// pages each, so a 48-page footprint flushes the row buffer many
		// times a run; its logical capacity, 3/4 of 64*12 = 576 pages,
		// covers its footprints.
		r.arr, err = lsraid.New(lsraid.Config{ChunkPages: s.chunk, SegRows: 4, Seed: seed}, members)
	}
	if err != nil {
		return nil, err
	}
	if s.footprint < 8 || s.footprint > r.arr.Pages() {
		return nil, fmt.Errorf("check: footprint %d outside [8, %d] (the hot eighth, the array's logical pages)",
			s.footprint, r.arr.Pages())
	}
	for i := 0; i < s.spares; i++ {
		if err := r.arr.AddSpare(blockdev.NewNullDataDevice(fmt.Sprintf("spare%d", i), s.diskPages)); err != nil {
			return nil, fmt.Errorf("check: parking spare %d: %w", i, err)
		}
	}
	// Every run is traced: a crash that leaks a span open or drives a
	// counter negative is a violation exactly like a torn write, and the
	// chaos fingerprint folds in a digest of the ring. The Obs is never
	// released: the array and engines keep the tracer, so the ring is
	// left to the collector rather than recycled under them.
	r.ob = obs.New()
	r.arr.SetTracer(r.ob.Tracer)
	r.inj = blockdev.NewFaultInjector(
		blockdev.NewNullDataDevice("ssd", s.metaPages+s.cache+s.padPages), seed^0xFA17)
	r.injs = []*blockdev.FaultInjector{r.inj}
	for i := range r.members {
		r.injs = append(r.injs, r.arr.Injector(i))
	}
	if s.plane {
		cfg := shard.Config{
			SSD: r.inj, Backend: r.arr, CachePages: s.cache, Ways: s.ways,
			MetaPages: s.metaPages, Codec: func(int) delta.Codec { return delta.ZRLE{} },
			Coalesce: s.coalesce, Tracer: r.ob.Tracer,
		}
		p, err := shard.New(cfg)
		if err != nil {
			return nil, err
		}
		r.sub = planeSubject{p, cfg}
		return r, nil
	}
	cfg := core.Config{
		SSD: r.inj, Backend: r.arr, CachePages: s.cache, Ways: s.ways,
		MetaPages: s.metaPages, Codec: delta.ZRLE{}, Tracer: r.ob.Tracer,
	}
	if s.tune != nil {
		s.tune(&cfg)
	}
	k, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	r.sub = engineSubject{k, cfg}
	return r, nil
}

func (r *rig) violf(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// kdd is the bare engine under test, for hooks of engine-subject plans.
func (r *rig) kdd() *core.KDD { return r.sub.(engineSubject).KDD }

// plane is the plane under test, for hooks of plane-subject plans.
func (r *rig) plane() *shard.Plane { return r.sub.(planeSubject).Plane }

// dataStart is the first SSD page of the cache data partition.
func (r *rig) dataStart() int64 { return r.metaPages }

// totals sums the cache counters over every instance the run has had:
// power cycles bank the instance they replace, the live one is added on.
func (r *rig) totals() *stats.CacheStats {
	t := r.banked
	t.Add(r.sub.Stats())
	return &t
}

// lostOK reports whether err is the loud lost-page refusal and the
// driver declared that loss legal (see allowLost).
func (r *rig) lostOK(err error) bool {
	return r.allowLost && errors.Is(err, raid.ErrUnrecoverable)
}

// anyCrashed reports whether any device's armed crash point has fired.
// Crash points model whole-node power loss, so a member's crash is the
// node's crash: recovery is the same as for an SSD crash.
func (r *rig) anyCrashed() bool {
	for _, inj := range r.injs {
		if inj.Crashed() {
			return true
		}
	}
	return false
}

// armNext arms the next torn-write crash point at a random distance.
// The distance window shrinks with the op count so short runs still
// crash at least once instead of running out of writes before the
// trigger.
func (r *rig) armNext() {
	span := min(max(r.ops/4, 1), 120)
	r.inj.ArmCrash(int64(10+r.rng.Intn(span)), r.rng.Intn(3), r.rng.Intn(blockdev.PageSize))
}

// batches is the workload's length in whole batches.
func (r *rig) batches() int { return max(r.ops/r.batch, 1) }

// runOps drives the seeded workload: batches of 60 % writes, each write
// the next version of its page — a mutation of the newest planned
// content (an earlier write of the same batch, else the model's), or a
// fresh random page for a first touch. pick, Mutate and FillRandom
// consume fixed draw counts, so the op stream replays in lockstep with a
// profile run whichever fault is armed, even after an old-or-new pin
// diverges a page's bytes. A fired crash point is recovered at the
// batch boundary.
func (r *rig) runOps() {
	for b := 0; b < r.batches() && !r.halt; b++ {
		if r.everyBatch != nil {
			r.everyBatch(b * r.batch)
		}
		r.now += r.step
		ops := make([]shard.Op, r.batch)
		planned := make(map[int64][]byte)
		for i := range ops {
			lba := r.pick(r.rng, r.footprint)
			page := make([]byte, blockdev.PageSize)
			ops[i] = shard.Op{Kind: shard.OpRead, LBA: lba, Buf: page}
			if r.rng.Float64() >= 0.6 {
				continue
			}
			base, ok := planned[lba]
			if !ok {
				base, _ = r.mdl.Value(lba)
			}
			if base != nil {
				copy(page, base)
				r.mut.Mutate(page)
			} else {
				r.mut.FillRandom(page)
			}
			planned[lba] = page
			ops[i].Kind = shard.OpWrite
		}
		r.exec(ops)
		if r.anyCrashed() {
			r.crashes++
			for _, k := range r.sub.engines() {
				if k.IdleQueued() > 0 {
					r.pendingCrashes++
					break
				}
			}
			r.powerCycle()
		}
	}
}

// exec runs one batch on the subject and reconciles every result with
// the model in op order: an acked write must survive, a read must match,
// and a write the power failed under may resolve old-or-new, pinned by
// its first post-recovery read.
func (r *rig) exec(ops []shard.Op) {
	res := r.sub.RunBatch(r.now, ops)
	for i, op := range ops {
		write, err := op.Kind == shard.OpWrite, res[i].Err
		switch {
		case res[i].Coalesced, errors.Is(err, shard.ErrStopped):
			// Superseded within the batch, or refused after the plane
			// fail-stopped: the op never ran and never reached NVRAM.
		case err == nil && write:
			r.mdl.Write(op.LBA, op.Buf)
		case err == nil:
			if err := r.mdl.Check(op.LBA, op.Buf); err != nil {
				r.violf("read %d: %v", op.LBA, err)
			}
		case r.anyCrashed():
			if write {
				r.mdl.CrashWrite(op.LBA, op.Buf)
			}
		case r.lostOK(err):
			// The page was declared lost; the model keeps its old value.
		case write:
			r.violf("write %d failed: %v", op.LBA, err)
		default:
			r.violf("read %d failed: %v", op.LBA, err)
		}
	}
}

// read reads one page through the subject and cross-checks the model
// (pinning an in-flight write to the version observed).
func (r *rig) read(lba int64) {
	r.exec([]shard.Op{{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)}})
}

// powerCycle recovers from a power loss (§III-E1). Everything volatile
// is forgotten — the array's rebuild watermark and, log-structured, its
// L2P map — and the subject is restored from its own NVRAM twice: the
// instance that carries on, and an untraced shadow whose only job is to
// prove replay idempotent, engine digest by engine digest. The recovered
// state must be invariant-clean with no span leaked open across the
// crash, and every write the power failed under is pinned old-or-new.
func (r *rig) powerCycle() {
	r.banked.Add(r.sub.Stats())
	for _, inj := range r.injs {
		inj.ClearCrash()
	}
	// Without the resume from the NVRAM checkpoint the un-rebuilt region
	// of a rebuild target would silently be served as valid zeros.
	r.arr.CrashRebuildState()
	if a, ok := r.arr.(interface{ StateDigest() uint64 }); ok {
		d1 := a.StateDigest()
		r.arr.CrashRebuildState()
		if d2 := a.StateDigest(); d1 != d2 {
			r.violf("array replay not idempotent: %016x vs %016x", d1, d2)
		}
	}
	next, err := r.sub.restore(r.ob.Tracer)
	if err != nil {
		r.violf("restore after crash: %v", err)
		r.halt = true
		return
	}
	shadow, err := r.sub.restore(nil)
	if err != nil {
		r.violf("second restore from the same NVRAM snapshot: %v", err)
		next.close()
		r.halt = true
		return
	}
	for i, k := range next.engines() {
		if d1, d2 := k.StateDigest(), shadow.engines()[i].StateDigest(); d1 != d2 {
			r.violf("recovery not idempotent: engine %d state digest %016x vs %016x", i, d1, d2)
		}
	}
	shadow.close()
	r.sub.close()
	r.sub = next
	if r.arr.RebuildActive() {
		r.rebuildResumes++
	}
	r.checkInvariants("post-restore")
	r.checkObs("post-restore")
	for _, lba := range r.mdl.Unresolved() {
		r.read(lba) // pins old-or-new in the model, or flags torn content
	}
	if r.rearmCrash {
		r.armNext()
	}
}

func (r *rig) checkInvariants(when string) {
	for i, k := range r.sub.engines() {
		if err := k.CheckInvariants(); err != nil {
			r.violf("%s invariants: engine %d: %v", when, i, err)
		}
	}
	if a, ok := r.arr.(interface{ CheckInvariants() error }); ok {
		if err := a.CheckInvariants(); err != nil {
			r.violf("%s array invariants: %v", when, err)
		}
	}
}

// checkObs asserts the observability layer survived whatever just
// happened: no span leaked open, no structural error recorded by the
// tracer, and a metrics snapshot of every engine validates (no negative
// counters, no NaN gauges).
func (r *rig) checkObs(when string) {
	if n := r.ob.Tracer.OpenSpans(); n != 0 {
		r.violf("%s: %d spans leaked open", when, n)
	}
	if err := r.ob.Tracer.Err(); err != nil {
		r.violf("%s: trace integrity: %v", when, err)
	}
	for i, k := range r.sub.engines() {
		reg := obs.NewRegistry()
		k.PublishMetrics(reg)
		obs.PublishCacheStats(reg, k.Stats())
		r.arr.PublishMetrics(reg)
		if err := reg.Validate(); err != nil {
			r.violf("%s: engine %d metrics registry: %v", when, i, err)
		}
	}
}

// verify is the post-workload integrity chain. Faults are disarmed
// first: it measures what they left behind, not new ones. The step order
// is pinned by the chaos fingerprints (every traced step is in the trace
// digest); steps that only make sense in some states are conditioned on
// that state, never on which driver is asking.
func (r *rig) verify() {
	for _, inj := range r.injs {
		inj.ClearCrash()
		inj.SetProfile(blockdev.FaultProfile{})
	}
	// 1. Invariants, then a model-checked read of the whole footprint
	//    through the cache.
	r.checkInvariants("pre-flush")
	for lba := int64(0); lba < r.footprint; lba++ {
		r.read(lba)
	}
	// 2. Settle: every stale parity folded, every metadata entry durable.
	if err := r.sub.settle(r.now); err != nil {
		r.violf("flush: %v", err)
		return
	}
	if n := r.arr.StaleRows(); n != 0 {
		r.violf("%d stale rows after flush", n)
	}
	r.checkInvariants("post-flush")
	// 3. Full redundancy: drive any open rebuild window to completion and
	//    attach the spares still parked. The workload's own pump did the
	//    paced part; this is the backstop for windows open at the end.
	//    Settle folded every delta already (§III-E: parity_update
	//    precedes rebuild). Degraded with no spare left is a legal end.
	for guard := 0; !r.arr.Healthy(); guard++ {
		if guard > len(r.members)+2 {
			r.violf("verify: array did not settle to full redundancy")
			break
		}
		if _, err := r.arr.DrainRebuild(r.now); err != nil {
			r.violf("verify: rebuild drain: %v", err)
			break
		}
		if r.arr.Healthy() || r.arr.SpareCount() == 0 {
			break
		}
		if _, started, err := r.arr.StartSpareRebuild(r.now); err != nil || !started {
			if err != nil {
				r.violf("verify: spare attach: %v", err)
			}
			break
		}
	}
	if lost := r.arr.LostRows(); len(lost) > 0 && !r.allowLost {
		r.violf("rows %v lost", lost)
	}
	// 4. Patrol scrub, then the array read directly against the model.
	_, rep, err := r.arr.Scrub(r.now)
	if err != nil {
		r.violf("scrub: %v", err)
		return
	}
	r.lastScrub = rep
	if len(rep.Unrecoverable) > 0 && !r.allowLost {
		r.violf("scrub reported unrecoverable rows %v", rep.Unrecoverable)
	}
	r.sweepArray("array")
	// 5. Corruption a fault left behind must never sit undetected on a
	//    medium: every page checksum of every store verifies — also after
	//    a plan flipped stored bytes, because by now every resident cache
	//    page has been read (and healed) and every member row scrubbed.
	//    Through the injectors, not r.members: it is the medium actually
	//    serving reads that must checksum.
	for i, inj := range r.injs {
		st := inj.Store()
		for p := int64(0); p < st.Pages(); p++ {
			if !st.VerifyPage(p) {
				r.violf("checksum mismatch at page %d of store %d (0 = ssd, then members)", p, i)
			}
		}
	}
	// 6. Degraded proof: drop one member and re-read the footprint through
	//    reconstruction; wrong parity anywhere shows up as a mismatch.
	if r.skipDegradedProof || !r.arr.Healthy() {
		return
	}
	r.proofFailed = r.rng.Intn(len(r.members))
	r.arr.FailDisk(r.proofFailed)
	r.sweepArray("degraded")
}

// sweepArray reads the footprint from the array, below the cache, and
// compares it with the model.
func (r *rig) sweepArray(what string) {
	zero := make([]byte, blockdev.PageSize)
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < r.footprint; lba++ {
		want, ok := r.mdl.Value(lba)
		if !ok {
			r.violf("page %d still unresolved at verify", lba)
			continue
		}
		if want == nil {
			want = zero
		}
		if _, err := r.arr.ReadPages(r.now, lba, 1, buf); err != nil {
			if !r.lostOK(err) {
				r.violf("%s read %d: %v", what, lba, err)
			}
		} else if !bytes.Equal(buf, want) {
			r.violf("%s content mismatch at %d", what, lba)
		}
	}
}

// bypassProof proves recovery safe while the cache device is dead.
// Entering pass-through re-initialised the metadata log to empty (NVRAM
// counters only, no device I/O), so a power cycle must come up as a
// fresh empty cache without touching the failed SSD — twice, with equal
// digests — and a read through it must still be served from the RAID.
func (r *rig) bypassProof() {
	for _, k := range r.sub.engines() {
		if k.Health() != core.HealthBypass {
			return
		}
	}
	r.powerCycle()
	if !r.halt {
		r.read(0)
	}
}
