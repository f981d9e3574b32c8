// Package check is the repository's fault rig and the two drivers that
// are data over it.
//
// The rig (rig.go) builds a data-mode stack — a bare core.KDD or a
// shard.Plane over either array backend — drives a seeded 60 %-write op
// stream at it against internal/model's reference semantics, power-cycles
// it from its own NVRAM whenever an armed crash point fires, and ends
// with one verify chain. What it holds every run to: acked writes
// survive, in-flight writes resolve old-or-new and pin, recovery replay
// is idempotent, no span leaks open across a crash, parity stays
// reconstructable, and every store's page checksums verify.
//
// The crash checker (this file: Run, RunShard) profiles the workload
// once fault-free while recording the device-op trace, enumerates EVERY
// crash point (each SSD write ordinal, with seeded torn tails) and
// media-fault site (latent and transient, per distinct page on the SSD
// and each array member) from that trace, then replays the same workload
// once per site with that single fault armed. The chaos harness
// (chaos.go: Chaos) is a table of seeded fault plans, each run twice to
// a bit-identical fingerprint.
package check

import (
	"fmt"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/harness"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Options configures a checker run. Zero values select defaults chosen so
// the exhaustive per-seed site sweep stays in the low hundreds of runs.
type Options struct {
	Seed       uint64 // master seed; 0 = 0xC0FFEE (the chaos harness's master, so its schedules double as regression seeds here)
	Seeds      int    // seeds to explore (0 = 2)
	Ops        int    // workload ops per run (0 = 200)
	Footprint  int64  // distinct user LBAs (0 = 64)
	CachePages int64  // SSD cache frame pages (0 = 128)
	Parallel   int    // site-replay workers (0 = GOMAXPROCS, via harness.FanOut)
	CrashOnly  bool   // explore only crash sites (used by the kddbug mutation self-test)
	// Rebuild selects the rebuild-window scenario: a member is killed at
	// about Ops/3 with a hot spare parked, so every site fires against a
	// stack whose pump is rebuilding the array online, on either subject.
	// Crash sites then cover the rebuild checkpoint/resume path. The
	// parity engine runs it at RAID-6 geometry, so a member media fault
	// inside the window stays recoverable; the log engine is single-parity,
	// so there such a fault is a legal, loud loss (see runSite).
	Rebuild bool
	// MediaStride samples every Nth member media-fault site (0 or 1 =
	// exhaustive). Crash sites, whole-SSD kill sites and SSD media sites
	// are never strided — only the member fault fan-out, which the rebuild
	// scenario inflates to every-page-on-every-member because the rebuild
	// itself touches the whole array. The -race -short CI sweep uses this;
	// the stride offset rotates per member so no member goes unsampled.
	MediaStride int
	// Backend picks the array implementation under the cache: "kdd" (the
	// default; parity RAID with the delayed-parity protocol) or "lsraid"
	// (the log-structured backend).
	Backend string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	if o.Seeds == 0 {
		o.Seeds = 2
	}
	if o.Ops == 0 {
		o.Ops = 200
	}
	if o.Footprint == 0 {
		o.Footprint = 64
	}
	if o.CachePages == 0 {
		o.CachePages = 128
	}
	if o.Backend == "" {
		o.Backend = "kdd"
	}
	return o
}

// site is one armed fault in one run: a FaultSite plus which device's
// injector it targets (disk < 0 means the SSD).
type site struct {
	dev  string
	disk int
	fs   blockdev.FaultSite
}

func (s site) String() string { return s.dev + " " + s.fs.String() }

// SeedResult is the outcome of one seed's exhaustive site sweep.
type SeedResult struct {
	Index      int
	Seed       uint64
	CrashSites int
	MediaSites int
	KillSites  int // whole-SSD fail-stop sites (cache failover + bypass proof)
	Crashes    int // crash points that actually fired and were recovered
	// PendingCrashes counts the crashes that struck while a cache engine
	// held planned row repairs in its idle queue.
	PendingCrashes int
	Violations     []string
}

// Report aggregates the checker's results across seeds.
type Report struct {
	Opts    Options
	Kind    string // sweep variant shown in the table heading ("" = single-core)
	Results []SeedResult
	plane   bool // the subject was the sharded plane
}

// Violations flattens all violations, prefixed with their seed.
func (r *Report) Violations() []string {
	var out []string
	for _, res := range r.Results {
		for _, v := range res.Violations {
			out = append(out, fmt.Sprintf("seed %#x: %s", res.Seed, v))
		}
	}
	return out
}

// Table renders the per-seed summary plus a verdict line.
func (r *Report) Table() string {
	var b strings.Builder
	kind := r.Kind
	if kind == "" {
		kind = "exhaustive crash-point and fault-site exploration"
	}
	fmt.Fprintf(&b, "== Check (%s, rebuild=%v): %s ==\n", r.Opts.Backend, r.Opts.Rebuild, kind)
	fmt.Fprintf(&b, "%4s  %-18s %7s %7s %5s %8s %6s\n", "#", "seed", "crash", "media", "kill", "crashes", "viol")
	sites, crashes, viols := 0, 0, 0
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%4d  %-18s %7d %7d %5d %8d %6d\n",
			res.Index, fmt.Sprintf("%#x", res.Seed),
			res.CrashSites, res.MediaSites, res.KillSites, res.Crashes, len(res.Violations))
		sites += res.CrashSites + res.MediaSites + res.KillSites
		crashes += res.Crashes
		viols += len(res.Violations)
	}
	fmt.Fprintf(&b, "%d seeds, %d sites explored, %d crash points recovered, %d violations\n",
		len(r.Results), sites, crashes, viols)
	if viols == 0 {
		b.WriteString("PASS: every acked write survived every crash point and fault site\n")
	} else {
		b.WriteString("FAIL:\n")
		for _, v := range r.Violations() {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// hotFrontDraw picks an LBA with a hot front eighth. Two draws whatever
// the outcome, so the op stream stays in lockstep with the profile run.
func hotFrontDraw(rng *sim.RNG, footprint int64) int64 {
	hot := rng.Float64() < 0.5
	n := int64(rng.Uint64n(uint64(footprint)))
	if hot {
		return n / 8
	}
	return n
}

// rebuildVictim is the member the rebuild scenario kills.
const rebuildVictim = 1

// spec is the run o describes, on the bare engine (shards 0) or on the
// sharded plane at that execution width.
func (o Options) spec(shards int) spec {
	s := spec{
		geometry: checkGeometry, backend: o.Backend, cache: o.CachePages,
		ops: o.Ops, batch: 1, footprint: o.Footprint, pick: hotFrontDraw,
	}
	if shards > 0 {
		// Batches big enough that several lanes hold buffered metadata
		// entries when a crash fires mid-batch: the interleaved-batches-
		// in-flight state the sharded sweep exists to crash into.
		s.geometry, s.shards, s.batch = planeGeometry, shards, 16
	}
	if o.Rebuild {
		s.spares = 1
		if o.Backend == "kdd" {
			// RAID-6 with one extra member: an armed member media fault may
			// fire INSIDE the rebuild window (one member already missing),
			// and zero loss only holds if the geometry tolerates that second
			// hole.
			s.disks, s.level = s.disks+1, raid.Level6
		}
	}
	return s
}

// Run executes the checker across o.Seeds seeds on the bare engine.
// Sites within a seed fan out across workers; each site replay is
// independent, so violations come back as data and never abort the
// sweep. The error is a usage error: options no stack can be built from.
func Run(o Options) (*Report, error) {
	return sweep(o.withDefaults(), "", []int{0})
}

// RunShard executes the sharded-plane crash sweep: a batched workload
// over the full plane (eight lanes, one shared metadata log with
// per-lane tagged batch flushes), replayed once per SSD write ordinal
// with a torn-write crash point armed. Crashes land with several lanes'
// metadata batches in flight; recovery must demultiplex the shared log
// back to the lanes, twice, identically. Only crash sites are explored —
// media-fault coverage of the engine under each lane is Run's job, and
// the plane disables the per-lane breakers (a shared SSD fails as a
// whole). The execution width cycles across seeds: in deterministic mode
// it cannot change the device-op trace (the plane's central contract),
// so each seed picks one and the sweep still covers every grouping.
func RunShard(o Options) (*Report, error) {
	o = o.withDefaults()
	o.CrashOnly = true
	return sweep(o, "sharded plane, crash points with batches in flight", []int{1, 2, 4, 8})
}

// RunCI runs the deterministic CI matrix, {kdd, lsraid} × {engine, plane}
// × {plain, rebuild} in that order, at 120 ops over 48 pages per run; o
// supplies the seeds and the fan-out width.
func RunCI(o Options) ([]*Report, error) {
	o.Ops, o.Footprint = 120, 48
	var reps []*Report
	for _, backend := range []string{"kdd", "lsraid"} {
		for _, rebuild := range []bool{false, true} {
			for _, run := range []func(Options) (*Report, error){Run, RunShard} {
				o.Backend, o.Rebuild, o.MediaStride = backend, rebuild, 0
				if rebuild && backend == "kdd" {
					o.MediaStride = 4 // thousands of RAID-6 member media sites (the plane has none)
				}
				rep, err := run(o)
				if err != nil {
					return nil, err
				}
				reps = append(reps, rep)
			}
		}
	}
	return reps, nil
}

// Replay is the kddcheck command line that replays seed i of the sweep
// alone.
func (r *Report) Replay(i int) string {
	o := r.Opts
	cmd := fmt.Sprintf("kddcheck -backend %s -ops %d -footprint %d -cachepages %d -media-stride %d",
		o.Backend, o.Ops, o.Footprint, o.CachePages, o.MediaStride)
	if r.plane {
		cmd += " -shard"
	}
	if o.Rebuild {
		cmd += " -rebuild"
	}
	return fmt.Sprintf("%s -seed %#x -seeds 1", cmd, r.Results[i].Seed)
}

func sweep(o Options, kind string, widths []int) (*Report, error) {
	rep := &Report{Opts: o, Kind: kind, plane: widths[0] > 0}
	for i := 0; i < o.Seeds; i++ {
		// Same stride as the chaos harness, so its 24 schedule seeds are
		// reachable here as regression seeds.
		seed := o.Seed + uint64(i)*0x9E3779B97F4A7C15
		res, err := runSeed(seed, o, o.spec(widths[i%len(widths)]))
		if err != nil {
			return nil, err
		}
		res.Index = i
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// siteOutcome is one site replay's result; violations are data, not
// errors, so the fan-out never cancels early.
type siteOutcome struct {
	crashes, pendingCrashes int
	violations              []string
}

// newRun builds one run of the sweep's workload.
func newRun(seed uint64, o Options, s spec) (*rig, error) {
	r, err := newRig(seed, s)
	if err == nil && o.Rebuild {
		// Kill a member with a hot spare parked, before the first batch at
		// or past op Ops/3: the pump attaches the spare behind that batch
		// and rebuilds online under the rest (and whatever site is armed).
		r.everyBatch = func(i int) {
			if i >= o.Ops/3 && i < o.Ops/3+s.batch {
				r.arr.FailDisk(rebuildVictim)
			}
		}
	}
	return r, err
}

// runSeed profiles the workload fault-free, enumerates every site from
// the recorded traces, and replays the workload once per site.
func runSeed(seed uint64, o Options, s spec) (SeedResult, error) {
	res := SeedResult{Seed: seed}

	// Profile run: fault-free, recording the device-op trace on the SSD
	// and every array member. The baseline must be clean — otherwise site
	// failures would be noise on top of a broken stack.
	r, err := newRun(seed, o, s)
	if err != nil {
		return res, err
	}
	defer func() { r.sub.close() }()
	for _, inj := range r.injs {
		inj.RecordOps(true)
	}
	r.runOps()
	for _, inj := range r.injs {
		inj.RecordOps(false)
	}
	// Pump activity during the profile run, captured before verify (whose
	// completion drive steps the array directly, not through the pump).
	profileSteps := int(r.sub.Stats().RebuildSteps)
	r.verify()
	if len(r.violations) > 0 {
		for _, v := range r.violations {
			res.Violations = append(res.Violations, "baseline (no faults): "+v)
		}
		return res, nil
	}

	// Enumerate. Crashes model whole-node power loss. The SSD injector's
	// write ordinals (log, cache frame, DEZ commits) are always crash
	// sites; in the rebuild scenario the rebuild target's member writes
	// are too — every rebuild step writes the target, so the sweep gets a
	// crash point inside the window for every step, CrashOnly or not.
	// Other members contribute media sites only.
	var sites []site
	for _, fs := range blockdev.EnumerateSites(r.inj.Recorded(), seed^0x517E5) {
		if o.CrashOnly && fs.Kind != blockdev.FaultCrashTorn {
			continue
		}
		sites = append(sites, site{dev: "ssd", disk: -1, fs: fs})
	}
	stride := max(o.MediaStride, 1)
	for d := range r.members {
		media := 0
		for _, fs := range blockdev.EnumerateSites(r.arr.Injector(d).Recorded(), seed^uint64(d)) {
			if fs.Kind == blockdev.FaultCrashTorn {
				if !o.Rebuild || d != rebuildVictim {
					continue
				}
				// Member pages are write-atomic (the sector-atomicity
				// assumption parity RAID is built on): a power loss
				// mid-write persists nothing, unlike the SSD's torn
				// multi-page log appends.
				fs.TornPages, fs.TornBytes = 0, 0
			} else {
				media++
				if o.CrashOnly || (media-1)%stride != d%stride {
					continue
				}
			}
			sites = append(sites, site{dev: fmt.Sprintf("disk%d", d), disk: d, fs: fs})
		}
	}
	if !o.CrashOnly {
		// Whole-SSD fail-stop sites: strided op ordinals at which the cache
		// device dies outright. SSD only — a member fail-stop is the RAID
		// layer's rebuild problem, already covered by the chaos harness.
		for _, fs := range blockdev.EnumerateFailStopSites(r.inj.Recorded(), 8) {
			sites = append(sites, site{dev: "ssd", disk: -1, fs: fs})
		}
	}
	for _, s := range sites {
		switch s.fs.Kind {
		case blockdev.FaultCrashTorn:
			res.CrashSites++
		case blockdev.FaultFailStop:
			res.KillSites++
		default:
			res.MediaSites++
		}
	}
	if o.Rebuild {
		// The rebuild scenario's whole point is crash coverage of the
		// checkpoint/resume path: the pump must actually have stepped, and
		// the sweep must arm at least one crash point per rebuild step.
		if profileSteps == 0 {
			res.Violations = append(res.Violations,
				"profile: rebuild window never pumped a step")
		}
		if res.CrashSites < profileSteps {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"only %d crash sites enumerated for %d rebuild steps",
				res.CrashSites, profileSteps))
		}
	}

	outs, err := harness.FanOut(o.Parallel, len(sites), func(i int) (siteOutcome, error) {
		return runSite(seed, o, s, sites[i])
	})
	for i, out := range outs {
		res.Crashes += out.crashes
		res.PendingCrashes += out.pendingCrashes
		for _, v := range out.violations {
			res.Violations = append(res.Violations, fmt.Sprintf("site %s: %s", sites[i], v))
		}
	}
	return res, err
}

// runSite replays the seeded workload with exactly one fault armed, then
// runs the full verification chain. The workload prefix is identical to
// the profile run, so crash write-ordinals land where they were recorded.
func runSite(seed uint64, o Options, s spec, at site) (siteOutcome, error) {
	r, err := newRun(seed, o, s)
	if err != nil {
		return siteOutcome{}, err
	}
	defer func() { r.sub.close() }()
	// An SSD fail-stop inside the rebuild window is a legal double fault:
	// the deltas that died with the cache were the only way to repair
	// stale parity before reconstructing the missing member (§III-E). So
	// is a member media fault on the single-parity log engine: inside the
	// window it is the second hole of its row. Either loss must be loud;
	// silent corruption and a window that never closes stay violations.
	r.allowLost = o.Rebuild && (at.disk < 0 && at.fs.Kind == blockdev.FaultFailStop ||
		at.disk >= 0 && o.Backend == "lsraid" && at.fs.Kind != blockdev.FaultCrashTorn)
	r.injs[at.disk+1].Arm(at.fs) // the SSD (disk -1) leads the list
	r.runOps()
	if !r.halt {
		r.verify()
		if at.fs.Kind == blockdev.FaultFailStop {
			r.bypassProof()
		}
	}
	out := siteOutcome{crashes: r.crashes, pendingCrashes: r.pendingCrashes, violations: r.violations}
	if at.fs.Kind == blockdev.FaultCrashTorn && r.crashes == 0 {
		out.violations = append(out.violations, "armed crash point never fired (replay diverged from profile)")
	}
	return out, nil
}
