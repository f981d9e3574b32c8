package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/harness"
	"kddcache/internal/model"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
)

// Chaos drives the full KDD stack (SSD cache + RAID-5 backend) through
// randomized, seeded fault schedules and verifies end-to-end integrity
// after each one. Every schedule runs the rig's mixed read/write workload
// against the reference model while a fault plan injects latent media
// errors, transient glitches, silent bit-rot, torn-write crashes, or
// fail-stop device losses; afterwards the rig's verify chain checks cache
// invariants, flushes, runs a patrol scrub, verifies the array contents
// directly, and proves parity by failing a disk and re-reading through
// reconstruction. Each schedule is executed twice and must produce
// bit-identical results (fingerprints) — fault injection is deterministic
// given the seed.

// ChaosOpts parameterises a chaos run.
type ChaosOpts struct {
	Schedules  int    // distinct fault schedules (default 24)
	Ops        int    // workload operations per schedule (default 500)
	Footprint  int64  // distinct LBAs touched (default 640)
	CachePages int64  // SSD cache data pages (default 512)
	Seed       uint64 // master seed (default 0xC0FFEE)
	Parallel   int    // worker-pool width for schedules (0 = harness default)
	// Kind restricts the run to a comma-separated set of plan kinds
	// (e.g. "ssd-kill,ssd-reattach"); empty runs every plan.
	Kind string
}

func (o ChaosOpts) withDefaults() ChaosOpts {
	if o.Schedules == 0 {
		o.Schedules = 24
	}
	if o.Ops == 0 {
		o.Ops = 500
	}
	if o.Footprint == 0 {
		o.Footprint = 640
	}
	if o.CachePages == 0 {
		o.CachePages = 512
	}
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	return o
}

// ChaosScheduleResult summarises one schedule (one seeded fault plan).
type ChaosScheduleResult struct {
	Schedule int
	Kind     string
	Seed     uint64

	Crashes       int   // power losses injected (and recovered from)
	Detected      int64 // media-error detection events across all layers (a fault observed at both the device and the RAID layer counts at each)
	Repaired      int64 // pages/rows healed (scrub, read-repair, row heals, emergency folds)
	Unrecoverable int   // rows reported unrecoverable (only the dedicated plan expects any)
	Failovers     int64 // cache transitions into pass-through (breaker trips + fail-stops)
	Reattaches    int64 // successful cache re-attachments
	SpareAttaches int64 // hot spares auto-attached by the rebuild pump
	RebuildRows   int64 // member rows reconstructed by the paced rebuild

	Spans       uint64 // spans emitted by the always-on tracer
	TraceDigest uint64 // FNV-1a of the canonical trace bytes; equal across reruns

	Fingerprint uint64 // digest of final content + counters; equal across reruns
	Violations  []string
}

// ChaosReport aggregates all schedules of a run.
type ChaosReport struct {
	Opts    ChaosOpts
	Results []ChaosScheduleResult
}

// Violations flattens every schedule's violations with a schedule prefix.
func (r *ChaosReport) Violations() []string {
	var all []string
	for _, res := range r.Results {
		for _, v := range res.Violations {
			all = append(all, fmt.Sprintf("schedule %d (%s, seed %#x): %s",
				res.Schedule, res.Kind, res.Seed, v))
		}
	}
	return all
}

// Table renders the per-schedule summary.
func (r *ChaosReport) Table() string {
	var b strings.Builder
	b.WriteString("== Chaos: randomized partial-fault schedules over the KDD stack ==\n")
	fmt.Fprintf(&b, "%3s  %-14s %-18s %7s %9s %9s %6s %6s %5s %6s %6s %5s %8s  %-16s %s\n",
		"#", "kind", "seed", "crashes", "detected", "repaired", "unrec", "failov", "reatt", "spares", "rbrows", "viol", "spans", "tracedigest", "fingerprint")
	var crashes, unrec, viol int
	var detected, repaired, failov, reatt, spares, rbrows int64
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%3d  %-14s %-18s %7d %9d %9d %6d %6d %5d %6d %6d %5d %8d  %016x %016x\n",
			res.Schedule, res.Kind, fmt.Sprintf("%#x", res.Seed),
			res.Crashes, res.Detected, res.Repaired,
			res.Unrecoverable, res.Failovers, res.Reattaches,
			res.SpareAttaches, res.RebuildRows,
			len(res.Violations), res.Spans, res.TraceDigest, res.Fingerprint)
		crashes += res.Crashes
		detected += res.Detected
		repaired += res.Repaired
		failov += res.Failovers
		reatt += res.Reattaches
		spares += res.SpareAttaches
		rbrows += res.RebuildRows
		unrec += res.Unrecoverable
		viol += len(res.Violations)
	}
	fmt.Fprintf(&b, "\n%d schedules: %d crashes recovered, %d media errors detected, "+
		"%d repairs, %d cache failovers, %d reattaches, %d spare attaches, "+
		"%d rebuild rows, %d unrecoverable rows, %d violations\n",
		len(r.Results), crashes, detected, repaired, failov, reatt, spares, rbrows, unrec, viol)
	if viol == 0 {
		b.WriteString("PASS: zero invariant violations, zero undetected corruption\n")
	} else {
		b.WriteString("FAIL:\n")
		for _, v := range r.Violations() {
			b.WriteString("  " + v + "\n")
		}
	}
	return b.String()
}

// Chaos runs every schedule twice (same seed) and reports the results.
// Determinism failures are recorded as violations on the first run.
// Schedules are independent (each builds its own rig, devices, and RNG
// streams from the derived seed), so they execute on the shared worker
// pool; results land in schedule order regardless of completion order.
// Violations are data, recorded in the per-schedule result, so one bad
// schedule can't mask the rest; the error is a usage error — no plan of
// that kind, or options no stack can be built from.
func Chaos(o ChaosOpts) (*ChaosReport, error) {
	o = o.withDefaults()
	plans := chaosPlans
	if o.Kind != "" {
		want := make(map[string]bool)
		for _, k := range strings.Split(o.Kind, ",") {
			want[strings.TrimSpace(k)] = true
		}
		plans = nil
		for _, p := range chaosPlans {
			if want[p.kind] {
				plans = append(plans, p)
			}
		}
		if len(plans) == 0 {
			return nil, fmt.Errorf("check: no chaos plan matches kind %q", o.Kind)
		}
	}
	results, err := harness.FanOut(o.Parallel, o.Schedules, func(i int) (ChaosScheduleResult, error) {
		plan := plans[i%len(plans)]
		seed := o.Seed + uint64(i)*0x9E3779B97F4A7C15
		res, err := runChaosSchedule(plan, seed, o)
		if err != nil {
			return ChaosScheduleResult{}, err
		}
		rerun, err := runChaosSchedule(plan, seed, o)
		if err != nil {
			return ChaosScheduleResult{}, err
		}
		if res.Fingerprint != rerun.Fingerprint {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"nondeterministic: fingerprint %016x vs %016x on rerun",
				res.Fingerprint, rerun.Fingerprint))
		}
		res.Schedule = i
		return *res, nil
	})
	return &ChaosReport{Opts: o, Results: results}, err
}

// chaosPlan is one fault-injection strategy: data over the shared rig.
type chaosPlan struct {
	kind    string
	shape   func(*spec) // departures from the default stack and workload
	setup   func(*chaosRun)
	everyOp func(c *chaosRun, i int) // before the batch whose first op is i
	finish  func(*chaosRun)          // after the verify chain

	rearmCrash        bool // re-arm a crash point after every recovery
	skipDegradedProof bool
}

// chaosRun is one schedule: the rig, plus what only plan hooks track.
type chaosRun struct {
	*rig
	res *ChaosScheduleResult // hooks tally the repairs and lost rows they cause themselves

	flips              int            // silent/detectable corruptions actually applied
	flippedRows        map[int64]bool // rows already holding an injected member fault
	secondKillInWindow bool           // the plan's second member failure landed inside an open rebuild window
	killLane           int            // the lane whose SSD slice the plan fails
}

// hotEighthDraw picks an LBA with a hot front eighth.
func hotEighthDraw(rng *sim.RNG, footprint int64) int64 {
	if rng.Float64() < 0.5 {
		return int64(rng.Uint64n(uint64(footprint / 8)))
	}
	return int64(rng.Uint64n(uint64(footprint)))
}

func uniformDraw(rng *sim.RNG, footprint int64) int64 {
	return int64(rng.Uint64n(uint64(footprint)))
}

func runChaosSchedule(plan *chaosPlan, seed uint64, o ChaosOpts) (*ChaosScheduleResult, error) {
	s := spec{
		geometry: chaosGeometry, backend: "kdd", cache: o.CachePages,
		ops: o.Ops, batch: 1, footprint: o.Footprint, pick: hotEighthDraw,
	}
	if plan.shape != nil {
		plan.shape(&s)
	}
	r, err := newRig(seed, s)
	if err != nil {
		return nil, err
	}
	defer func() { r.sub.close() }()
	res := &ChaosScheduleResult{Kind: plan.kind, Seed: seed}
	c := &chaosRun{rig: r, res: res, flippedRows: make(map[int64]bool)}
	r.rearmCrash, r.skipDegradedProof = plan.rearmCrash, plan.skipDegradedProof
	if plan.everyOp != nil {
		r.everyBatch = func(i int) { plan.everyOp(c, i) }
	}
	if plan.setup != nil {
		plan.setup(c)
	}
	r.runOps()
	if !r.halt {
		r.verify()
		if plan.finish != nil {
			plan.finish(c)
		}
	}
	r.checkObs("end of schedule")

	t, as := r.totals(), r.arr.Stats()
	res.Crashes = r.crashes
	// A fault observed at both the device and the RAID layer counts at each.
	res.Detected = as.MediaErrors + t.SSDMediaErrors
	for _, inj := range r.injs {
		res.Detected += inj.MediaErrors()
	}
	res.Repaired += t.RowsHealed + t.FoldRMWs + t.FoldResyncs + as.ReadRepairs +
		r.lastScrub.MediaRepaired + r.lastScrub.ParityFixed
	res.Unrecoverable += len(r.lastScrub.Unrecoverable)
	res.Failovers = t.Failovers
	res.Reattaches = t.Reattaches
	res.SpareAttaches = t.SpareAttaches
	res.RebuildRows = t.RebuildRows
	res.Violations = r.violations
	dig := obs.NewDigest()
	r.ob.Ring().Trees(dig.Tree)
	res.Spans = dig.Spans()
	res.TraceDigest = dig.Sum64()
	res.Fingerprint = fingerprint(r.mdl, res)
	return res, nil
}

// fingerprint digests the model's contents and the schedule tallies; two
// runs of the same seed must agree bit for bit.
func fingerprint(mdl *model.Model, res *ChaosScheduleResult) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, lba := range mdl.Footprint() {
		put(uint64(lba))
		page, _ := mdl.Value(lba)
		h.Write(page)
	}
	put(uint64(res.Crashes))
	put(uint64(res.Detected))
	put(uint64(res.Repaired))
	put(uint64(res.Unrecoverable))
	put(uint64(res.Failovers))
	put(uint64(res.Reattaches))
	put(uint64(res.SpareAttaches))
	put(uint64(res.RebuildRows))
	put(res.Spans)
	put(res.TraceDigest)
	put(uint64(len(res.Violations)))
	return h.Sum64()
}

// writtenLBA draws a random LBA that has actually been written, so
// targeted corruption always lands on a live page even in short runs.
func (c *chaosRun) writtenLBA() (int64, bool) {
	w := c.mdl.Written()
	if len(w) == 0 {
		return 0, false
	}
	return w[c.rng.Intn(len(w))], true
}

// cacheDataPage returns a random SSD page inside the cache data partition.
func (c *chaosRun) cacheDataPage() int64 {
	return c.dataStart() + int64(c.rng.Uint64n(uint64(c.cache)))
}

// corruptSomeCachePage flips one bit in a cache data page that actually
// holds data, scanning the partition from a random start so short runs
// with sparse caches still land their corruption. Returns false only if
// the cache data partition is completely empty.
func (c *chaosRun) corruptSomeCachePage() bool {
	start := int64(c.rng.Uint64n(uint64(c.cache)))
	bit := uint(c.rng.Intn(blockdev.PageSize * 8))
	for j := int64(0); j < c.cache; j++ {
		if c.inj.Store().CorruptPage(c.dataStart()+(start+j)%c.cache, bit) {
			return true
		}
	}
	return false
}

// chaosProfile scales the probabilistic fault rates inversely with the
// op count so the expected number of injected faults stays constant:
// a short -ops run at the default rates could finish fault-free and
// trip the "no media errors surfaced" assertions spuriously. The cap
// keeps rates well under the bounded-retry resilience — at much higher
// rates, back-to-back transient faults outlast the retries and single
// rows collect latent faults faster than repair can clear them.
func (c *chaosRun) chaosProfile() blockdev.FaultProfile {
	scale := 500 / float64(c.ops)
	return blockdev.FaultProfile{
		TransientProb: math.Min(0.05, 0.01*scale),
		LatentProb:    math.Min(0.05, 0.005*scale),
	}
}

var chaosPlans = []*chaosPlan{
	{
		// Probabilistic latent + transient media errors on the SSD cache:
		// exercises ssdRead retry, recoverHit fallback, and row healing.
		kind: "ssd-latent",
		setup: func(c *chaosRun) {
			c.inj.SetProfile(c.chaosProfile())
		},
		finish: func(c *chaosRun) {
			if c.inj.MediaErrors() == 0 {
				// A short, read-light schedule can dodge the probabilistic
				// profile entirely. Backstop: mark every cache data page
				// latent-bad and re-read the footprint — the first cache
				// hit must trip the media fallback (and heal itself), so a
				// populated cache cannot stay error-free.
				for p := int64(0); p < c.cache; p++ {
					c.inj.InjectBadPage(c.dataStart() + p)
				}
				for _, lba := range c.mdl.Written() {
					c.read(lba)
					if c.inj.MediaErrors() > 0 {
						break
					}
				}
			}
			if c.inj.MediaErrors() == 0 {
				c.violf("ssd-latent: no media errors surfaced")
			}
		},
	},
	{
		// Detectable bit-rot on SSD cache pages (checksummed): reads must
		// fall back to RAID and heal, never serve the rotten bytes.
		kind: "ssd-rot",
		everyOp: func(c *chaosRun, i int) {
			if i%13 == 4 {
				if c.corruptSomeCachePage() {
					c.flips++
				}
			}
		},
		finish: func(c *chaosRun) {
			if c.flips == 0 {
				c.violf("ssd-rot: no corruptions landed")
			}
		},
	},
	{
		// Probabilistic latent + transient faults on two RAID members:
		// the read path must repair single pages from redundancy without
		// declaring the member failed.
		kind: "member-latent",
		setup: func(c *chaosRun) {
			// Latent (erasure-like) faults go to one member only: RAID-5
			// tolerates a single erasure per row, and two latent-faulted
			// members will eventually land persistent bad pages in the
			// same row — a genuine double failure the dedicated
			// "unrecoverable" plan covers deliberately. The second member
			// gets transient faults only, which bounded retries absorb.
			p := c.chaosProfile()
			c.arr.Injector(1).SetProfile(p)
			c.arr.Injector(3).SetProfile(blockdev.FaultProfile{TransientProb: p.TransientProb})
		},
		finish: func(c *chaosRun) {
			for _, d := range []int{1, 3} {
				inj := c.arr.Injector(d)
				// The degraded proof fail-stops one disk on purpose; only a
				// failure NOT caused by the proof means media errors
				// escalated to fail-stop.
				if inj.Failed() && d != c.proofFailed {
					c.violf("member-latent: disk %d was declared failed by media errors", d)
				}
				if c.members[d].Reads() == 0 {
					c.violf("member-latent: disk %d served no reads", d)
				}
			}
			if c.arr.Injector(1).MediaErrors()+c.arr.Injector(3).MediaErrors() == 0 {
				c.violf("member-latent: no media errors surfaced")
			}
		},
	},
	{
		// Detectable bit-rot on member data pages: read-repair or the
		// patrol scrub must reconstruct them from parity.
		kind: "member-rot",
		everyOp: func(c *chaosRun, i int) {
			if i%17 == 6 {
				lba, ok := c.writtenLBA()
				if !ok {
					return
				}
				bit := uint(c.rng.Intn(blockdev.PageSize * 8))
				disk, page := c.arr.DataLocation(lba)
				// RAID-5 tolerates one erasure per row: a second fault in
				// a not-yet-repaired row would be genuinely unrecoverable
				// (the dedicated plan covers that case deliberately).
				if c.flippedRows[page] {
					return
				}
				if c.members[disk].Store().CorruptPage(page, bit) {
					c.flips++
					c.flippedRows[page] = true
				}
			}
		},
		finish: func(c *chaosRun) {
			if c.flips == 0 {
				c.violf("member-rot: no corruptions landed")
			}
			if c.lastScrub.MediaRepaired == 0 && c.arr.Stats().ReadRepairs == 0 {
				c.violf("member-rot: nothing was repaired despite %d corruptions", c.flips)
			}
		},
	},
	{
		// Silent bit-flips on parity pages: invisible to normal reads,
		// only the scrub's parity verification can find and fix them —
		// proven end to end by the degraded re-read afterwards.
		kind: "parity-rot",
		everyOp: func(c *chaosRun, i int) {
			if i%16 == 7 {
				lba, ok := c.writtenLBA()
				if !ok {
					return
				}
				bit := uint(c.rng.Intn(blockdev.PageSize * 8))
				pDisk, _, page := c.arr.ParityLocation(lba)
				if c.members[pDisk].Store().CorruptPageSilently(page, bit) {
					c.flips++
				}
			}
		},
		finish: func(c *chaosRun) {
			if c.flips == 0 {
				c.violf("parity-rot: no corruptions landed")
			}
			if c.lastScrub.ParityFixed == 0 {
				c.violf("parity-rot: scrub fixed no parity despite %d silent flips", c.flips)
			}
		},
	},
	{
		// Torn-write power losses: the crash point fires mid-write and
		// tears the in-flight page; recovery must come back consistent
		// every time, with the interrupted write atomically old or new.
		kind:       "crash-torn",
		rearmCrash: true,
		setup:      func(c *chaosRun) { c.armNext() },
		finish: func(c *chaosRun) {
			if c.crashes == 0 {
				c.violf("crash-torn: no crash fired")
			}
		},
	},
	{
		// Patrol scrub racing the live workload (stale rows, cleaner
		// activity) while both tiers take targeted faults.
		kind: "scrub-race",
		everyOp: func(c *chaosRun, i int) {
			if i%11 == 3 {
				c.inj.InjectTransient(c.cacheDataPage(), 1)
			}
			if i%17 == 5 {
				if lba, ok := c.writtenLBA(); ok {
					disk, page := c.arr.DataLocation(lba)
					if !c.flippedRows[page] &&
						c.members[disk].Store().CorruptPage(page, uint(c.rng.Intn(blockdev.PageSize*8))) {
						c.flips++
						c.flippedRows[page] = true
					}
				}
			}
			if i%40 == 25 {
				_, rep, err := c.arr.Scrub(0)
				if err != nil {
					c.violf("mid-run scrub: %v", err)
					return
				}
				c.res.Repaired += rep.MediaRepaired + rep.ParityFixed
				if len(rep.Unrecoverable) > 0 {
					c.violf("mid-run scrub reported unrecoverable rows %v", rep.Unrecoverable)
				}
			}
		},
	},
	{
		// Fail-stop disk loss mid-workload, then flush (parity update
		// precedes rebuild, §III-E) and rebuild onto a fresh member.
		kind: "fail-rebuild",
		everyOp: func(c *chaosRun, i int) {
			switch i {
			case c.ops / 3:
				c.arr.FailDisk(1)
			case 2 * c.ops / 3:
				if _, err := c.kdd().Flush(0); err != nil {
					c.violf("pre-rebuild flush: %v", err)
					return
				}
				fresh := blockdev.NewNullDataDevice("d1r", c.diskPages)
				if _, err := c.arr.ReplaceDisk(0, 1, fresh); err != nil {
					c.violf("rebuild: %v", err)
				}
			}
		},
		finish: func(c *chaosRun) {
			if len(c.arr.FailedDisks()) != 0 && c.arr.Healthy() {
				c.violf("fail-rebuild: inconsistent failure state")
			}
		},
	},
	{
		// Redundancy exhausted on purpose: both the data page and the
		// parity page of one row go bad. The array must refuse loudly
		// (ErrUnrecoverable) — never serve zeros — and the scrub must
		// report the row instead of patching it.
		kind:              "unrecoverable",
		skipDegradedProof: true,
		finish: func(c *chaosRun) {
			lba := c.footprint / 2
			want, _ := c.mdl.Value(lba)
			if fp := c.mdl.Footprint(); want == nil && len(fp) > 0 {
				// Extremely unlikely with the default footprint, but keep
				// the probe honest: pick the first written lba.
				lba = fp[0]
				want, _ = c.mdl.Value(lba)
			}
			dDisk, dPage := c.arr.DataLocation(lba)
			pDisk, _, pPage := c.arr.ParityLocation(lba)
			c.arr.Injector(dDisk).InjectBadPage(dPage)
			c.arr.Injector(pDisk).InjectBadPage(pPage)
			buf := make([]byte, blockdev.PageSize)
			if _, err := c.arr.ReadPages(0, lba, 1, buf); !errors.Is(err, raid.ErrUnrecoverable) {
				c.violf("double fault read %d: want ErrUnrecoverable, got %v", lba, err)
			}
			_, rep, err := c.arr.Scrub(0)
			if err != nil {
				c.violf("scrub with double fault: %v", err)
				return
			}
			found := false
			for _, row := range rep.Unrecoverable {
				if row == dPage {
					found = true
				}
			}
			if !found {
				c.violf("scrub did not report row %d unrecoverable", dPage)
			}
			c.res.Unrecoverable += len(rep.Unrecoverable)
			// Clear the marks (the stored bytes were never altered) and
			// confirm the array is whole again.
			c.arr.Injector(dDisk).ClearBadPage(dPage)
			c.arr.Injector(pDisk).ClearBadPage(pPage)
			if _, rep, err = c.arr.Scrub(0); err != nil || len(rep.Unrecoverable) != 0 {
				c.violf("post-clear scrub: err=%v unrecoverable=%v", err, rep.Unrecoverable)
			}
			if _, err := c.arr.ReadPages(0, lba, 1, buf); err != nil {
				c.violf("post-clear read %d: %v", lba, err)
			} else if want != nil && !bytes.Equal(buf, want) {
				c.violf("post-clear content mismatch at %d", lba)
			}
		},
	},
	{
		// Whole-SSD fail-stop mid-trace: the cache must fold its stale
		// parity, drop to pass-through, and serve every remaining request
		// from the RAID without a single user-visible error.
		kind: "ssd-kill",
		everyOp: func(c *chaosRun, i int) {
			if i == c.ops/2 {
				c.inj.Fail()
			}
		},
		finish: func(c *chaosRun) {
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-kill: health %v, want bypass", h)
			}
			ks := c.kdd().Stats()
			if ks.Failovers == 0 {
				c.violf("ssd-kill: failover never engaged")
			}
			if ks.PassReads+ks.PassWrites == 0 {
				c.violf("ssd-kill: no pass-through traffic after the kill")
			}
		},
	},
	{
		// SSD dies a handful of device ops into a forced cleaning pass, so
		// the failure lands deep inside a multi-I/O internal path (row
		// cleaning, DEZ commit) rather than neatly between requests.
		kind: "ssd-kill-clean",
		everyOp: func(c *chaosRun, i int) {
			if i == c.ops/2 {
				c.inj.FailAfterOps = c.inj.Ops() + 5
				if _, err := c.kdd().Clean(0, true); err != nil {
					c.violf("ssd-kill-clean: clean surfaced %v", err)
				}
			}
		},
		finish: func(c *chaosRun) {
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-kill-clean: health %v, want bypass", h)
			}
			if c.kdd().Stats().Failovers == 0 {
				c.violf("ssd-kill-clean: failover never engaged")
			}
		},
	},
	{
		// Media-error storm trips the sliding-window breaker into Degraded
		// pass-through; once the storm passes and the bad-page marks are
		// cleared, a half-open probe re-admits traffic and the cache comes
		// back through Rebuilding to Normal. The breaker knobs scale with
		// the schedule length so that the trip, at least one failed probe,
		// and the recovering probe all fit inside even a short run (the
		// storm occupies ops/5..3*ops/5; defaults sized for 1000-op runs
		// would push the first probe past the end of a 200-op schedule).
		kind: "ssd-breaker",
		shape: func(s *spec) {
			s.tune = func(cfg *core.Config) {
				cfg.BreakerWindow = max(4, s.ops/25)
				cfg.BreakerThreshold = max(2, cfg.BreakerWindow/2)
				cfg.BreakerBackoff = int64(max(2, s.ops/50))
				cfg.RebuildProbation = 2
			}
		},
		everyOp: func(c *chaosRun, i int) {
			switch i {
			case c.ops / 5:
				c.inj.SetProfile(blockdev.FaultProfile{LatentProb: 1})
			case 3 * c.ops / 5:
				c.inj.SetProfile(blockdev.FaultProfile{})
				for p := int64(0); p < c.inj.Pages(); p++ {
					c.inj.ClearBadPage(p)
				}
			}
		},
		finish: func(c *chaosRun) {
			ks := c.kdd().Stats()
			if ks.BreakerTrips == 0 {
				c.violf("ssd-breaker: breaker never tripped")
			}
			if ks.BreakerProbes == 0 {
				c.violf("ssd-breaker: no probes ran")
			}
			if h := c.kdd().Health(); h != core.HealthNormal && h != core.HealthRebuilding {
				c.violf("ssd-breaker: health %v after the storm cleared", h)
			}
		},
	},
	{
		// Kill the SSD outright, then repair the medium and re-attach the
		// cache mid-trace; it must warm back up and then survive a second
		// kill (reattach-then-rekill).
		kind: "ssd-reattach",
		everyOp: func(c *chaosRun, i int) {
			switch i {
			case c.ops / 4:
				c.inj.Fail()
			case c.ops / 2:
				if h := c.kdd().Health(); h != core.HealthBypass {
					c.violf("ssd-reattach: health %v before reattach, want bypass", h)
				}
				c.inj.Repair(blockdev.NewNullDataDevice("ssd", 64+c.cache+64))
				if err := c.kdd().Reattach(0, nil); err != nil {
					c.violf("ssd-reattach: %v", err)
				}
			case 3 * c.ops / 4:
				c.inj.Fail()
			}
		},
		finish: func(c *chaosRun) {
			ks := c.kdd().Stats()
			if ks.Reattaches != 1 {
				c.violf("ssd-reattach: %d reattaches, want 1", ks.Reattaches)
			}
			if ks.Failovers < 2 {
				c.violf("ssd-reattach: %d failovers, want 2 (kill + rekill)", ks.Failovers)
			}
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-reattach: health %v after rekill, want bypass", h)
			}
		},
	},
	{
		// Fail-stop a member with a hot spare parked: the pump must fold
		// the pending deltas (§III-E), attach the spare, and pace the
		// rebuild against the live workload until full redundancy returns
		// — all without a single wrong byte served from the half-rebuilt
		// window.
		kind:  "disk-kill",
		shape: func(s *spec) { s.spares = 1 },
		everyOp: func(c *chaosRun, i int) {
			if i == c.ops/3 {
				c.arr.FailDisk(1)
			}
		},
		finish: func(c *chaosRun) {
			t := c.totals()
			if t.SpareAttaches == 0 {
				c.violf("disk-kill: the pump never attached the spare")
			}
			if t.RebuildRows == 0 {
				c.violf("disk-kill: no rebuild rows were pumped under foreground load")
			}
			if c.arr.Stats().RebuildsCompleted == 0 {
				c.violf("disk-kill: rebuild never completed")
			}
			// The degraded proof runs only on a fully redundant array, so
			// proofFailed doubles as the post-rebuild health witness.
			if c.proofFailed < 0 {
				c.violf("disk-kill: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("disk-kill: %d rows lost during a single-failure rebuild", len(lost))
			}
		},
	},
	{
		// Power losses landing inside the rebuild window: the watermark is
		// volatile, so every recovery must resume from the NVRAM checkpoint
		// — restarting from zero is merely slow, but forgetting the window
		// would serve the un-rebuilt region as zeros.
		kind:       "rebuild-crash",
		shape:      func(s *spec) { s.spares = 1 },
		rearmCrash: true,
		everyOp: func(c *chaosRun, i int) {
			switch i {
			case c.ops / 3:
				c.arr.FailDisk(1)
			case c.ops/3 + 5:
				// Arm once the window is open; the 1024-row rebuild spans
				// >120 ops, so this crash deterministically lands inside it.
				if !c.inj.Crashed() {
					c.armNext()
				}
			}
		},
		finish: func(c *chaosRun) {
			if c.crashes == 0 {
				c.violf("rebuild-crash: no crash fired")
			}
			if c.rebuildResumes == 0 {
				c.violf("rebuild-crash: no recovery resumed a rebuild from the checkpoint")
			}
			if c.arr.Stats().RebuildsCompleted == 0 {
				c.violf("rebuild-crash: rebuild never completed across the crashes")
			}
			if c.proofFailed < 0 {
				c.violf("rebuild-crash: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("rebuild-crash: %d rows lost", len(lost))
			}
		},
	},
	{
		// RAID-6 with two hot spares: a second member dies while the first
		// rebuild window is still open. Double redundancy keeps every row
		// reconstructable (two erasures above the watermark); the pump
		// finishes the first rebuild, then attaches the second spare.
		kind:  "double-kill",
		shape: func(s *spec) { s.level, s.disks, s.spares = raid.Level6, 6, 2 },
		everyOp: func(c *chaosRun, i int) {
			switch i {
			case c.ops / 4:
				c.arr.FailDisk(1)
			case c.ops / 3:
				c.secondKillInWindow = c.arr.RebuildActive()
				c.arr.FailDisk(3)
			}
		},
		finish: func(c *chaosRun) {
			if !c.secondKillInWindow {
				c.violf("double-kill: second failure missed the rebuild window")
			}
			if n := c.totals().SpareAttaches; n < 2 {
				c.violf("double-kill: %d spare attaches, want 2", n)
			}
			if n := c.arr.Stats().RebuildsCompleted; n < 2 {
				c.violf("double-kill: %d rebuilds completed, want 2", n)
			}
			if c.proofFailed < 0 {
				c.violf("double-kill: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("double-kill: %d rows lost despite RAID-6 redundancy", len(lost))
			}
		},
	},
	{
		// One lane of the sharded plane loses its slice of the SSD
		// mid-workload. The lane regions are disjoint partitions of the
		// shared device, so a range fail-stop models the death of one
		// die/channel: exactly one lane sees ErrFailed, fails over to
		// pass-through, and keeps serving from the RAID — which always holds
		// current data, because KDD dispatches every write to the array.
		// The other seven lanes must not notice, and no op may surface an
		// error: the fold is lane-scoped. A miss that read-fills into the
		// dead region arms the failover and the lane's next operation
		// completes it; the verify chain's footprint read visits every LBA
		// the lane owns.
		kind: "ssd-lane-kill",
		shape: func(s *spec) {
			s.plane, s.coalesce, s.ways = true, true, 16
			s.batch, s.step, s.pick = 32, sim.Millisecond, uniformDraw
		},
		setup: func(c *chaosRun) {
			// Kill the lane owning a randomly drawn footprint LBA: lanes
			// are a hash of the stripe index, so with a small footprint
			// some own no stripes at all — killing one proves nothing.
			c.killLane = c.plane().LaneOf(uniformDraw(c.rng, c.footprint))
		},
		everyOp: func(c *chaosRun, i int) {
			if i/c.batch == c.batches()/2 {
				// The lane discovers it mid-batch, on its next SSD touch
				// (a hit read, a delta write, a read-fill).
				lanePages := c.cache / shard.Lanes
				c.inj.FailRange(c.dataStart()+int64(c.killLane)*lanePages, lanePages)
			}
		},
		finish: func(c *chaosRun) {
			for lane, k := range c.sub.engines() {
				ls, h := k.Stats(), k.Health()
				pass := ls.PassReads + ls.PassWrites
				if lane != c.killLane {
					if h != core.HealthNormal {
						c.violf("surviving lane %d health %v, want normal", lane, h)
					}
					if pass != 0 {
						c.violf("surviving lane %d served %d ops in pass-through", lane, pass)
					}
					continue
				}
				if h != core.HealthBypass {
					c.violf("killed lane %d health %v, want bypass", lane, h)
				}
				if pass == 0 {
					c.violf("killed lane %d never served in pass-through", lane)
				}
				if ls.Failovers == 0 {
					c.violf("killed lane %d recorded no failover", lane)
				}
			}
		},
	},
}
