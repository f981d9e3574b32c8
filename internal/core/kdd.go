// Package core implements KDD — Keeping Data and Deltas in SSD — the
// paper's primary contribution (§III).
//
// The SSD cache is logically split into a Data Zone (DAZ) holding pages
// as first admitted, and a Delta Zone (DEZ) holding compressed XORs of
// updated pages, dynamically mixed within the same set-associative frame.
// On a write hit KDD writes the data to RAID *without* updating parity
// (one disk I/O instead of four), stages the delta in NVRAM, and packs
// staged deltas into DEZ pages when the staging buffer fills. A
// background cleaner repairs stale parities — reconstruct-write when the
// whole row is cached, read-modify-write from decompressed deltas
// otherwise — and reclaims old/delta pages (reclaim scheme 2 by default).
// Cache metadata persists in a circular log on the SSD with NVRAM
// buffering, giving an RPO of zero across power failures.
package core

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/metalog"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// ErrNotCombinable reports a read of an Old page whose delta cannot be
// applied (would indicate a bookkeeping bug; surfaced for tests).
var ErrNotCombinable = errors.New("core: cannot combine old page with delta")

// ErrNoPayload reports a write without page bytes to an engine that
// carries real data (byte-backed SSD and a real codec): there is nothing
// to encode a delta from. Timing-only stacks accept nil buffers.
var ErrNoPayload = errors.New("core: data-mode write without a payload")

// Config assembles a KDD cache instance.
type Config struct {
	SSD     blockdev.Device // cache device (metadata partition + cache pages)
	Backend cache.Backend   // the RAID array

	CachePages int64 // data cache capacity in pages (DAZ+DEZ combined)
	Ways       int   // set associativity

	MetaPages int64 // metadata partition [0, MetaPages) on the SSD (paper: 0.59% of SSD)

	Codec delta.Codec // delta codec (real or modelled)

	StagingBytes int // NVRAM staging buffer capacity in bytes

	// FixedDEZSets reserves the last N sets exclusively for DEZ pages
	// (the static-partition ablation, §III-B); 0 = dynamic mixing.
	FixedDEZSets int

	// ReclaimMaterialize selects reclaim scheme 1 (§III-D): combine
	// old+delta into the latest version and keep it cached as Clean,
	// instead of dropping the old page (scheme 2, the paper's choice).
	ReclaimMaterialize bool

	// DisableMetaLog turns off metadata persistence entirely (ablation
	// baseline: what the cache write traffic looks like with no
	// durability; recovery is impossible in this mode).
	DisableMetaLog bool

	// SharedLog, when non-nil, attaches an externally-owned metadata log
	// instead of creating one over [0, MetaPages). The shard plane uses
	// this so all lanes share one circular partition and one NVRAM buffer.
	// The owner handles sizing and recovery sequencing; this instance's
	// Stats skip the (shared) log counters. A shared log also batches the
	// metadata page flushes: entries still enter the NVRAM buffer
	// immediately (the durability point is unchanged) but flash pages
	// commit at FlushMetaBatch, one barrier per batch instead of one per
	// entry, and the owner keeps the barrier cadence.
	SharedLog *metalog.Log

	// Lane is this instance's index among the lanes sharing SharedLog. It
	// tags the batched metadata appends (the shard tag in the log's page
	// headers) and places the cache data partition: lane i owns SSD pages
	// [MetaPages + i*CachePages, +CachePages), so the lanes tile the cache
	// partition. Zero without a shared log.
	Lane uint8

	// SelectiveAdmission enables a LARC-style ghost-LRU admission filter:
	// pages are cached only on their second miss within a window of
	// CachePages addresses. §V-C lists such filters as complementary to
	// KDD for further reducing allocation writes.
	SelectiveAdmission bool

	// Tracer, when non-nil, records a span for every phase of every
	// operation (obs package). Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// Circuit-breaker knobs for the cache health state machine
	// (failover.go). All are measured in operations, not virtual time:
	// the timing rigs drive every request at t=0, so op counts are the
	// only clock that always advances. Zero selects the default;
	// BreakerWindow < 0 disables the breaker (fail-stop failover still
	// works).
	BreakerWindow    int   // sliding window of SSD read outcomes (default 64)
	BreakerThreshold int   // persistent failures in window that trip (default 32)
	BreakerBackoff   int64 // ops before the first half-open probe (default 64, doubles)
	RebuildProbation int64 // clean ops in Rebuilding before Normal (default 16)
}

// The cleaner thresholds (§III-D): fractions of cache capacity held by
// old+delta pages that start and stop background cleaning. Dirty pages
// may occupy a substantial share of the cache before cleaning kicks in:
// keeping recently-updated pages resident is where KDD's hit-ratio
// advantage over LeavO comes from (and the reason it can beat WT on
// write-hot traces like Web0, §IV-A3).
const (
	highWater = 0.40
	lowWater  = 0.30
)

// withDefaults fills zero fields and validates the configuration. The
// metadata partition's own geometry is metalog.New's to check.
func (c Config) withDefaults() (Config, error) {
	if c.Ways == 0 {
		c.Ways = 256
	}
	if c.StagingBytes == 0 {
		c.StagingBytes = 4 * blockdev.PageSize
	}
	// Breaker defaults are deliberately conservative: half the window must
	// fail before tripping, so the background media-error rates the chaos
	// profiles inject (sub-percent per read) never trigger a failover —
	// only a genuinely sick device does.
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 64
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 32
	}
	if c.BreakerBackoff == 0 {
		c.BreakerBackoff = 64
	}
	if c.RebuildProbation == 0 {
		c.RebuildProbation = 16
	}
	if c.SSD == nil || c.Backend == nil || c.Codec == nil {
		return c, fmt.Errorf("core: SSD, Backend and Codec are required")
	}
	if c.CachePages < int64(c.Ways) {
		return c, fmt.Errorf("core: cache of %d pages below one set", c.CachePages)
	}
	if c.SharedLog != nil && c.DisableMetaLog {
		return c, fmt.Errorf("core: SharedLog conflicts with DisableMetaLog")
	}
	end := c.dataStart() + c.CachePages
	if end > c.SSD.Pages() {
		return c, fmt.Errorf("core: SSD too small: need %d pages, have %d", end, c.SSD.Pages())
	}
	if !c.DisableMetaLog {
		if end > maxMetaAddressable {
			return c, fmt.Errorf("core: SSD cache end page %d exceeds the metadata log's uint32 address space (%d pages); shrink the cache or disable the metadata log", end, maxMetaAddressable)
		}
		if bp := c.Backend.Pages(); bp > maxMetaAddressable {
			return c, fmt.Errorf("core: backend of %d pages exceeds the metadata log's uint32 address space (%d pages); shrink the array or disable the metadata log", bp, maxMetaAddressable)
		}
	}
	return c, nil
}

// dataStart is the first SSD page of the cache data partition.
func (c Config) dataStart() int64 {
	return c.MetaPages + int64(c.Lane)*c.CachePages
}

// oldDelta locates the newest delta of an Old DAZ page. Offsets and
// lengths are at most a page, as in the metadata log's entry encoding.
type oldDelta struct {
	dez    int32 // DEZ slot (when !staged)
	off    uint16
	length uint16
	live   bool // the slot has a delta record (it is Old)
	staged bool // still in the NVRAM staging buffer
	raw    bool
}

// dezPage tracks a DEZ page's occupancy; a tracked page has valid > 0.
type dezPage struct {
	valid int32 // live deltas ("valid count", §III-C)
	used  int32 // bytes consumed
}

// KDD is the cache engine.
type KDD struct {
	cfg     Config
	frame   *cache.Frame
	ssd     blockdev.Device
	backend cache.Backend

	dataStart int64 // first SSD page of the cache data partition

	staging *nvram.Staging
	log     *metalog.Log
	codec   delta.Codec

	// Per-slot side tables, indexed by cache slot like the frame.
	oldDeltas []oldDelta // old DAZ slot -> delta location
	nOld      int        // live records in oldDeltas
	dezPages  []dezPage  // DEZ slot -> occupancy

	// cleaner runs the background repairs: planRows plans them and
	// repairRow repairs one row, idle rows one per idle arrival gap and
	// the rest in cleanPass.
	cleaner cache.Cleaner

	// Scratch reused across calls so the steady state allocates nothing:
	// commitDez's delta offsets, the cleaner's batch plan, its rows' peers
	// and the Old peers it marked, a repaired row's peers, cleanRow's
	// cached/old row peers, parityRMW's LBA list and the page lists the
	// two parity repairs hand the backend. Each is dead once the call that
	// filled it returns (the plan, whose peers repairRow reuses, once its
	// rows are repaired or the next plan replaces it), and
	// none of those calls nests within itself (cleanPass is not
	// re-entrant, commitDez packs only after its cleaning pass).
	dezOffs   []int
	plan      []planRow
	planNext  int // the plan's first row repairRow has not reached
	planPeers []int64
	planSlots []int32
	rowPeers  []int64
	rowCached []peerInfo
	rowOld    []peerInfo
	rmwLBAs   []int64
	rowPages  [][]byte
	// planMark is planBatch's per-slot scratch, zero outside it: 1 on an
	// Old page the plan reclaims, and on a DEZ page the number of its
	// deltas the plan invalidates.
	planMark []int32

	ghost *ghostLRU // nil unless SelectiveAdmission

	// metaErr records a metadata-log failure from a path that cannot
	// return it (eviction, best-effort cleaning); the next top-level
	// operation surfaces and clears it, keeping the RPO-zero claim honest.
	metaErr error

	// Cache health state machine (failover.go).
	health      Health
	opSeq       int64  // top-level operations processed (the breaker's clock)
	breaker     []bool // ring of recent SSD read outcomes (true = failed)
	breakerPos  int
	breakerFill int
	breakerFail int
	tripPending bool  // breaker tripped mid-operation; fail over at next preOp
	deadSSD     bool  // SSD fail-stop observed on a swallowing path
	backoffOps  int64 // current half-open probe backoff (ops)
	probeAfter  int64 // opSeq at which the next probe may run
	rebuildLeft int64 // ops left in Rebuilding probation

	// Member-rebuild pump (rebuild.go) — the RAID rebuild, not the cache
	// health machine's Rebuilding probation above. Nil on a lane: the
	// plane that owns the shared log pumps for all of them.
	pump   *RebuildPump
	fgMark int64 // RAIDReads+RAIDWrites at preOp (foreground-pressure probe)

	st        stats.CacheStats
	dataMode  bool
	sharedLog bool // log belongs to the shard plane, not this instance
	cleaning  bool

	tr *obs.Tracer // nil = tracing disabled
}

// maxMetaAddressable is the page-address ceiling imposed by the metadata
// log's uint32 on-flash encoding (Entry.DazPage / Entry.RaidLBA): 2^32
// pages, i.e. 16 TiB at 4 KiB pages. Geometries beyond it would silently
// truncate recovery metadata.
const maxMetaAddressable = int64(1) << 32

// New builds a KDD cache.
func New(cfg Config) (*KDD, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	log := cfg.SharedLog
	if log == nil && !cfg.DisableMetaLog {
		if log, err = metalog.New(cfg.SSD, cfg.MetaPages); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return newKDD(cfg, log, nil)
}

// newKDD builds an engine around its metadata log (nil when disabled) and
// its NVRAM staging buffer (nil for an empty one): fresh ones from New,
// the crashed instance's from Restore. cfg has been through withDefaults.
func newKDD(cfg Config, log *metalog.Log, staging *nvram.Staging) (*KDD, error) {
	k := &KDD{
		cfg:       cfg,
		frame:     cache.NewFrame(cfg.CachePages, cfg.Ways, cfg.Backend.StripePages()),
		ssd:       cfg.SSD,
		backend:   cfg.Backend,
		dataStart: cfg.dataStart(),
		staging:   staging,
		log:       log,
		sharedLog: cfg.SharedLog != nil,
		codec:     cfg.Codec,
		tr:        cfg.Tracer,
	}
	if k.staging == nil {
		k.staging = nvram.NewStaging(cfg.StagingBytes, k.dataStart, k.frame.Pages())
	}
	k.oldDeltas = make([]oldDelta, k.frame.Pages())
	k.dezPages = make([]dezPage, k.frame.Pages())
	k.planMark = make([]int32, k.frame.Pages())
	// A plan holds at most a batch of rows, their peers and their Old
	// peers: sized up front, it never grows while the cache serves.
	dc := len(cfg.Backend.RowPeers(0))
	k.plan = make([]planRow, 0, cleanerBatch)
	k.planPeers = make([]int64, 0, cleanerBatch*dc)
	k.planSlots = make([]int32, 0, cleanerBatch*dc)
	k.rowPeers = make([]int64, 0, dc)
	k.cleaner = cache.NewCleaner(&k.st.CleanerRuns, cleanerBatch, k.planRows, k.repairRow)
	if cfg.FixedDEZSets > 0 {
		if cfg.FixedDEZSets >= k.frame.Sets() {
			return nil, fmt.Errorf("core: FixedDEZSets %d >= %d sets", cfg.FixedDEZSets, k.frame.Sets())
		}
		k.frame.SetDataSets(k.frame.Sets() - cfg.FixedDEZSets)
	}
	// The plane sets a shared log's tracer, once for all lanes, and paces
	// the rebuild for all of them.
	if !k.sharedLog {
		if log != nil {
			log.SetTracer(cfg.Tracer)
		}
		k.pump = NewRebuildPump(cfg.Backend, log, []*KDD{k}, &k.st)
	}
	if cfg.SelectiveAdmission {
		k.ghost = newGhostLRU(int(cfg.CachePages))
	}
	// Data mode (real pages and real deltas end to end) requires both a
	// byte-backed SSD and a real codec; a modelled codec produces sized
	// placeholders only, even if the SSD could persist bytes (the
	// crash-recovery timing stack uses exactly that combination: real
	// metadata-log bytes, modelled data path).
	if s, ok := cfg.SSD.(blockdev.Storer); ok {
		k.dataMode = s.Store() != nil
	}
	if _, modelled := cfg.Codec.(*delta.Modelled); modelled {
		k.dataMode = false
	}
	return k, nil
}

// Name implements cache.Policy.
func (k *KDD) Name() string {
	if m, ok := k.codec.(*delta.Modelled); ok {
		return fmt.Sprintf("KDD-%d%%", int(m.MeanRatio()*100+0.5))
	}
	return "KDD(" + k.codec.Name() + ")"
}

// Stats implements cache.Policy. Metadata traffic is pulled from the log
// at read time.
func (k *KDD) Stats() *stats.CacheStats {
	if k.log != nil && !k.sharedLog {
		ls := k.log.Stats()
		gc := ls.GCPageEquivalent()
		k.st.MetaWrites = ls.PagesWritten - gc
		k.st.MetaGCWrites = gc
	}
	return &k.st
}

// Frame exposes the slot frame for tests and the harness.
func (k *KDD) Frame() *cache.Frame { return k.frame }

// Staging exposes the NVRAM staging buffer (recovery and tests).
func (k *KDD) Staging() *nvram.Staging { return k.staging }

// Codec returns the delta codec in use (recovery reuses it).
func (k *KDD) Codec() delta.Codec { return k.codec }

// Log exposes the metadata log (recovery and tests); nil when disabled.
func (k *KDD) Log() *metalog.Log { return k.log }

// DirtyPages returns the old+delta page population (the cleaner's gauge).
func (k *KDD) DirtyPages() int64 {
	return k.frame.Count(cache.Old) + k.frame.Count(cache.Delta)
}

// deltaOf returns slot's delta record, if it has one.
func (k *KDD) deltaOf(slot int32) (oldDelta, bool) {
	od := k.oldDeltas[slot]
	return od, od.live
}

// setDelta records (or replaces) slot's delta location.
func (k *KDD) setDelta(slot int32, od oldDelta) {
	if !k.oldDeltas[slot].live {
		k.nOld++
	}
	od.live = true
	k.oldDeltas[slot] = od
}

// dropDelta forgets slot's delta record, if any.
func (k *KDD) dropDelta(slot int32) {
	if k.oldDeltas[slot].live {
		k.nOld--
		k.oldDeltas[slot] = oldDelta{}
	}
}

// cacheLBA maps a slot index to its SSD page.
func (k *KDD) cacheLBA(slot int32) int64 { return k.dataStart + int64(slot) }

// slotOf maps an SSD page back to a slot index (recovery).
func (k *KDD) slotOf(ssdPage int64) int32 { return int32(ssdPage - k.dataStart) }

// stick records a metadata failure for later surfacing; the first error
// wins (later ones are usually consequences of the first).
func (k *KDD) stick(err error) {
	if err != nil && k.metaErr == nil {
		k.metaErr = err
	}
}

// takeSticky returns and clears any recorded metadata failure. Entries
// stay buffered in NVRAM when a flush fails, so once the error has been
// surfaced the log is still coherent and the instance may continue.
func (k *KDD) takeSticky() error {
	err := k.metaErr
	k.metaErr = nil
	return err
}

// logPut appends a metadata entry unless the log is disabled. On a shared
// log the entry reaches NVRAM at once (durability point) and its page
// flush waits for FlushMetaBatch.
func (k *KDD) logPut(t sim.Time, e metalog.Entry) (sim.Time, error) {
	if k.log == nil {
		return t, nil
	}
	if k.sharedLog {
		k.log.PutBuffered(e)
		return t, nil
	}
	return k.log.Put(t, e)
}

// FlushMetaBatch commits this lane's deferred metadata page flushes in
// one barrier (shared-log mode). No-op otherwise.
func (k *KDD) FlushMetaBatch(t sim.Time) (sim.Time, error) {
	if !k.sharedLog {
		return t, nil
	}
	return k.log.FlushBatch(t, k.cfg.Lane)
}

// cleanEntry builds the log record for a Clean DAZ page.
func (k *KDD) cleanEntry(slot int32, lba int64) metalog.Entry {
	return metalog.Entry{
		State:   metalog.StateClean,
		DazPage: uint32(k.cacheLBA(slot)),
		RaidLBA: uint32(lba),
		DezPage: metalog.NoDez,
	}
}

// freeEntry builds the log record for a reclaimed DAZ page.
func (k *KDD) freeEntry(slot int32) metalog.Entry {
	return metalog.Entry{
		State:   metalog.StateFree,
		DazPage: uint32(k.cacheLBA(slot)),
		DezPage: metalog.NoDez,
	}
}

// trimSlot hands a released cache page back to the FTL.
func (k *KDD) trimSlot(t sim.Time, slot int32) {
	if tr, ok := k.ssd.(blockdev.Trimmer); ok {
		tr.TrimPages(t, k.cacheLBA(slot), 1) //nolint:errcheck // advisory
	}
}

// evictClean frees the LRU Clean slot in the set (logging the free
// entry), or returns NoSlot if the set holds no evictable page.
func (k *KDD) evictClean(t sim.Time, set int) int32 {
	s := k.frame.EvictLRU(set, cache.Clean)
	if s == cache.NoSlot {
		return cache.NoSlot
	}
	k.st.Evictions++
	k.frame.Release(s, true)
	k.trimSlot(t, s)
	if _, err := k.logPut(t, k.freeEntry(s)); err != nil {
		k.stick(fmt.Errorf("core: logging eviction of slot %d: %w", s, err))
	}
	return s
}

// allocDAZ finds a slot for a data page: free first, then LRU-clean
// eviction. May trigger the cleaner when the set is pinned solid.
func (k *KDD) allocDAZ(t sim.Time, lba int64) int32 {
	set := k.frame.SetOf(lba)
	if s := k.frame.AllocFree(set); s != cache.NoSlot {
		return s
	}
	if s := k.evictClean(t, set); s != cache.NoSlot {
		return s
	}
	// Set is all old/delta pages: a cleaning trigger ("when the SSD cache
	// is full", §III-B).
	if _, err := k.cleanPass(t, false); err != nil {
		k.stick(fmt.Errorf("core: cleaning on full set: %w", err))
	}
	if s := k.frame.AllocFree(set); s != cache.NoSlot {
		return s
	}
	return k.evictClean(t, set)
}

var _ cache.Policy = (*KDD)(nil)
