// Package lsraid is the log-structured array engine behind the
// raidiface.Array seam: the modern answer to the small-write problem the
// paper's KDD cache attacks with delayed parity. Instead of updating
// parity in place (read-modify-write, or KDD's delta-deferred variant),
// every write is staged into an NVRAM row buffer and flushed as full
// stripe appends into the open segment — data pages plus freshly computed
// parity, no parity reads ever. Overwrites simply make the old physical
// page dead; a segment garbage collector copies surviving pages forward
// and reclaims dead segments (greedy victim selection, after
// LFS/RAID-on-ZNS practice, arxiv 2402.17963).
//
// Flush rule: the row buffer is flushed a segment at a time, as LFS
// writes a whole segment per pass. A write that leaves fewer than
// SegmentPages (SegRows × data members) pages staged costs no member I/O;
// a rewrite of a staged page replaces it in NVRAM. The write that stages
// the segment's last page commits every full row, each issued at the
// previous row's completion, so each member writes the flush as one
// sequential run.
//
// NVRAM ack: battery-backed NVRAM is durable on arrival, so every write
// returns when its page enters NVRAM, the filling write included; the
// flush runs behind the ack, as KDD's DEZ commit does. A flushed row's
// host pages still hold NVRAM until the row's member writes complete.
// NVRAM is double-buffered: it holds two segments of host pages
// (nvSegs), so the next segment fills while the one before it flushes,
// and its filling write flushes it behind that one. A host write that
// finds two segments' worth of host pages staged or in flight waits
// until the oldest in-flight row lands; the flush it triggers starts
// then. So host pages staged plus in flight never exceed 2 ×
// SegmentPages — 256 pages or 1 MiB at the harness geometry (32 rows
// over five members) — plus, during a GC pass, the victim's live pages,
// which have their own allowance. (The KDD cache's own NVRAM staging is
// 16 KiB.) A page still in flight is read from the members.
//
// Durability model, matching the repo's NVRAM conventions: the segment
// summaries, the L2P-relevant metadata, and the staged row buffer live in
// battery-backed NVRAM (plain fields on the same instance the rig keeps
// across a simulated power loss). The derived lookup state — the L2P map,
// per-segment live counts, the free list — is volatile and is rebuilt by
// replaying the summaries when CrashRebuildState fires, exactly where the
// parity engine forgets its rebuild watermark.
//
// Crash ordering: a row flush writes member data pages, then parity, and
// only then commits the NVRAM metadata (summary append + mapping flip +
// row buffer clear). A crash anywhere mid-flush leaves the staged pages
// in NVRAM — all but the in-flight write's own, which its failed call
// takes back out — so reads resolve to the acked values (served
// NVRAM-first) and the next flush rewrites the same physical row from
// scratch. Torn member pages can only exist in row slots the metadata
// never referenced.
package lsraid

import (
	"errors"
	"fmt"

	"kddcache/internal/bitset"
	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/sim"
)

// Errors specific to the log-structured engine. Array-level conditions
// shared with the parity engine (too many failures, unrecoverable pages,
// bad geometry) reuse the internal/raid taxonomy so callers' errors.Is
// checks work unchanged across backends.
var (
	// ErrNoSpace means the log ran out of free segments and GC could not
	// reclaim any: the logical capacity bound was violated (a bug — New
	// enforces enough over-provisioning for GC to always make progress).
	ErrNoSpace = errors.New("lsraid: no free segments (over-provisioning exhausted)")
)

// reserveSegs is the free-segment low watermark that triggers GC (and the
// headroom copy-forward may consume mid-collection).
const reserveSegs = 2

// nvSegs is the NVRAM allowance for host pages, staged or in flight, in
// segments: double buffering, one segment filling while the previous one
// flushes. With a single segment a host write could not enter while a
// whole flush was in flight, so writers paced the flush row by row.
const nvSegs = 2

// Config sizes the log-structured array.
type Config struct {
	// ChunkPages is the logical chunk size used for the stripe-geometry
	// surface (StripePages, RowPeers, StripeOf). The cache layers align
	// sets and delta batches to it; it does not constrain the physical
	// log layout. Default 4.
	ChunkPages int64
	// SegRows is the number of member rows per segment. Default 32.
	SegRows int64
	// LogicalPages is the exported capacity. It must leave enough
	// physical headroom for GC to always find a victim with dead pages:
	// at most (segments - reserve - 2) * segment data pages. Default is
	// 3/4 of the physical data capacity, clamped to that bound.
	LogicalPages int64
	// Seed seeds the member fault injectors.
	Seed uint64
}

// phys is a physical page address: a committed slot in a segment.
// idx = rowInSeg*(disks-1) + slot, in summary order.
type phys struct {
	seg int32
	idx int32
}

// noPhys is the L2P entry of a logical page with no live committed copy.
var noPhys = phys{seg: -1, idx: -1}

// segMeta is one segment's NVRAM summary: its allocation sequence number
// (0 = free), how many rows are committed, and the logical LBA of every
// committed data page in write order. It is what replay rebuilds the L2P
// map from, and what the binary summary codec (summary.go) serialises.
// LBAs is allocated once, at capacity segPages, when ensureOpen first
// opens the segment, and freeVictim truncates it for reuse, so a
// commit never regrows it; a segment never opened holds none.
type segMeta struct {
	Seq  uint64
	Rows int64
	LBAs []int64
}

// pending is one staged page in the NVRAM row buffer.
//
// Ownership: in data mode, data is a blockdev.GetPage buffer the row
// buffer owns from the moment stage stages it — a copy of a host
// page, or the page GC's sweep read a live copy into. It goes back to
// the pool when a newer write of the same LBA replaces it in place, when
// a failed flush takes it back out (unstage), and at the NVRAM commit of
// its row, after the member writes have copied it; nothing else may keep
// a reference to it: readers copy out, member devices copy in. collect's
// sweep list uses the same type for the pages it has read and not yet
// handed over.
type pending struct {
	lba  int64
	data []byte // nil in timing mode
	gc   bool   // a GC copy-forward, outside the host pages' NVRAM bound
}

// landing is a committed row whose member writes are still in flight in
// virtual time: its host pages hold NVRAM until done.
type landing struct {
	done sim.Time
	host int64
}

// Array is a log-structured parity array over member block devices. It
// satisfies raidiface.Array and cache.Backend.
//
// Its physical row is a RAID-5 row at one page per chunk — data slot k of
// row r is data index k of stripe r of a Level-5 layout, parity rotating
// per row — so the member layer both engines embed (raid.Members) serves
// every member read, stripe write, decode, heal, scrub row and rebuild
// row here. What the log adds is what only a log knows: where a
// logical page lives (the segments and the L2P map), which rows are live
// (segRowCommitted), and which logical pages a lost member page takes
// with it (lose).
type Array struct {
	*raid.Members
	cfg      Config
	segPages int64 // data pages per segment: SegRows * (disks-1)
	numSegs  int64
	logical  int64

	// NVRAM-durable state (survives CrashRebuildState).
	nextSeq uint64
	segs    []segMeta
	open    int32 // open segment index; -1 when none
	// The staged pages are the queue rowBuf[rowHead:]; entries before
	// rowHead belong to committed rows and wait for compactRowBuf.
	rowBuf  []pending
	rowHead int
	lost    bitset.Set // logical pages declared unrecoverable

	// Volatile state, rebuilt by replay(). The logical address space is
	// dense and bounded, so the two lookups are flat tables over
	// [0, logical), allocated once: l2p maps a page to its live committed
	// copy and holds noPhys for a page without one — never written, staged
	// in NVRAM, or lost (mapped counts the others); pendingIdx holds 0 for
	// a page that is not staged and its position in rowBuf plus one
	// otherwise (compactRowBuf rewrites the entries it moves).
	l2p        []phys
	mapped     int64
	live       []int32
	freeCount  int64
	pendingIdx []int32
	inGC       bool
	sweep      []pending // collect's live-page list, reused across collections

	// NVRAM occupancy in virtual time (admit): the host pages staged,
	// and the committed rows still in flight, oldest first, in a ring of
	// nvSegs*segPages slots with the running count of their host pages.
	stagedHost int64
	flying     []landing
	flyHead    int
	flyLen     int
	flyingHost int64
}

// New builds a log-structured array over the member devices, wrapping
// each in a fault injector seeded from cfg.Seed.
func New(cfg Config, members []blockdev.Device) (*Array, error) {
	n := len(members)
	if n < 3 {
		return nil, fmt.Errorf("%w: log-structured RAID needs >=3 disks", raid.ErrBadGeometry)
	}
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = 4
	}
	if cfg.SegRows <= 0 {
		cfg.SegRows = 32
	}
	a := &Array{cfg: cfg, open: -1}
	disks := make([]*blockdev.FaultInjector, n)
	for i, m := range members {
		disks[i] = blockdev.NewFaultInjector(m, cfg.Seed^uint64(i))
	}
	// The log owes no parity, so there is no Prepare step, and its rows
	// are the layer's parity rows, so the parity-row rebuild is its Row.
	// Only committed rows carry meaning, so the sweep reconstructs exactly
	// those — a mostly-empty log rebuilds in proportion to its live data,
	// not its raw capacity.
	var err error
	a.Members, err = raid.NewMembers(raid.RebuildEngine{
		Name: a.Name(), Pkg: "lsraid",
		Live: a.segRowCommitted, Lose: a.lose,
	}, raid.Level5, 1, disks)
	if err != nil {
		return nil, err
	}
	pages := members[0].Pages()
	a.numSegs = pages / cfg.SegRows
	a.segPages = cfg.SegRows * int64(n-1)
	maxLogical := (a.numSegs - reserveSegs - 2) * a.segPages
	if maxLogical <= 0 {
		return nil, fmt.Errorf("%w: %d segments of %d rows leave no logical capacity", raid.ErrBadGeometry, a.numSegs, cfg.SegRows)
	}
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = a.numSegs * a.segPages * 3 / 4
	}
	if cfg.LogicalPages > maxLogical {
		cfg.LogicalPages = maxLogical
	}
	a.cfg, a.logical = cfg, cfg.LogicalPages
	a.segs = make([]segMeta, a.numSegs)
	a.l2p = make([]phys, a.logical)
	a.pendingIdx = make([]int32, a.logical)
	a.lost = bitset.New(a.logical)
	a.flying = make([]landing, nvSegs*a.segPages)
	a.replay() // of an empty log: nothing mapped, nothing live, every segment free
	return a, nil
}

// --- identity and geometry ---------------------------------------------

// Name returns the engine name shown in traces and tables.
func (a *Array) Name() string { return "lsraid" }

// Pages returns the logical capacity.
func (a *Array) Pages() int64 { return a.logical }

// SegmentPages returns the data pages of one segment: the unit the
// NVRAM row buffer flushes in.
func (a *Array) SegmentPages() int64 { return a.segPages }

// ChunkPages returns the logical chunk size.
func (a *Array) ChunkPages() int64 { return a.cfg.ChunkPages }

// StripePages returns logical pages per stripe. The arithmetic matches a
// parity array of the same width, so cache-set alignment, delta batching
// and the differential battery's digests line up across backends.
func (a *Array) StripePages() int64 { return a.cfg.ChunkPages * int64(a.dc()) }

// StripeOf returns the stripe number holding the logical page.
func (a *Array) StripeOf(lba int64) int64 { return lba / a.StripePages() }

// RowPeers returns the logical LBAs sharing a parity row with lba in the
// logical geometry (one page per data chunk at the same chunk offset),
// in data-chunk order — same arithmetic as the parity engine.
func (a *Array) RowPeers(lba int64) []int64 {
	return a.AppendRowPeers(make([]int64, 0, a.dc()), lba)
}

// AppendRowPeers appends RowPeers(lba) to dst without allocating when dst
// has room (cache.PeerAppender).
func (a *Array) AppendRowPeers(dst []int64, lba int64) []int64 {
	sp := a.StripePages()
	stripe, within := lba/sp, lba%sp
	pic := within % a.cfg.ChunkPages
	for i := 0; i < a.dc(); i++ {
		dst = append(dst, stripe*sp+int64(i)*a.cfg.ChunkPages+pic)
	}
	return dst
}

// DataLocation returns where lba's data currently lives: the member disk
// and member-local page of its live committed copy. A page still staged
// in NVRAM (or never written, or lost) has no physical home; (-1, -1)
// says so, and fault-aiming tooling must skip it.
func (a *Array) DataLocation(lba int64) (disk int, page int64) {
	ph, ok := a.committed(lba)
	if !ok {
		return -1, -1
	}
	return a.Members.DataLocation(a.physPage(ph))
}

// ParityLocation returns the member holding the parity of lba's current
// physical row (qDisk is always -1: single parity). Like DataLocation it
// reports -1 for pages with no committed physical home.
func (a *Array) ParityLocation(lba int64) (pDisk, qDisk int, page int64) {
	ph, ok := a.committed(lba)
	if !ok {
		return -1, -1, -1
	}
	return a.Members.ParityLocation(a.physPage(ph))
}

// committed returns lba's live committed copy, if it has one. Pages
// outside the logical space have none.
func (a *Array) committed(lba int64) (phys, bool) {
	if lba < 0 || lba >= a.logical {
		return noPhys, false
	}
	ph := a.l2p[lba]
	return ph, ph != noPhys
}

// setCommitted points lba's mapping at ph (noPhys unmaps it).
func (a *Array) setCommitted(lba int64, ph phys) {
	if a.l2p[lba] != noPhys {
		a.mapped--
	}
	if ph != noPhys {
		a.mapped++
	}
	a.l2p[lba] = ph
}

// unmap drops lba's committed copy, if it has one: it is no longer live.
func (a *Array) unmap(lba int64) {
	if ph, ok := a.committed(lba); ok {
		a.live[ph.seg]--
		a.setCommitted(lba, noPhys)
	}
}

// --- physical layout ----------------------------------------------------

// dc returns data pages per physical row.
func (a *Array) dc() int { return a.Disks() - 1 }

// physPage returns ph as a page of the member layer's layout: the data
// slot in row order, row*(disks-1) + slot.
func (a *Array) physPage(ph phys) int64 { return int64(ph.seg)*a.segPages + int64(ph.idx) }

// LostRows returns the logical pages declared unrecoverable, sorted.
// (The parity engine reports member rows; here the log's physical rows
// move under GC, so the stable name for a loss is the logical page.)
func (a *Array) LostRows() []int64 {
	return a.lost.AppendTo(make([]int64, 0, a.lost.Len()))
}

// --- parity-protocol surface (no-ops: the log never owes parity) --------

// StaleRows is always zero: every committed row was written whole with
// fresh parity, and uncommitted rows are unreferenced.
func (a *Array) StaleRows() int { return 0 }

// ParityUpdateDelta is a no-op: WriteNoParity already wrote full stripes
// with parity, so there is no debt for the cleaner to repay.
func (a *Array) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	return t, nil
}

// ParityUpdateDeltaBatch is a no-op (see ParityUpdateDelta).
func (a *Array) ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error) {
	return t, nil
}

// ParityUpdateReconstruct is a no-op (see ParityUpdateDelta).
func (a *Array) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	return t, nil
}

// ResyncRow is a no-op: parity is never stale.
func (a *Array) ResyncRow(t sim.Time, lba int64) (sim.Time, error) { return t, nil }

// Resync is a no-op: parity is never stale.
func (a *Array) Resync(t sim.Time) (sim.Time, error) { return t, nil }

// PublishMetrics writes the engine's accounting into reg: the member
// layer's series, which the parity engine publishes under the same names
// so dashboards compare backends directly, plus the log's own.
func (a *Array) PublishMetrics(reg *obs.Registry) {
	a.Members.PublishMetrics(reg)
	s := a.Stats()
	reg.SetCounter("lsraid_gc_copies_total", "Live pages copied forward by segment GC.", s.GCCopies)
	reg.SetCounter("lsraid_gc_segments_total", "Segments reclaimed by GC.", s.GCSegments)
	reg.SetGauge("lsraid_free_segments", "Segments currently free.", float64(a.freeCount))
	reg.SetGauge("lsraid_pending_pages", "Pages staged in the NVRAM row buffer.", float64(len(a.staged())))
}

// Compile-time check: the log-structured engine satisfies the seam.
var _ raidiface.Array = (*Array)(nil)
