package raid

import (
	"errors"
	"fmt"

	"kddcache/internal/bitset"
	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Members is the member layer both array engines embed: the parity
// engine (Array) and the log-structured internal/lsraid, whose physical
// row is exactly a RAID-5 row at one page per chunk. It owns everything
// about the members that does not depend on how an engine maps its
// address space onto them:
//
//   - the fault injectors, the failed-member count and the one place a
//     fail-stop lands (FailDisk — also reached by any ErrFailed that
//     member I/O returns), data mode, the counters and the tracer;
//   - the row primitive (row.go): read a row, decode its erasures, encode
//     and write parity, heal latent pages, and the read, stripe-write,
//     scrub-row and rebuild-row steps built from them;
//   - the rebuild window (rebuild.go): spare queue, watermark, the
//     open/resume/abandon transitions, the sweep and the unpaced drain;
//   - the patrol scrub walk (scrub.go);
//   - the per-member-row state the parity engine's delayed-parity protocol
//     keeps (stale parity rows, pages lost in a rebuild window), which the
//     shared steps gate on. The log never leaves parity stale and maps its
//     losses to logical pages itself (RebuildEngine.Lose), so it leaves
//     both unallocated — empty, and every gate that reads them passes.
type Members struct {
	eng      RebuildEngine
	geo      layout
	disks    []member
	dataMode bool // members carry bytes (parity is byte-accurate)
	failed   int  // count of currently failed members
	stats    Stats
	tr       *obs.Tracer

	// stale marks member rows whose parity is stale (delayed updates);
	// lost maps a member row to the bitmask of members whose page content
	// there is unrecoverable. Such pages read back as ErrUnrecoverable
	// until overwritten. The parity engine allocates both.
	stale bitset.Set
	lost  map[int64]uint32

	// The rebuild window (rebuild.go).
	open   bool
	disk   int   // member being rebuilt
	next   int64 // watermark: rows [0, next) are reconstructed
	spares []blockdev.Device

	// Patrol-scrub progress (scrub.go), last or current pass.
	scrubRow   int64
	scrubTotal int64
}

// member is one member slot: its fault injector, plus the way back to the
// layer, so that every ErrFailed a member operation returns is folded
// into the failed count on the spot.
type member struct {
	*blockdev.FaultInjector
	i int
	m *Members
}

func (d member) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	c, err := d.FaultInjector.ReadPages(t, lba, count, buf)
	d.check(err)
	return c, err
}

func (d member) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	c, err := d.FaultInjector.WritePages(t, lba, count, buf)
	d.check(err)
	return c, err
}

// check routes a fail-stop the device discovered by itself (FailAfterOps,
// a dead region) through FailDisk, like one an operator declared.
func (d member) check(err error) {
	if err != nil && errors.Is(err, blockdev.ErrFailed) {
		d.m.FailDisk(d.i)
	}
}

// NewMembers builds the layer over the engine's member injectors, laid
// out at level with chunkPages pages per chunk. Members must have equal
// capacity; data mode is sniffed from the first.
func NewMembers(eng RebuildEngine, level Level, chunkPages int64, disks []*blockdev.FaultInjector) (*Members, error) {
	pages := disks[0].Pages()
	for _, d := range disks[1:] {
		if d.Pages() != pages {
			return nil, fmt.Errorf("%w: member sizes differ", ErrBadGeometry)
		}
	}
	m := &Members{
		eng: eng,
		geo: layout{level: level, disks: len(disks), chunkPages: chunkPages, diskPages: pages},
	}
	m.disks = make([]member, len(disks))
	for i, d := range disks {
		m.disks[i] = member{FaultInjector: d, i: i, m: m}
	}
	if s, ok := disks[0].Inner().(blockdev.Storer); ok {
		m.dataMode = s.Store() != nil
	}
	if m.eng.Row == nil {
		m.eng.Row = m.rebuildRow
	}
	return m, nil
}

// Disks returns the number of member disks.
func (m *Members) Disks() int { return len(m.disks) }

// Member returns the inner device of member disk i (for inspection by
// tests and tooling; do not issue I/O through it).
func (m *Members) Member(i int) blockdev.Device { return m.disks[i].Inner() }

// Injector returns the fault injector wrapping member disk i, so tests
// and the chaos harness can arm per-page faults, crash points, and
// probabilistic profiles on individual members.
func (m *Members) Injector(i int) *blockdev.FaultInjector { return m.disks[i].FaultInjector }

// DataMode reports whether the members carry real bytes.
func (m *Members) DataMode() bool { return m.dataMode }

// SetTracer installs a span tracer (nil disables tracing).
func (m *Members) SetTracer(tr *obs.Tracer) { m.tr = tr }

// Stats returns a snapshot of operation counters.
func (m *Members) Stats() Stats { return m.stats }

// Counters returns the live counters, for the accounting an engine does
// outside the layer (the log's GC and protocol counters).
func (m *Members) Counters() *Stats { return &m.stats }

// FailDisk marks member disk i as failed. It is also where a fail-stop
// that member I/O discovers lands, so the failed count never goes stale.
// Failing the target of an active rebuild abandons the rebuild: there is
// nothing left to resume onto, and a later spare attach must start over
// from row 0.
func (m *Members) FailDisk(i int) {
	m.disks[i].Fail()
	m.noteFailed()
}

// noteFailed recounts the failed members after a fail-stop or a repair.
func (m *Members) noteFailed() {
	m.failed = 0
	for _, d := range m.disks {
		if d.Failed() {
			m.failed++
		}
	}
	if m.open && m.disks[m.disk].Failed() {
		m.abandonRebuild()
	}
}

// FailedDisks returns the indices of failed members.
func (m *Members) FailedDisks() []int {
	var out []int
	for i, d := range m.disks {
		if d.Failed() {
			out = append(out, i)
		}
	}
	return out
}

// Healthy reports whether no member disk is failed and no rebuild is in
// progress: inside the rebuild window the array still has rows with
// reduced redundancy, so callers (the KDD engine) must stay conservative.
func (m *Members) Healthy() bool { return m.failed == 0 && !m.open }

// Survivable reports whether current failures are within the level's
// tolerance.
func (m *Members) Survivable() bool {
	return m.failed <= m.geo.level.parityDisks()
}

// PublishMetrics writes the member-I/O accounting both engines share into
// reg; each engine adds its own series.
func (m *Members) PublishMetrics(reg *obs.Registry) {
	s := m.stats
	reg.SetCounter("raid_data_reads_total", "Member data-page reads for user requests.", s.DataReads)
	reg.SetCounter("raid_data_writes_total", "Member data-page writes for user requests.", s.DataWrites)
	reg.SetCounter("raid_parity_reads_total", "Parity-page reads (read-modify-write).", s.ParityReads)
	reg.SetCounter("raid_parity_writes_total", "Parity-page writes.", s.ParityWrites)
	reg.SetCounter("raid_rebuild_reads_total", "Member reads issued by rebuild.", s.RebuildReads)
	reg.SetCounter("raid_rebuild_writes_total", "Member writes issued by rebuild.", s.RebuildWrite)
	reg.SetCounter("raid_degraded_reads_total", "Reconstruct-on-read operations.", s.DegradedRead)
	reg.SetCounter("raid_noparity_writes_total", "Writes issued through WriteNoParity.", s.NoParityWr)
	reg.SetCounter("raid_parity_fixes_total", "Deferred parity updates applied.", s.ParityFixes)
	reg.SetCounter("raid_media_errors_total", "Member reads that returned a media error.", s.MediaErrors)
	reg.SetCounter("raid_read_repairs_total", "Pages reconstructed and rewritten in place.", s.ReadRepairs)
	reg.SetCounter("raid_rebuild_rows_done_total", "Member rows reconstructed by the online rebuild.", s.RebuildRows)
	reg.SetCounter("raid_rebuild_bytes_total", "Bytes written onto rebuild targets.", s.RebuildBytes)
	reg.SetCounter("raid_rebuilds_started_total", "Member rebuilds opened.", s.RebuildsStarted)
	reg.SetCounter("raid_rebuilds_completed_total", "Member rebuilds run to completion.", s.RebuildsCompleted)
	reg.SetCounter("raid_rebuilds_aborted_total", "Member rebuilds abandoned because the target died.", s.RebuildsAborted)
	reg.SetCounter("raid_spare_attaches_total", "Hot spares auto-attached to failed members.", s.SpareAttaches)
	reg.SetCounter("raid_lost_pages_total", "Member pages declared unrecoverable.", s.LostPages)
	reg.SetGauge("raid_failed_disks", "Currently failed member disks.", float64(m.failed))
	_, watermark, open := m.RebuildTarget()
	active := 0.0
	if open {
		active = 1
	}
	reg.SetGauge("raid_rebuild_active", "1 while a member rebuild is in progress.", active)
	reg.SetGauge("raid_rebuild_watermark", "Rows of the rebuild target already reconstructed.", float64(watermark))
	reg.SetGauge("raid_spares", "Hot spares currently parked.", float64(len(m.spares)))
	reg.SetGauge("raid_scrub_progress_rows", "Rows scanned by the last/current patrol scrub pass.", float64(m.scrubRow))
	reg.SetGauge("raid_scrub_total_rows", "Rows a full patrol scrub pass covers.", float64(m.scrubTotal))
}

// DataLocation returns the member disk and member-local page holding page
// p of the layout — a parity array's logical page — so tooling (the chaos
// harness, scrub tests) can aim per-member faults at it.
func (m *Members) DataLocation(p int64) (disk int, page int64) {
	l := m.geo.locate(p)
	return l.disk, l.row
}

// ParityLocation returns the member disks holding the P (and, for
// RAID-6, Q) parity of page p's row, plus the member-local page. qDisk is
// -1 on RAID-5.
func (m *Members) ParityLocation(p int64) (pDisk, qDisk int, page int64) {
	l := m.geo.locate(p)
	return l.par[0], l.par[1], l.row
}

// Holes counts the members missing at row (failed, or a rebuild target
// above its watermark): every member holds a page of every row.
func (m *Members) Holes(row int64) int {
	n := 0
	for d := range m.disks {
		if m.Missing(d, row) {
			n++
		}
	}
	return n
}

// staleRow reports whether row's parity is stale (never, on a log).
func (m *Members) staleRow(row int64) bool { return m.stale.Len() > 0 && m.stale.Has(row) }

// pageLost reports whether the content of disk's page at row has been
// lost (redundancy exhausted during a rebuild window). Lost pages are
// served loudly as ErrUnrecoverable until something overwrites them.
func (m *Members) pageLost(disk int, row int64) bool {
	return m.lost[row]&(1<<uint(disk)) != 0
}

// clearLost drops the lost mark for one page (it was just overwritten).
func (m *Members) clearLost(disk int, row int64) {
	if l, ok := m.lost[row]; ok {
		l &^= 1 << uint(disk)
		if l == 0 {
			delete(m.lost, row)
		} else {
			m.lost[row] = l
		}
	}
}

// markLost records that disk's page at row is unrecoverable.
func (m *Members) markLost(disk int, row int64) {
	if !m.pageLost(disk, row) {
		m.lost[row] |= 1 << uint(disk)
		m.stats.LostPages++
	}
}

// lose accounts the loss of the pages row holds on the members in disks:
// the engine's mapping when it has one, the member-row marks otherwise.
func (m *Members) lose(row int64, disks uint32) {
	if m.eng.Lose != nil {
		m.eng.Lose(row, disks)
		return
	}
	for d := range m.disks {
		if disks&(1<<uint(d)) != 0 {
			m.markLost(d, row)
		}
	}
}

// pageScratch returns a zeroed page buffer in data mode or nil in timing
// mode. The buffer comes from the shared page pool; callers hand it back
// via putScratch when it dies (putScratch tolerates nil).
func pageScratch(data bool) []byte {
	if !data {
		return nil
	}
	return blockdev.GetZeroPage()
}

// putScratch returns a pageScratch buffer to the pool.
func putScratch(b []byte) { blockdev.PutPage(b) }
