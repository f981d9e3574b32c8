package raid

import (
	"errors"
	"fmt"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements the online, resumable member rebuild (§III-E: "if
// a HDD fails, KDD first updates all parity blocks using the parity_update
// interface and then triggers the rebuilding process").
//
// The rebuild is one array-independent sweep — a row watermark, read the
// survivors, write the replacement — in which only the per-row
// reconstruction differs by organisation. The window is part of the
// member layer (Members) both engines embed, and so is the per-row step
// (rebuildRow), which the log uses as it is; the rest of the file is what
// the parity engine adds to it. The window is a per-array state machine:
//
//	(degraded) ──StartRebuild──▶ rebuilding(next=0)
//	rebuilding ──RebuildStep───▶ rebuilding(next+=rows)
//	rebuilding ──next==rows────▶ (healthy)
//	rebuilding ──target fails──▶ (degraded, rebuild abandoned)
//
// Rows below the watermark are fully reconstructed onto the replacement
// device: foreground reads hit it directly and writes maintain its parity
// like any healthy member. Rows at or above the watermark are treated as
// missing — reads reconstruct from the survivors and writes fold into the
// surviving redundancy — even though the replacement device is physically
// readable (it holds unwritten zeros there). The watermark is the single
// source of truth for that routing; see Missing.
//
// The watermark is volatile software state: a power failure forgets it
// (CrashRebuildState) and recovery must resume from the checkpoint the
// cache engine persists in NVRAM (core.Restore → ResumeRebuild). Resuming
// at an older watermark is always safe — re-rebuilding a row writes the
// same bytes.

// RebuildEngine is what an engine hands the member layer it embeds: its
// identity and the hooks in which engines differ. The layer owns the
// members, the failed count, the counters and the tracer itself.
type RebuildEngine struct {
	Name string // device name on rebuild spans
	Pkg  string // error-text prefix

	// Prepare, when non-nil, runs before a window opens on failed member
	// i: whatever the engine owes the survivors first (the parity engine
	// resyncs stale rows; a log owes nothing). An error leaves the member
	// failed and no window open.
	Prepare func(t sim.Time, i int) (sim.Time, error)

	// Live, when non-nil, reports whether anything references row; the
	// sweep passes a dead row without I/O (the replacement's zeros are as
	// good as any content there). Nil means every row is live.
	Live func(row int64) bool

	// Row, when non-nil, reconstructs the target's page at row from the
	// survivors and writes it onto the target. Nil means the parity-row
	// rebuild (rebuildRow).
	Row func(t sim.Time, target int, row int64) (sim.Time, error)

	// Lose, when non-nil, accounts the loss of the pages row holds on the
	// members in disks (a row beyond tolerance); the log maps it onto the
	// logical pages stored there. Nil marks the member pages lost.
	Lose func(row int64, disks uint32)
}

// Missing reports whether member disk's page at row must be treated as
// absent: the device is failed outright, or it is the target of an active
// rebuild and the row is still above the watermark (physically readable,
// but holding unwritten zeros, not data).
func (m *Members) Missing(disk int, row int64) bool {
	if m.disks[disk].Failed() {
		return true
	}
	return m.open && disk == m.disk && row >= m.next
}

// abandonRebuild closes the window because its target died.
func (m *Members) abandonRebuild() {
	m.open = false
	m.stats.RebuildsAborted++
}

// AddSpare parks a hot-spare device for automatic attachment when a
// member fails. The spare must match the member geometry.
func (m *Members) AddSpare(dev blockdev.Device) error {
	if dev.Pages() != m.geo.diskPages {
		return fmt.Errorf("%w: spare size mismatch", ErrBadGeometry)
	}
	m.spares = append(m.spares, dev)
	return nil
}

// SpareCount returns the number of parked hot spares.
func (m *Members) SpareCount() int { return len(m.spares) }

// RebuildActive reports whether a member rebuild is in progress.
func (m *Members) RebuildActive() bool { return m.open }

// RebuildTarget returns the member being rebuilt and its row watermark.
// active is false when no rebuild is running.
func (m *Members) RebuildTarget() (disk int, watermark int64, active bool) {
	if !m.open {
		return 0, 0, false
	}
	return m.disk, m.next, true
}

// StartRebuild swaps failed member i for a fresh device and opens the
// rebuild window at row 0, after the engine's Prepare step — the parity
// engine resynchronises its stale rows there (§III-E: parity_update
// precedes rebuild), so callers need not know the ordering.
func (m *Members) StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	if !m.disks[i].Failed() {
		return t, ErrNotDegraded
	}
	if m.open {
		return t, fmt.Errorf("%s: rebuild of disk %d already in progress", m.eng.Pkg, m.disk)
	}
	if fresh.Pages() != m.geo.diskPages {
		return t, fmt.Errorf("%w: replacement size mismatch", ErrBadGeometry)
	}
	done := t
	if m.eng.Prepare != nil {
		var err error
		if done, err = m.eng.Prepare(t, i); err != nil {
			return t, err
		}
	}
	m.disks[i].Repair(fresh)
	m.noteFailed()
	m.open, m.disk, m.next = true, i, 0
	m.stats.RebuildsStarted++
	return done, nil
}

// StartSpareRebuild attaches a parked hot spare to the lowest-numbered
// failed member and opens its rebuild window. started is false when there
// is nothing to do (no failure, no spare, or a rebuild already running).
func (m *Members) StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error) {
	if m.open || m.failed == 0 || len(m.spares) == 0 {
		return t, false, nil
	}
	target := -1
	for i, d := range m.disks {
		if d.Failed() {
			target = i
			break
		}
	}
	if target < 0 {
		return t, false, nil
	}
	spare := m.spares[0]
	m.spares = m.spares[1:]
	done, err = m.StartRebuild(t, target, spare)
	if err != nil {
		m.spares = append([]blockdev.Device{spare}, m.spares...)
		return t, false, err
	}
	m.stats.SpareAttaches++
	return done, true, nil
}

// ResumeRebuild re-opens a rebuild window after a crash, from the
// checkpoint recovery read out of NVRAM. The checkpoint is written after
// every step, so watermark never exceeds the rows actually reconstructed;
// resuming at an older watermark merely re-rebuilds rows, which is
// idempotent. Resuming onto a member that has since failed (the target
// died before the crash and the checkpoint never caught up) is a no-op:
// the rebuild is dead and a spare attach must start a fresh one. A
// watermark at the end of the member closes the window.
func (m *Members) ResumeRebuild(disk int, watermark int64) error {
	if disk < 0 || disk >= len(m.disks) {
		return fmt.Errorf("%w: rebuild checkpoint names disk %d of %d", ErrBadGeometry, disk, len(m.disks))
	}
	if watermark < 0 || watermark > m.geo.diskPages {
		return fmt.Errorf("%w: rebuild checkpoint watermark %d outside [0,%d]", ErrBadGeometry, watermark, m.geo.diskPages)
	}
	if m.disks[disk].Failed() {
		return nil
	}
	if watermark >= m.geo.diskPages {
		m.open = false
		return nil
	}
	m.open, m.disk, m.next = true, disk, watermark
	return nil
}

// CrashRebuildState models the power-failure loss of the volatile rebuild
// tracker: the watermark lives in array software state, not on any
// device, so a crash forgets it. Rigs call this when simulating a crash;
// recovery must then ResumeRebuild from the NVRAM checkpoint or the
// un-rebuilt region would silently be served as valid zeros.
func (m *Members) CrashRebuildState() { m.open = false }

// RebuildStep reconstructs up to maxRows rows of the active rebuild and
// advances the watermark. It returns the rows swept and whether the
// rebuild completed (also true when none is active). The caller paces
// these steps against foreground traffic (core.RebuildPump), or drains
// them (DrainRebuild).
func (m *Members) RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error) {
	if !m.open {
		return t, 0, true, nil
	}
	if m.tr != nil {
		sp := m.tr.BeginDev(t, obs.PhaseRebuild, m.eng.Name, m.next, maxRows)
		defer func() { sp.End(done) }()
	}
	done = t
	target := m.disk
	for rowsDone < maxRows && m.open && m.next < m.geo.diskPages {
		row := m.next
		if m.eng.Live == nil || m.eng.Live(row) {
			c, err := m.eng.Row(t, target, row)
			if err != nil {
				return done, rowsDone, false, err
			}
			done = sim.MaxTime(done, c)
			t = c // rebuild rows are serialized background work
			m.stats.RebuildBytes += blockdev.PageSize
		}
		m.next = row + 1
		rowsDone++
		m.stats.RebuildRows++
	}
	if m.open && m.next >= m.geo.diskPages {
		m.open = false
		m.stats.RebuildsCompleted++
	}
	return done, rowsDone, !m.open, nil
}

// DrainRebuild runs the open rebuild window (if any) to completion,
// unpaced, in 1024-row steps: ReplaceDisk, a rig's verify backstop, an
// experiment's end of trace.
func (m *Members) DrainRebuild(t sim.Time) (sim.Time, error) {
	done := t
	for m.open {
		c, _, _, err := m.RebuildStep(t, 1024)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// ReplaceDisk swaps member i for a fresh device and rebuilds its contents
// from the survivors, blocking until the rebuild completes (the
// administrative path CLIs use). The engine's Prepare step runs first, so
// on the parity engine stale parity rows are resynchronised automatically
// and rows that cannot be surface as lost pages, not as an error. Online
// callers drive StartRebuild/RebuildStep themselves instead.
func (m *Members) ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	done, err := m.StartRebuild(t, i, fresh)
	if err != nil {
		return t, err
	}
	return m.DrainRebuild(done)
}

// ResyncError reports that a rebuild could not start because stale parity
// rows could not all be resynchronised first (§III-E ordering). It wraps
// ErrNeedResync so existing errors.Is checks keep working, and carries the
// stale-row count the caller would otherwise have to re-derive.
type ResyncError struct {
	StaleRows int   // rows still stale when the resync gave up
	Err       error // first row-level failure
}

func (e *ResyncError) Error() string {
	return fmt.Sprintf("raid: %d stale parity rows could not be resynced before rebuild: %v", e.StaleRows, e.Err)
}

// Unwrap makes errors.Is(err, ErrNeedResync) hold.
func (e *ResyncError) Unwrap() error { return ErrNeedResync }

// LostRows returns the rows holding at least one unrecoverable page, in
// ascending order.
func (a *Array) LostRows() []int64 {
	rows := make([]int64, 0, len(a.lost))
	for r := range a.lost {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

// resyncForRebuild repairs every stale parity row before the rebuild of
// disk i opens. Rows that cannot be resynced because disk i holds their
// data (stale parity + missing data = no reconstruction) get that page
// marked lost; any other failure aborts with a typed ResyncError carrying
// the remaining stale-row count.
func (a *Array) resyncForRebuild(t sim.Time, i int) (sim.Time, error) {
	if a.stale.Len() == 0 {
		return t, nil
	}
	rows := a.stale.AppendTo(make([]int64, 0, a.stale.Len())) // ascending
	done := t
	for _, row := range rows {
		c, err := a.resyncRow(t, row)
		if err == nil {
			done = sim.MaxTime(done, c)
			t = c
			continue
		}
		if err == ErrTooManyFailures || a.rowHasData(i, row) {
			// The failed member holds data of this stale row: its content
			// is gone (the data-loss window §III-E closes by folding
			// parity BEFORE rebuild). Account for it loudly and let the
			// rebuild heal the row to a defined (zero-filled) state.
			a.markLost(i, row)
			a.stale.Remove(row)
			continue
		}
		return t, &ResyncError{StaleRows: a.stale.Len(), Err: err}
	}
	return done, nil
}

// rowHasData reports whether disk i holds a data page (not parity) in row.
func (a *Array) rowHasData(i int, row int64) bool {
	ps, _ := a.geo.rotate(row / a.geo.chunkPages)
	return ps.mask()&(1<<uint(i)) == 0
}

// rebuildMember is the parity engine's Row hook: the layer's rebuildRow
// inside a rebuild-row span.
func (a *Array) rebuildMember(t sim.Time, target int, row int64) (done sim.Time, err error) {
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseRebuildRow, a.Name(), row, 1)
		defer func() { sp.End(done) }()
	}
	return a.rebuildRow(t, target, row)
}

// rebuildRow reconstructs the target member's page at row from the
// survivors and writes it: the window's per-row step for both engines.
func (m *Members) rebuildRow(t sim.Time, target int, row int64) (sim.Time, error) {
	if row >= m.geo.diskPages-m.geo.diskPages%m.geo.chunkPages {
		// Tail rows beyond the last whole chunk carry no logical data;
		// a fresh device already holds zeros there.
		page := pageScratch(m.dataMode)
		defer putScratch(page)
		return m.writeTarget(t, target, row, page)
	}
	rl := m.geo.locateRow(row)
	if m.staleRow(row) || m.pageLost(target, row) {
		// Stale parity or an already-lost target page: heal to a
		// defined state instead of reconstructing. Rows with lost
		// pages on OTHER members only are physically consistent (the
		// loss was healed when their own rebuild passed them) and take
		// the normal path below.
		return m.rebuildDamagedRow(t, target, rl)
	}
	st, c, err := m.decodeRow(t, rl, 0)
	defer st.release()
	if errors.Is(err, ErrUnrecoverable) {
		// A second fault inside the rebuild window — another member
		// failed, or a survivor page is unreadable — and this row's
		// erasures exceed the level's tolerance (RAID-5 with a concurrent
		// fault). Account for every erased page loudly and move on: the
		// surviving members still serve their own pages directly.
		m.lose(row, st.erasedDisks())
		return c, nil
	}
	if err != nil {
		return t, err
	}
	return m.writeTarget(c, target, row, st.page(target))
}

// writeTarget writes the rebuild target's page at row.
func (m *Members) writeTarget(t sim.Time, target int, row int64, page []byte) (sim.Time, error) {
	m.stats.RebuildWrite++
	c, err := m.disks[target].WritePages(t, row, 1, page)
	if err != nil {
		return t, err
	}
	return c, nil
}

// rebuildDamagedRow heals a stale or partially-lost row to a defined
// state: lost data pages are zero-filled, and parity is recomputed from
// the surviving data plus those zeros, so the row becomes internally
// consistent while reads of the lost pages keep failing loudly until
// something overwrites them. A stale row whose target holds parity is the
// benign case — parity is simply recomputed from the (all readable) data.
// Rows damaged beyond the target (a second member also lost pages) are
// left alone — writing anything there would destroy evidence.
func (m *Members) rebuildDamagedRow(t sim.Time, target int, rl rowLoc) (sim.Time, error) {
	targetIsData := rl.mask()&(1<<uint(target)) == 0
	if m.stale.Has(rl.row) && targetIsData {
		// Stale parity cannot reconstruct the target's data: the page is
		// gone (normally already accounted by StartRebuild's resync).
		m.markLost(target, rl.row)
	}
	if m.lost[rl.row]&^(1<<uint(target)) != 0 {
		return t, nil
	}
	par := newParity(rl.np, m.dataMode)
	defer putParity(par)
	tmp := pageScratch(m.dataMode)
	defer putScratch(tmp)
	done := t
	for i, disk := range rl.dataDisks {
		if disk == target {
			continue // lost page: defined as zeros, contributes nothing
		}
		if m.Missing(disk, rl.row) {
			return t, nil // second failure on a damaged row: leave it
		}
		c, err := m.readMember(t, disk, rl.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		encode(par[:], tmp, i)
	}
	// Write the target's page: recomputed parity when it holds P/Q, a
	// defined zero page when its data is lost (a fresh device holds zeros
	// already, but a resumed rebuild may be re-walking the row).
	page := pageScratch(m.dataMode)
	defer putScratch(page)
	for j, d := range rl.par[:rl.np] {
		if d == target {
			page = par[j]
		}
	}
	c, err := m.writeTarget(done, target, rl.row, page)
	if err != nil {
		return t, err
	}
	if done, _, err = m.writeParity(sim.MaxTime(done, c), rl.parity, rl.row, par[:], 1<<uint(target)); err != nil {
		return t, err
	}
	m.stale.Remove(rl.row)
	return done, nil
}
