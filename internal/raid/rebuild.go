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
// reconstruction differs by organisation. RebuildWindow is that sweep,
// embedded by this package's Array and by the log-structured
// internal/lsraid; the rest of the file is what the parity engine
// supplies to it. The window is a per-array state machine:
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

// RebuildEngine is what an array hands the window it embeds: its
// identity, the member state the window reads and updates, and the hooks
// in which engines differ.
type RebuildEngine struct {
	Name string // device name on rebuild spans
	Pkg  string // error-text prefix

	Disks     []*blockdev.FaultInjector // the array's members
	DiskPages int64                     // rows per member
	Failed    *int                      // the array's failed-member count
	Stats     *Stats
	Tracer    **obs.Tracer // the array's tracer field (SetTracer replaces it)

	// Prepare, when non-nil, runs before a window opens on failed member
	// i: whatever the engine owes the survivors first (the parity engine
	// resyncs stale rows; a log owes nothing). An error leaves the member
	// failed and no window open.
	Prepare func(t sim.Time, i int) (sim.Time, error)

	// Live, when non-nil, reports whether anything references row; the
	// sweep passes a dead row without I/O (the replacement's zeros are as
	// good as any content there). Nil means every row is live.
	Live func(row int64) bool

	// Row reconstructs the target's page at row from the survivors and
	// writes it onto the target.
	Row func(t sim.Time, target int, row int64) (sim.Time, error)
}

// RebuildWindow is the engine-independent shell of the member rebuild:
// the hot-spare queue, the window's open/resume/abandon transitions and
// the watermark sweep. Arrays embed it, which is how they satisfy the
// rebuild surface of raidiface.Array.
type RebuildWindow struct {
	eng    RebuildEngine
	open   bool
	disk   int   // member being rebuilt
	next   int64 // watermark: rows [0, next) are reconstructed
	spares []blockdev.Device
}

// NewRebuildWindow returns a closed window over the engine's members.
func NewRebuildWindow(eng RebuildEngine) RebuildWindow { return RebuildWindow{eng: eng} }

// Missing reports whether member disk's page at row must be treated as
// absent: the device is failed outright, or it is the target of an active
// rebuild and the row is still above the watermark (physically readable,
// but holding unwritten zeros, not data).
func (w *RebuildWindow) Missing(disk int, row int64) bool {
	if w.eng.Disks[disk].Failed() {
		return true
	}
	return w.open && disk == w.disk && row >= w.next
}

// FailDisk marks member disk i as failed. Failing the target of an
// active rebuild abandons the rebuild: there is nothing left to resume
// onto, and a later spare attach must start over from row 0.
func (w *RebuildWindow) FailDisk(i int) {
	if !w.eng.Disks[i].Failed() {
		w.eng.Disks[i].Fail()
		*w.eng.Failed++
		if w.open && w.disk == i {
			w.AbandonRebuild()
		}
	}
}

// AbandonRebuild closes the window because its target died.
func (w *RebuildWindow) AbandonRebuild() {
	w.open = false
	w.eng.Stats.RebuildsAborted++
}

// AddSpare parks a hot-spare device for automatic attachment when a
// member fails. The spare must match the member geometry.
func (w *RebuildWindow) AddSpare(dev blockdev.Device) error {
	if dev.Pages() != w.eng.DiskPages {
		return fmt.Errorf("%w: spare size mismatch", ErrBadGeometry)
	}
	w.spares = append(w.spares, dev)
	return nil
}

// SpareCount returns the number of parked hot spares.
func (w *RebuildWindow) SpareCount() int { return len(w.spares) }

// RebuildActive reports whether a member rebuild is in progress.
func (w *RebuildWindow) RebuildActive() bool { return w.open }

// RebuildTarget returns the member being rebuilt and its row watermark.
// active is false when no rebuild is running.
func (w *RebuildWindow) RebuildTarget() (disk int, watermark int64, active bool) {
	if !w.open {
		return 0, 0, false
	}
	return w.disk, w.next, true
}

// StartRebuild swaps failed member i for a fresh device and opens the
// rebuild window at row 0, after the engine's Prepare step — the parity
// engine resynchronises its stale rows there (§III-E: parity_update
// precedes rebuild), so callers need not know the ordering.
func (w *RebuildWindow) StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	if !w.eng.Disks[i].Failed() {
		return t, ErrNotDegraded
	}
	if w.open {
		return t, fmt.Errorf("%s: rebuild of disk %d already in progress", w.eng.Pkg, w.disk)
	}
	if fresh.Pages() != w.eng.DiskPages {
		return t, fmt.Errorf("%w: replacement size mismatch", ErrBadGeometry)
	}
	done := t
	if w.eng.Prepare != nil {
		var err error
		if done, err = w.eng.Prepare(t, i); err != nil {
			return t, err
		}
	}
	w.eng.Disks[i].Repair(fresh)
	*w.eng.Failed--
	w.open, w.disk, w.next = true, i, 0
	w.eng.Stats.RebuildsStarted++
	return done, nil
}

// StartSpareRebuild attaches a parked hot spare to the lowest-numbered
// failed member and opens its rebuild window. started is false when there
// is nothing to do (no failure, no spare, or a rebuild already running).
func (w *RebuildWindow) StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error) {
	if w.open || *w.eng.Failed == 0 || len(w.spares) == 0 {
		return t, false, nil
	}
	target := -1
	for i, d := range w.eng.Disks {
		if d.Failed() {
			target = i
			break
		}
	}
	if target < 0 {
		return t, false, nil
	}
	spare := w.spares[0]
	w.spares = w.spares[1:]
	done, err = w.StartRebuild(t, target, spare)
	if err != nil {
		w.spares = append([]blockdev.Device{spare}, w.spares...)
		return t, false, err
	}
	w.eng.Stats.SpareAttaches++
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
func (w *RebuildWindow) ResumeRebuild(disk int, watermark int64) error {
	if disk < 0 || disk >= len(w.eng.Disks) {
		return fmt.Errorf("%w: rebuild checkpoint names disk %d of %d", ErrBadGeometry, disk, len(w.eng.Disks))
	}
	if watermark < 0 || watermark > w.eng.DiskPages {
		return fmt.Errorf("%w: rebuild checkpoint watermark %d outside [0,%d]", ErrBadGeometry, watermark, w.eng.DiskPages)
	}
	if w.eng.Disks[disk].Failed() {
		return nil
	}
	if watermark >= w.eng.DiskPages {
		w.open = false
		return nil
	}
	w.open, w.disk, w.next = true, disk, watermark
	return nil
}

// CrashRebuildState models the power-failure loss of the volatile rebuild
// tracker: the watermark lives in array software state, not on any
// device, so a crash forgets it. Rigs call this when simulating a crash;
// recovery must then ResumeRebuild from the NVRAM checkpoint or the
// un-rebuilt region would silently be served as valid zeros.
func (w *RebuildWindow) CrashRebuildState() { w.open = false }

// RebuildStep reconstructs up to maxRows rows of the active rebuild and
// advances the watermark. It returns the rows swept and whether the
// rebuild completed (also true when none is active). The caller paces
// these steps against foreground traffic (the KDD engine's token bucket,
// or a driver loop).
func (w *RebuildWindow) RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error) {
	if !w.open {
		return t, 0, true, nil
	}
	if tr := *w.eng.Tracer; tr != nil {
		sp := tr.BeginDev(t, obs.PhaseRebuild, w.eng.Name, w.next, maxRows)
		defer func() { sp.End(done) }()
	}
	done = t
	target := w.disk
	for rowsDone < maxRows && w.open && w.next < w.eng.DiskPages {
		row := w.next
		if w.eng.Live == nil || w.eng.Live(row) {
			c, err := w.eng.Row(t, target, row)
			if err != nil {
				return done, rowsDone, false, err
			}
			done = sim.MaxTime(done, c)
			t = c // rebuild rows are serialized background work
			w.eng.Stats.RebuildBytes += blockdev.PageSize
		}
		w.next = row + 1
		rowsDone++
		w.eng.Stats.RebuildRows++
	}
	if w.open && w.next >= w.eng.DiskPages {
		w.open = false
		w.eng.Stats.RebuildsCompleted++
	}
	return done, rowsDone, !w.open, nil
}

// PublishRebuildGauges writes the window's gauges into reg.
func (w *RebuildWindow) PublishRebuildGauges(reg *obs.Registry) {
	_, watermark, open := w.RebuildTarget()
	active := 0.0
	if open {
		active = 1
	}
	reg.SetGauge("raid_rebuild_active", "1 while a member rebuild is in progress.", active)
	reg.SetGauge("raid_rebuild_watermark", "Rows of the rebuild target already reconstructed.", float64(watermark))
	reg.SetGauge("raid_spares", "Hot spares currently parked.", float64(len(w.spares)))
}

// ReplaceDisk swaps member i for a fresh device and rebuilds its contents
// from the survivors, blocking until the rebuild completes (the
// administrative path CLIs use). The engine's Prepare step runs first, so
// on the parity engine stale parity rows are resynchronised automatically
// and rows that cannot be surface as lost pages, not as an error. Online
// callers drive StartRebuild/RebuildStep themselves instead.
func (w *RebuildWindow) ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	done, err := w.StartRebuild(t, i, fresh)
	if err != nil {
		return t, err
	}
	t = done
	for w.open {
		c, _, _, err := w.RebuildStep(t, 1024)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
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

// pageLost reports whether the logical content of disk's page at row has
// been lost (redundancy exhausted during a rebuild window). Lost pages are
// served loudly as ErrUnrecoverable until something overwrites them.
func (a *Array) pageLost(disk int, row int64) bool {
	return a.lost[row]&(1<<uint(disk)) != 0
}

// clearLost drops the lost mark for one page (it was just overwritten).
func (a *Array) clearLost(disk int, row int64) {
	if m, ok := a.lost[row]; ok {
		m &^= 1 << uint(disk)
		if m == 0 {
			delete(a.lost, row)
		} else {
			a.lost[row] = m
		}
	}
}

// markLost records that disk's page at row is unrecoverable.
func (a *Array) markLost(disk int, row int64) {
	if !a.pageLost(disk, row) {
		a.lost[row] |= 1 << uint(disk)
		a.stats.LostPages++
	}
}

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

// rebuildRow reconstructs the target member's page at row and writes it.
func (a *Array) rebuildRow(t sim.Time, target int, row int64) (done sim.Time, err error) {
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseRebuildRow, a.Name(), row, 1)
		defer func() { sp.End(done) }()
	}
	dataMode := a.dataMode()
	var page []byte

	switch a.cfg.Level {
	case Level1:
		src := -1
		for j := range a.disks {
			if j != target && !a.Missing(j, row) {
				src = j
				break
			}
		}
		if src == -1 {
			return t, ErrTooManyFailures
		}
		page = pageScratch(dataMode)
		c, err := a.readMember(t, src, row, page)
		if err != nil {
			return t, err
		}
		t = c
	case Level5, Level6:
		usable := a.geo.diskPages - a.geo.diskPages%a.geo.chunkPages
		if row >= usable {
			// Tail rows beyond the last whole chunk carry no logical data;
			// a fresh device already holds zeros there.
			page = pageScratch(dataMode)
			break
		}
		rl := a.geo.locateRow(row)
		if a.stale.Has(row) || a.pageLost(target, row) {
			// Stale parity or an already-lost target page: heal to a
			// defined state instead of reconstructing. Rows with lost
			// pages on OTHER members only are physically consistent (the
			// loss was healed when their own rebuild passed them) and take
			// the normal path below.
			return a.rebuildDamagedRow(t, target, rl)
		}
		st, c, err := a.decodeRow(t, rl, 0)
		defer st.release()
		if errors.Is(err, ErrUnrecoverable) {
			// A second member failed inside the rebuild window and this
			// row's erasures exceed the level's tolerance (RAID-5 with a
			// concurrent failure). Account for every missing page loudly
			// and move on — the surviving members still serve their own
			// pages directly.
			for _, k := range st.erased {
				a.markLost(rl.member(k), row)
			}
			return c, nil
		}
		if err != nil {
			return t, err
		}
		t, page = c, st.page(target)
	default:
		return t, ErrTooManyFailures
	}

	a.stats.RebuildWrite++
	c, err := a.disks[target].WritePages(t, row, 1, page)
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
func (a *Array) rebuildDamagedRow(t sim.Time, target int, rl rowLoc) (sim.Time, error) {
	targetIsData := rl.mask()&(1<<uint(target)) == 0
	if a.stale.Has(rl.row) && targetIsData {
		// Stale parity cannot reconstruct the target's data: the page is
		// gone (normally already accounted by StartRebuild's resync).
		a.markLost(target, rl.row)
	}
	if a.lost[rl.row]&^(1<<uint(target)) != 0 {
		return t, nil
	}
	dataMode := a.dataMode()
	par := newParity(rl.np, dataMode)
	defer putParity(par)
	tmp := pageScratch(dataMode)
	defer putScratch(tmp)
	done := t
	for i, disk := range rl.dataDisks {
		if disk == target {
			continue // lost page: defined as zeros, contributes nothing
		}
		if a.Missing(disk, rl.row) {
			return t, nil // second failure on a damaged row: leave it
		}
		c, err := a.readMember(t, disk, rl.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		encode(par[:], tmp, i)
	}
	// Write the target's page: recomputed parity when it holds P/Q, a
	// defined zero page when its data is lost (a fresh device holds zeros
	// already, but a resumed rebuild may be re-walking the row).
	page := pageScratch(dataMode)
	defer putScratch(page)
	for j, d := range rl.par[:rl.np] {
		if d == target {
			page = par[j]
		}
	}
	a.stats.RebuildWrite++
	c, err := a.disks[target].WritePages(done, rl.row, 1, page)
	if err != nil {
		return t, err
	}
	if done, _, err = a.writeParity(sim.MaxTime(done, c), rl.parity, rl.row, par[:], 1<<uint(target)); err != nil {
		return t, err
	}
	a.stale.Remove(rl.row)
	return done, nil
}
