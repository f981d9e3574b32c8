package lsraid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// The rebuild state machine mirrors internal/raid's: a volatile row
// watermark routes reads/writes (missing() treats un-rebuilt rows of the
// target as absent), core checkpoints the watermark in NVRAM and resumes
// it after a crash via ResumeRebuild, and CrashRebuildState forgets it.
// The log-structured twist: only committed rows carry meaning, so the
// rebuild reconstructs exactly those and skips free/uncommitted rows —
// a mostly-empty log rebuilds in proportion to its live data, not its
// raw capacity.

type rebuildState struct {
	disk int
	next int64 // watermark: rows [0, next) are reconstructed
}

// AddSpare parks a hot-spare device for automatic attachment.
func (a *Array) AddSpare(dev blockdev.Device) error {
	if dev.Pages() != a.diskPages {
		return fmt.Errorf("%w: spare size mismatch", raid.ErrBadGeometry)
	}
	a.spares = append(a.spares, dev)
	return nil
}

// SpareCount returns the number of parked hot spares.
func (a *Array) SpareCount() int { return len(a.spares) }

// RebuildActive reports whether a member rebuild is in progress.
func (a *Array) RebuildActive() bool { return a.rebuild != nil }

// RebuildTarget returns the member being rebuilt and its row watermark.
func (a *Array) RebuildTarget() (disk int, watermark int64, active bool) {
	if a.rebuild == nil {
		return 0, 0, false
	}
	return a.rebuild.disk, a.rebuild.next, true
}

// StartRebuild swaps failed member i for a fresh device and opens the
// rebuild window at row 0. The log owes no parity, so unlike the parity
// engine there is no resync precondition.
func (a *Array) StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	if !a.disks[i].Failed() {
		return t, raid.ErrNotDegraded
	}
	if a.rebuild != nil {
		return t, fmt.Errorf("lsraid: rebuild of disk %d already in progress", a.rebuild.disk)
	}
	if fresh.Pages() != a.diskPages {
		return t, fmt.Errorf("%w: replacement size mismatch", raid.ErrBadGeometry)
	}
	a.disks[i].Repair(fresh)
	a.failed--
	a.rebuild = &rebuildState{disk: i, next: 0}
	a.stats.RebuildsStarted++
	return t, nil
}

// StartSpareRebuild attaches a parked hot spare to the lowest-numbered
// failed member and opens its rebuild window.
func (a *Array) StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error) {
	if a.rebuild != nil || a.failed == 0 || len(a.spares) == 0 {
		return t, false, nil
	}
	target := -1
	for i, d := range a.disks {
		if d.Failed() {
			target = i
			break
		}
	}
	if target < 0 {
		return t, false, nil
	}
	spare := a.spares[0]
	a.spares = a.spares[1:]
	done, err = a.StartRebuild(t, target, spare)
	if err != nil {
		a.spares = append([]blockdev.Device{spare}, a.spares...)
		return t, false, err
	}
	a.stats.SpareAttaches++
	return done, true, nil
}

// ResumeRebuild re-opens a rebuild window from an NVRAM checkpoint after
// a crash, with the same tolerance rules as the parity engine: resuming
// onto a member that has since failed is a no-op, and an at-or-past-end
// watermark closes the window.
func (a *Array) ResumeRebuild(disk int, watermark int64) error {
	if disk < 0 || disk >= len(a.disks) {
		return fmt.Errorf("%w: rebuild checkpoint names disk %d of %d", raid.ErrBadGeometry, disk, len(a.disks))
	}
	if watermark < 0 || watermark > a.diskPages {
		return fmt.Errorf("%w: rebuild checkpoint watermark %d outside [0,%d]", raid.ErrBadGeometry, watermark, a.diskPages)
	}
	if a.disks[disk].Failed() {
		return nil
	}
	if watermark >= a.diskPages {
		a.rebuild = nil
		return nil
	}
	a.rebuild = &rebuildState{disk: disk, next: watermark}
	return nil
}

// CrashRebuildState models power loss: the volatile rebuild watermark is
// forgotten, and the derived L2P/liveness state is rebuilt by replaying
// the NVRAM segment summaries and staged row buffer.
func (a *Array) CrashRebuildState() {
	a.rebuild = nil
	a.replay()
}

// RebuildStep reconstructs up to maxRows member rows of the active
// rebuild and advances the watermark. Uncommitted rows are skipped
// without I/O: nothing references them, and the fresh device's zeros
// are as good as any content there.
func (a *Array) RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error) {
	if a.rebuild == nil {
		return t, 0, true, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseRebuild, a.Name(), a.rebuild.next, maxRows)
		defer func() { sp.End(done) }()
	}
	done = t
	target := a.rebuild.disk
	for rowsDone < maxRows && a.rebuild != nil && a.rebuild.next < a.diskPages {
		row := a.rebuild.next
		if a.segRowCommitted(row) {
			c, rerr := a.rebuildRow(t, target, row)
			if rerr != nil {
				return done, rowsDone, false, rerr
			}
			done = sim.MaxTime(done, c)
			t = c
			a.stats.RebuildBytes += blockdev.PageSize
		}
		a.rebuild.next = row + 1
		rowsDone++
		a.stats.RebuildRows++
	}
	if a.rebuild != nil && a.rebuild.next >= a.diskPages {
		a.rebuild = nil
		a.stats.RebuildsCompleted++
	}
	return done, rowsDone, a.rebuild == nil, nil
}

// rebuildRow reconstructs the target member's page at row (XOR of every
// other member's page — valid for data and parity slots alike) and
// writes it onto the target.
func (a *Array) rebuildRow(t sim.Time, target int, row int64) (sim.Time, error) {
	var acc, tmp []byte
	if a.dataMode {
		acc = blockdev.GetZeroPage()
		defer blockdev.PutPage(acc)
		tmp = blockdev.GetPage()
		defer blockdev.PutPage(tmp)
	}
	done := t
	for d := range a.disks {
		if d == target {
			continue
		}
		if a.disks[d].Failed() {
			return done, a.rebuildLoss(target, row, raid.ErrTooManyFailures)
		}
		a.stats.RebuildReads++
		c, err := a.memberRead(t, d, row, tmp)
		if err != nil {
			return done, a.rebuildLoss(target, row, err)
		}
		done = sim.MaxTime(done, c)
		if acc != nil {
			blockdev.XORInto(acc, tmp)
		}
	}
	a.stats.RebuildWrite++
	c, err := a.disks[target].WritePages(done, row, 1, acc)
	if err != nil {
		return done, err
	}
	return c, nil
}

// rebuildLoss maps a second fault during row reconstruction onto the
// logical pages stored in that row, so the loss is loud and attributable.
// Crash signals pass through untouched — recovery, not loss.
func (a *Array) rebuildLoss(target int, row int64, cause error) error {
	if errors.Is(cause, blockdev.ErrCrashed) {
		return cause
	}
	seg := row / a.cfg.SegRows
	base := (row % a.cfg.SegRows) * int64(a.dc())
	m := &a.segs[seg]
	for k := 0; k < a.dc(); k++ {
		if base+int64(k) < int64(len(m.LBAs)) {
			lba := m.LBAs[base+int64(k)]
			if a.l2p[lba] == (phys{seg: int32(seg), idx: int32(base + int64(k))}) && a.lost.Add(lba) {
				a.stats.LostPages++
			}
		}
	}
	return fmt.Errorf("%w: row %d hit a second fault during rebuild: %v", raid.ErrUnrecoverable, row, cause)
}

// ReplaceDisk performs an offline (blocking) replace-and-rebuild of
// member i, the administrative path CLIs use.
func (a *Array) ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	done, err := a.StartRebuild(t, i, fresh)
	if err != nil {
		return t, err
	}
	t = done
	for a.rebuild != nil {
		c, _, _, err := a.RebuildStep(t, 1024)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}
