package lsraid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// The member rebuild is raid.RebuildWindow, embedded in Array: a volatile
// row watermark routes reads/writes (Missing treats un-rebuilt rows of
// the target as absent), core checkpoints the watermark in NVRAM and
// resumes it after a crash via ResumeRebuild. This file is what the log
// supplies to the window — its two hooks, Live (segRowCommitted) and Row
// (rebuildRow) — and the loud loss mapping behind the latter.

// segRowCommitted reports whether member row falls inside the committed
// prefix of an allocated segment — i.e. whether its contents are
// meaningful. Uncommitted rows may hold torn garbage from interrupted
// flushes; nothing references them.
func (a *Array) segRowCommitted(row int64) bool {
	seg := row / a.cfg.SegRows
	if seg >= a.numSegs {
		return false
	}
	m := &a.segs[seg]
	return m.Seq != 0 && row%a.cfg.SegRows < m.Rows
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
