package raid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// This file implements degraded operation, resynchronisation of stale
// parity, disk replacement and rebuild — the failure-handling behaviours
// of §III-E: "on an SSD failure, RAID storage can be re-synchronized
// through reconstruct-write", and "if a HDD fails, KDD first updates all
// parity blocks ... then triggers the rebuilding process".

// degradedWrite services a write when the data page or a parity page of
// the target row is missing (failed disk, or the un-rebuilt region of a
// rebuild target), folding the new data into the surviving redundancy.
func (a *Array) degradedWrite(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	rl := a.geo.locateRow(l.row)
	if a.lost[l.row]&^(1<<uint(l.disk)) != 0 {
		// Pages other than the target are lost: the row's parity no longer
		// describes its data, and anything short of a full-row rewrite
		// would launder the loss into plausible-looking bytes.
		return t, fmt.Errorf("%w: row %d holds pages lost in a rebuild window", ErrUnrecoverable, l.row)
	}
	if a.rowErasures(rl) > l.np {
		return t, ErrTooManyFailures
	}
	data := buf != nil

	if !a.Missing(l.disk, l.row) {
		// Only parity lost: write the data; surviving parity (if any) is
		// updated via RMW against that disk alone.
		survivors := l.np - a.parityMissing(l.parity, l.row)
		done := t
		var old []byte
		if data && survivors > 0 {
			old = blockdev.GetPage() // fully overwritten by the member read
			defer blockdev.PutPage(old)
			c, err := a.readMember(t, l.disk, l.row, old)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The old copy is unreadable, so the parity diff cannot
					// be formed: place the write via a full-row decode, which
					// absorbs the bad page as one more erasure.
					a.stats.MediaErrors++
					return a.degradedWriteTwoMissing(t, l, rl, buf)
				}
				return t, err
			}
			t = sim.MaxTime(t, c)
		}
		a.stats.DataWrites++
		c, err := a.disks[l.disk].WritePages(t, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if survivors > 0 {
			blockdev.XORInto(old, buf) // old ⊕ new; a no-op in timing mode
			c, err := a.applyParityDiff(t, l, old)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The surviving parity copy is unreadable: the data write
					// already landed, so a full-row decode recomputes that
					// copy from the current bytes (the diff becomes moot).
					a.stats.MediaErrors++
					return a.degradedWriteTwoMissing(t, l, rl, buf)
				}
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
		a.clearLost(l.disk, l.row)
		return done, nil
	}

	// Data page missing: fold the new value into parity via reconstruction
	// from the surviving data pages (reconstruct-write).
	done := t
	par := newParity(l.np, data)
	defer putParity(par)
	encode(par[:], buf, l.dataIdx)
	tmp := pageScratch(data)
	defer putScratch(tmp)
	for i, disk := range rl.dataDisks {
		if disk == l.disk {
			continue
		}
		if a.Missing(disk, l.row) {
			// A second data page of the row is missing: only a RAID-6
			// full-row decode can still place this write.
			return a.degradedWriteTwoMissing(t, l, rl, buf)
		}
		c, err := a.readMember(t, disk, l.row, tmp)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				// A survivor page is unreadable on top of the missing
				// target: the full-row decode treats it as a second erasure.
				a.stats.MediaErrors++
				return a.degradedWriteTwoMissing(t, l, rl, buf)
			}
			return t, err
		}
		done = sim.MaxTime(done, c)
		encode(par[:], tmp, i)
	}
	done, wrote, err := a.writeParity(done, l.parity, l.row, par[:], 0)
	if err != nil {
		return t, err
	}
	if wrote == 0 {
		return t, ErrTooManyFailures
	}
	a.stale.Remove(l.row)
	a.clearLost(l.disk, l.row) // parity now encodes the page's new bytes
	return done, nil
}

// degradedWriteTwoMissing places a write on a row with two effective
// erasures — the target's data page plus a second missing page, or a
// missing page plus a media-unreadable one: a full-row decode recovers
// every old page from the surviving redundancy, the new data is
// substituted, and both parities are recomputed and rewritten (plus the
// data page itself when its device is physically writable). A missing
// page keeps its old (decoded) value in the new parity, so it remains
// exactly as reconstructible as before the write.
func (a *Array) degradedWriteTwoMissing(t sim.Time, l loc, rl rowLoc, buf []byte) (sim.Time, error) {
	if a.stale.Has(l.row) {
		// Stale parity cannot decode the missing pages.
		return t, ErrStaleParity
	}
	st, done, err := a.decodeRow(t, rl, 0)
	defer st.release()
	if errors.Is(err, ErrUnrecoverable) {
		return t, ErrTooManyFailures
	}
	if err != nil {
		return t, err
	}
	par := newParity(l.np, a.dataMode)
	defer putParity(par)
	if buf != nil {
		copy(st.pages[l.dataIdx], buf)
	}
	for i, d := range st.data() {
		encode(par[:], d, i)
	}
	if !a.Missing(l.disk, l.row) {
		// The target device is alive (the decode path was taken for a media
		// error elsewhere in the row): land the data bytes too, or a healed
		// transient page could later resurface its old content against the
		// new parity.
		a.stats.DataWrites++
		c, err := a.disks[l.disk].WritePages(done, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	done, wrote, err := a.writeParity(done, l.parity, l.row, par[:], 0)
	if err != nil {
		return t, err
	}
	if wrote == 0 {
		return t, ErrTooManyFailures
	}
	a.clearLost(l.disk, l.row)
	return done, nil
}

// applyParityDiff RMWs diff (old⊕new of the data page at l) into the
// surviving parity copies of its row: each copy's write chains behind its
// own read, the copies run side by side.
func (a *Array) applyParityDiff(t sim.Time, l loc, diff []byte) (sim.Time, error) {
	done := t
	page := pageScratch(diff != nil) // fully overwritten by each parity read
	defer putScratch(page)
	for j, d := range l.par[:l.np] {
		if a.Missing(d, l.row) {
			continue
		}
		a.stats.ParityReads++
		c, err := a.memberRead(t, d, l.row, page)
		if err != nil {
			return t, err
		}
		gfMulInto(page, diff, coef(j, l.dataIdx))
		a.stats.ParityWrites++
		if c, err = a.disks[d].WritePages(c, l.row, 1, page); err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// Resync recomputes parity for every stale row by reading all data pages
// and rewriting P (and Q): the reconstruct-write resynchronisation run
// after an SSD cache failure. It returns the completion time of the last
// row.
func (a *Array) Resync(t sim.Time) (sim.Time, error) {
	rows := a.stale.AppendTo(make([]int64, 0, a.stale.Len())) // ascending
	done := t
	for _, row := range rows {
		c, err := a.resyncRow(t, row)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c // serialize row resyncs; background work, not latency critical
	}
	return done, nil
}

func (a *Array) resyncRow(t sim.Time, row int64) (sim.Time, error) {
	rl := a.geo.locateRow(row)
	if a.parityMissing(rl.parity, row) == rl.np {
		// Every parity member of this row is lost; the rebuild recomputes
		// it from the (current) data, so the row is no longer stale.
		a.stale.Remove(row)
		return t, nil
	}
	dataMode := a.dataMode
	par := newParity(rl.np, dataMode)
	defer putParity(par)
	tmp := pageScratch(dataMode)
	defer putScratch(tmp)
	phase1 := t
	for i, disk := range rl.dataDisks {
		if a.Missing(disk, row) {
			// A data member is gone AND parity is stale: that page's current
			// content is beyond every redundancy (stale parity cannot decode
			// it). Account the loss loudly and resynchronise over the
			// survivors — the lost page is defined as zeros, matching the
			// zero-fill the rebuild writes when its watermark passes the row.
			a.markLost(disk, row)
			continue
		}
		c, err := a.readMember(t, disk, row, tmp)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				// Same loss through a different hole: the page is unreadable
				// and the stale parity cannot reconstruct it. Zero-fill the
				// physical page so a remap or a cleared transient can never
				// resurface its old bytes against the fresh parity.
				a.stats.MediaErrors++
				a.markLost(disk, row)
				zp := pageScratch(dataMode)
				if c, werr := a.disks[disk].WritePages(t, row, 1, zp); werr == nil {
					phase1 = sim.MaxTime(phase1, c)
				}
				putScratch(zp)
				continue
			}
			return t, err
		}
		phase1 = sim.MaxTime(phase1, c)
		encode(par[:], tmp, i)
	}
	done, _, err := a.writeParity(phase1, rl.parity, row, par[:], 0)
	if err != nil {
		return t, err
	}
	a.stale.Remove(row)
	return done, nil
}

var _ blockdev.Device = (*Array)(nil)
