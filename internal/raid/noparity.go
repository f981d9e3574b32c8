package raid

import (
	"errors"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements the two interfaces the paper adds between the SSD
// cache and the RAID storage (§III-A): write-without-parity-update and
// parity-update, plus full-row reconstruct writes.

// WriteNoParity writes count data pages without touching parity, marking
// the affected rows stale. This is KDD's write-hit fast path: one disk
// write instead of the 4-I/O read-modify-write.
func (a *Array) WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, a.Pages()); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		// Non-parity levels have nothing to delay; fall back.
		return a.WritePages(t, lba, count, buf)
	}
	var sp obs.Span
	if a.tr != nil {
		sp = a.tr.BeginDev(t, obs.PhaseRAIDWriteNP, a.Name(), lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		l := a.geo.locate(lba + int64(i))
		if a.RebuildActive() || a.Missing(l.disk, l.row) || a.lost[l.row] != 0 {
			// Inside a rebuild window a new stale row would widen the loss
			// surface (stale parity plus a missing member page cannot be
			// reconstructed), and damaged rows must heal through the full
			// parity path. Fall back to the immediate-parity write.
			c, err := a.writePage(t, lba+int64(i), pageBuf(buf, i))
			if err != nil {
				sp.End(t)
				return t, err
			}
			done = sim.MaxTime(done, c)
			continue
		}
		a.stats.DataWrites++
		a.stats.NoParityWr++
		c, err := a.disks[l.disk].WritePages(t, l.row, 1, pageBuf(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		a.stale.Add(a.staleKey(l))
		done = sim.MaxTime(done, c)
	}
	sp.End(done)
	return done, nil
}

// staleKey identifies a parity row globally: disk row × one entry.
func (a *Array) staleKey(l loc) int64 { return l.row }

// rowStale reports whether the parity row holding l is stale.
func (a *Array) rowStale(l loc) bool { return a.stale.Has(l.row) }

// ParityUpdateDelta repairs the parity of lba's row by XOR-ing the
// decompressed delta (old data ⊕ current data) into the stale parity:
// the read-modify-write flavour of the paper's background parity update
// (§III-D). delta may be nil in timing mode. Deltas for several pages of
// the same row can be applied in one call via lbas/deltas pairs.
func (a *Array) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (done sim.Time, err error) {
	if len(lbas) == 0 {
		return t, nil
	}
	l := a.geo.locate(lbas[0])
	for _, x := range lbas[1:] {
		if a.geo.locate(x).row != l.row {
			panic("raid: ParityUpdateDelta spans multiple rows")
		}
	}
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return t, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseParityRMW, a.Name(), lbas[0], len(lbas))
		defer func() { sp.End(done) }()
	}
	if !a.rowStale(l) {
		// Parity already reflects the member data — a resync healed the
		// row after a media error (or a crash interrupted the cleanup that
		// follows one). Folding old⊕new deltas into fresh parity would
		// corrupt it; the deltas are simply obsolete.
		return t, nil
	}
	pFailed := a.Missing(l.pDisk, l.row)
	qFailed := l.qDisk >= 0 && a.Missing(l.qDisk, l.row)
	if pFailed && (l.qDisk < 0 || qFailed) {
		// Every parity device of this row is lost. The data disks hold
		// the current data (KDD always dispatches data), so the rebuild
		// will recompute this parity from scratch; nothing to repair now
		// and no read can consult the dead parity in the meantime.
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return t, nil
	}
	if pFailed || qFailed {
		// RAID-6 with one parity member lost: fold the deltas into the
		// surviving one; the dead one is recomputed by rebuild.
		done := t
		for i, lbaI := range lbas {
			var diff []byte
			if deltas != nil {
				diff = deltas[i]
			}
			li := a.geo.locate(lbaI)
			rl := a.geo.locateRow(li.stripe)
			rl.row = li.row
			c, err := a.applyParityDiff(t, li, rl, diff, !pFailed, !qFailed)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The surviving copy is ALSO unreadable: every fold
					// target is gone, so recompute parity from the member
					// data outright (the resync accounts any page the dead
					// member takes with it).
					a.stats.MediaErrors++
					done, err = a.resyncRow(t, l.row)
					if err != nil {
						return t, err
					}
					a.stats.ParityFixes++
					return done, nil
				}
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return done, nil
	}

	var p, q []byte
	data := deltas != nil
	if data {
		p = blockdev.GetZeroPage() // stays zero if its read goes media-bad
		defer blockdev.PutPage(p)
		if l.qDisk >= 0 {
			q = blockdev.GetZeroPage()
			defer blockdev.PutPage(q)
		}
	}

	// Read stale parity, tracking each copy separately. A media-bad copy
	// loses its RMW fold target, but on RAID-6 the deltas still fold into
	// the surviving copy, after which the bad one is recomputed from a
	// full-row decode. Only when every copy is unreadable does the repair
	// fall back to recomputing parity from the current member data (the
	// members always hold the current bytes, so the resync result IS the
	// state the deltas were driving toward; they become obsolete and the
	// stale mark is cleared by the resync).
	phase1 := t
	pBad, qBad := false, false
	a.stats.ParityReads++
	c, err := a.memberRead(t, l.pDisk, l.row, p)
	if err != nil {
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, err
		}
		a.stats.MediaErrors++
		pBad = true
	} else {
		phase1 = sim.MaxTime(phase1, c)
	}
	if l.qDisk >= 0 {
		a.stats.ParityReads++
		c, err = a.memberRead(t, l.qDisk, l.row, q)
		if err != nil {
			if !errors.Is(err, blockdev.ErrMedia) {
				return t, err
			}
			a.stats.MediaErrors++
			qBad = true
		} else {
			phase1 = sim.MaxTime(phase1, c)
		}
	}
	if pBad && (l.qDisk < 0 || qBad) {
		done, err := a.resyncRow(t, l.row)
		if err != nil {
			return t, err
		}
		a.stats.ParityFixes++
		return done, nil
	}

	// Fold every delta into the readable copy (or copies).
	if data {
		for i, lbaI := range lbas {
			if deltas[i] == nil {
				continue
			}
			li := a.geo.locate(lbaI)
			if !pBad {
				blockdev.XORInto(p, deltas[i])
			}
			if q != nil && !qBad {
				gfMulInto(q, deltas[i], gfPow(li.dataIdx))
			}
		}
	}

	// Write repaired parity.
	done = phase1
	a.stats.ParityFixes++
	if !pBad {
		a.stats.ParityWrites++
		c, err = a.disks[l.pDisk].WritePages(phase1, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if l.qDisk >= 0 && !qBad {
		a.stats.ParityWrites++
		c, err = a.disks[l.qDisk].WritePages(phase1, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	a.stale.Remove(l.row)
	if pBad || qBad {
		// The row is current again through the surviving copy; recompute
		// the unreadable one from a row decode now, so a cleared transient
		// can never resurface its stale bytes as valid parity.
		bad := l.pDisk
		if qBad {
			bad = l.qDisk
		}
		c, err := a.repairParityRow(done, l.row, bad, nil)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// ParityUpdateReconstruct recomputes the parity of lba's row from the
// caller-provided current data pages (one per data chunk, in RowPeers
// order) and writes it: the reconstruct-write flavour, used when every
// data block of the stripe is resident in the SSD cache so no disk reads
// are needed. rowData may be nil in timing mode.
func (a *Array) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (done sim.Time, err error) {
	l := a.geo.locate(lba)
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return t, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseParityRecon, a.Name(), lba, 1)
		defer func() { sp.End(done) }()
	}
	pOK := !a.Missing(l.pDisk, l.row)
	qOK := l.qDisk >= 0 && !a.Missing(l.qDisk, l.row)
	if !pOK && (l.qDisk < 0 || !qOK) {
		// All parity members lost: rebuild recomputes from data.
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return t, nil
	}
	var p, q []byte
	if rowData != nil {
		dc := int(a.geo.dataChunksPerStripe())
		if len(rowData) != dc {
			panic("raid: ParityUpdateReconstruct needs one page per data chunk")
		}
		p = blockdev.GetZeroPage()
		defer blockdev.PutPage(p)
		if l.qDisk >= 0 {
			q = blockdev.GetZeroPage()
			defer blockdev.PutPage(q)
		}
		for i, d := range rowData {
			blockdev.XORInto(p, d)
			if q != nil {
				gfMulInto(q, d, gfPow(i))
			}
		}
	}
	done = t
	a.stats.ParityFixes++
	if pOK {
		a.stats.ParityWrites++
		c, err := a.disks[l.pDisk].WritePages(t, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if qOK {
		a.stats.ParityWrites++
		c, err := a.disks[l.qDisk].WritePages(t, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	a.stale.Remove(l.row)
	return done, nil
}

// WriteRow performs a full-row write (one page per data chunk at the same
// row, in RowPeers order) computing parity inline with no reads: the
// full-stripe write that NVRAM buffering schemes aim for. buf holds the
// data pages back to back and may be nil in timing mode.
func (a *Array) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	l := a.geo.locate(firstLBA)
	rl := a.geo.locateRow(l.stripe)
	rl.row = l.row
	dc := len(rl.dataDisks)
	if err := blockdev.CheckBuf(buf, dc); err != nil {
		return t, err
	}
	var p, q []byte
	if buf != nil {
		p = blockdev.GetZeroPage()
		defer blockdev.PutPage(p)
		if rl.qDisk >= 0 {
			q = blockdev.GetZeroPage()
			defer blockdev.PutPage(q)
		}
		for i := 0; i < dc; i++ {
			d := pageBuf(buf, i)
			blockdev.XORInto(p, d)
			if q != nil {
				gfMulInto(q, d, gfPow(i))
			}
		}
	}
	done := t
	for i, disk := range rl.dataDisks {
		if a.Missing(disk, l.row) {
			continue // reconstructible from the new parity after rebuild
		}
		a.stats.DataWrites++
		c, err := a.disks[disk].WritePages(t, l.row, 1, pageBuf(buf, i))
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if rl.pDisk >= 0 && !a.Missing(rl.pDisk, l.row) {
		a.stats.ParityWrites++
		c, err := a.disks[rl.pDisk].WritePages(t, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if rl.qDisk >= 0 && !a.Missing(rl.qDisk, l.row) {
		a.stats.ParityWrites++
		c, err := a.disks[rl.qDisk].WritePages(t, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	// Every page of the row now holds defined content (missing members are
	// reconstructible from the fresh parity), so any lost marks are healed.
	a.stale.Remove(l.row)
	delete(a.lost, l.row)
	return done, nil
}
