package raid

import (
	"errors"
	"math/bits"

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
			c, err := a.smallWrite(t, l, blockdev.Page(buf, i))
			if err != nil {
				sp.End(t)
				return t, err
			}
			done = sim.MaxTime(done, c)
			continue
		}
		a.stats.DataWrites++
		a.stats.NoParityWr++
		c, err := a.disks[l.disk].WritePages(t, l.row, 1, blockdev.Page(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		a.stale.Add(l.row)
		done = sim.MaxTime(done, c)
	}
	sp.End(done)
	return done, nil
}

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
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseParityRMW, a.Name(), lbas[0], len(lbas))
		defer func() { sp.End(done) }()
	}
	if !a.stale.Has(l.row) {
		// Parity already reflects the member data — a resync healed the
		// row after a media error (or a crash interrupted the cleanup that
		// follows one). Folding old⊕new deltas into fresh parity would
		// corrupt it; the deltas are simply obsolete.
		return t, nil
	}
	switch missing := a.parityMissing(l.parity, l.row); {
	case missing == l.np:
		// Every parity device of this row is lost. The data disks hold
		// the current data (KDD always dispatches data), so the rebuild
		// will recompute this parity from scratch; nothing to repair now
		// and no read can consult the dead parity in the meantime.
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return t, nil
	case missing > 0:
		// RAID-6 with one parity member lost: fold the deltas into the
		// surviving one; the dead one is recomputed by rebuild.
		done := t
		for i, lbaI := range lbas {
			var diff []byte
			if deltas != nil {
				diff = deltas[i]
			}
			c, err := a.applyParityDiff(t, a.geo.locate(lbaI), diff)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The surviving copy is ALSO unreadable: every fold
					// target is gone, so recompute parity from the member
					// data outright (the resync accounts any page the dead
					// member takes with it).
					a.stats.MediaErrors++
					return a.resyncFix(t, l.row)
				}
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return done, nil
	}

	par := newParity(l.np, deltas != nil) // a page stays zero if its read goes media-bad
	defer putParity(par)

	// Read stale parity, tracking each copy separately. A media-bad copy
	// loses its RMW fold target, but on RAID-6 the deltas still fold into
	// the surviving copy, after which the bad one is recomputed from a
	// full-row decode. Only when every copy is unreadable does the repair
	// fall back to recomputing parity from the current member data (the
	// members always hold the current bytes, so the resync result IS the
	// state the deltas were driving toward; they become obsolete and the
	// stale mark is cleared by the resync).
	phase1 := t
	var bad uint32 // parity members whose copy is unreadable
	for j, d := range l.par[:l.np] {
		a.stats.ParityReads++
		c, err := a.memberRead(t, d, l.row, par[j])
		if err == nil {
			phase1 = sim.MaxTime(phase1, c)
			continue
		}
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, err
		}
		a.stats.MediaErrors++
		bad |= 1 << uint(d)
	}
	if bad == l.mask() {
		return a.resyncFix(t, l.row)
	}

	// Fold every delta into the copies (an unreadable one is not written).
	if deltas != nil {
		for i, lbaI := range lbas {
			encode(par[:], deltas[i], a.geo.locate(lbaI).dataIdx)
		}
	}

	// Write repaired parity.
	a.stats.ParityFixes++
	done, _, err = a.writeParity(phase1, l.parity, l.row, par[:], bad)
	if err != nil {
		return t, err
	}
	a.stale.Remove(l.row)
	if bad != 0 {
		// The row is current again through the surviving copy; recompute
		// the unreadable one from a row decode now, so a cleared transient
		// can never resurface its stale bytes as valid parity.
		c, err := a.repairParityRow(done, l.row, bits.TrailingZeros32(bad), nil)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// resyncFix is a parity update's last resort, when no copy is left to
// fold deltas into: recompute the row's parity from the member data.
func (a *Array) resyncFix(t sim.Time, row int64) (sim.Time, error) {
	done, err := a.resyncRow(t, row)
	if err != nil {
		return t, err
	}
	a.stats.ParityFixes++
	return done, nil
}

// ParityUpdateReconstruct recomputes the parity of lba's row from the
// caller-provided current data pages (one per data chunk, in RowPeers
// order) and writes it: the reconstruct-write flavour, used when every
// data block of the stripe is resident in the SSD cache so no disk reads
// are needed. rowData may be nil in timing mode.
func (a *Array) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (done sim.Time, err error) {
	l := a.geo.locate(lba)
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseParityRecon, a.Name(), lba, 1)
		defer func() { sp.End(done) }()
	}
	if a.parityMissing(l.parity, l.row) == l.np {
		// All parity members lost: rebuild recomputes from data.
		a.stale.Remove(l.row)
		a.stats.ParityFixes++
		return t, nil
	}
	if rowData != nil && len(rowData) != int(a.geo.dataChunksPerStripe()) {
		panic("raid: ParityUpdateReconstruct needs one page per data chunk")
	}
	par := newParity(l.np, rowData != nil)
	defer putParity(par)
	for i, d := range rowData {
		encode(par[:], d, i)
	}
	a.stats.ParityFixes++
	if done, _, err = a.writeParity(t, l.parity, l.row, par[:], 0); err != nil {
		return t, err
	}
	a.stale.Remove(l.row)
	return done, nil
}

// WriteRow performs a full-row write (one page per data chunk at the same
// row, in RowPeers order) computing parity inline with no reads: the
// full-stripe write that NVRAM buffering schemes aim for. buf holds the
// data pages back to back and may be nil in timing mode.
func (a *Array) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	if err := blockdev.CheckBuf(buf, a.DataChunks()); err != nil {
		return t, err
	}
	row := a.geo.locate(firstLBA).row
	done, err := a.WriteStripe(t, row, func(i int) []byte { return blockdev.Page(buf, i) })
	if err != nil {
		return t, err
	}
	// Every page of the row now holds defined content (missing members are
	// reconstructible from the fresh parity), so any lost marks are healed.
	a.stale.Remove(row)
	delete(a.lost, row)
	return done, nil
}
