package raid

import (
	"bytes"
	"errors"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements partial-fault handling: read-repair of single
// unreadable pages and the background patrol scrub. Whole-device loss is
// handled in recover.go; here the device is healthy but individual pages
// are not — latent sector errors, bit-rot, torn writes — the fault regime
// parity RAID must survive between full rebuilds.

// ScrubReport summarises one patrol pass over the array.
type ScrubReport struct {
	RowsScanned   int64   // parity rows examined
	RowsSkipped   int64   // stale-parity rows left for the cleaner
	MediaRepaired int64   // unreadable pages reconstructed and rewritten
	ParityFixed   int64   // parity/mirror pages recomputed after a mismatch
	Unrecoverable []int64 // disk rows whose redundancy was exhausted
}

// repairParityRow recomputes an unreadable parity copy of one row in
// place. The row is decoded with the named copy treated as an erasure (a
// stale row additionally distrusts every parity copy, so the decode
// degenerates into a resync from the full data); every distrusted copy
// whose device is physically present is rewritten — remap-on-write heals
// the latent page — and the stale mark is cleared. buf, when non-nil,
// receives the recomputed page of disk.
func (a *Array) repairParityRow(t sim.Time, row int64, disk int, buf []byte) (sim.Time, error) {
	rl := a.geo.locateRow(row)
	distrust := uint32(1) << uint(disk)
	if a.stale.Has(row) {
		distrust |= rl.mask()
	}
	st, done, err := a.decodeRow(t, rl, distrust)
	defer st.release()
	if err != nil {
		return t, err
	}
	if buf != nil {
		copy(buf, st.page(disk))
	}
	if done, _, err = a.writeParity(done, rl.parity, row, st.par(), ^distrust); err != nil {
		return t, err
	}
	a.stale.Remove(row)
	a.stats.ParityFixes++
	return done, nil
}

// Scrub walks every parity row of the array under virtual time, verifying
// that each member page is readable and (in data mode) that parity
// matches the data. Unreadable pages are reconstructed from redundancy
// and rewritten; mismatched parity is recomputed from the data pages
// (data is trusted — it is what the host wrote and re-reads). Rows whose
// parity is deliberately stale are skipped: the cleaner owns them and
// will fold the staged deltas in later. Rows with more erasures than the
// level tolerates are reported in the ScrubReport, never silently
// patched.
func (a *Array) Scrub(t sim.Time) (done sim.Time, rep ScrubReport, err error) {
	usable := a.geo.diskPages - a.geo.diskPages%a.geo.chunkPages
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseScrub, a.Name(), 0, int(usable))
		defer func() { sp.End(done) }()
	}
	a.scrubTotal = usable
	a.scrubRow = 0
	done = t
	for row := int64(0); row < usable; row++ {
		a.scrubRow = row + 1
		if a.stale.Has(row) {
			rep.RowsSkipped++
			continue
		}
		if a.lost[row] != 0 {
			// Pages of this row were declared lost in a rebuild window;
			// nothing the scrub writes could bring them back. Report, never
			// patch.
			rep.Unrecoverable = append(rep.Unrecoverable, row)
			continue
		}
		rep.RowsScanned++
		var c sim.Time
		var err error
		if a.cfg.Level == Level1 {
			c, err = a.scrubMirrorRow(t, a.geo.locateRow(row), &rep)
		} else {
			c, _, err = a.ScrubRow(t, row, &rep)
		}
		if err != nil {
			return t, rep, err
		}
		done = sim.MaxTime(done, c)
		t = c // patrol runs serialized in the background
	}
	return done, rep, nil
}

// scrubMirrorRow verifies one RAID-1 row: every healthy mirror must hold
// a readable, identical copy. Unreadable copies are re-silvered from the
// first mirror that answers; divergent copies are overwritten by it (the
// first readable mirror is the tie-break authority — with two-way
// mirrors there is no majority to consult).
func (a *Array) scrubMirrorRow(t sim.Time, rl rowLoc, rep *ScrubReport) (sim.Time, error) {
	dataMode := a.dataMode
	done := t
	var good []byte
	goodAt := -1
	type copyInfo struct {
		disk int
		buf  []byte
	}
	var bad []int       // mirrors with media errors
	var rest []copyInfo // readable mirrors after the first
	anyHealthy := false
	for i, d := range a.disks {
		if d.Failed() {
			continue
		}
		anyHealthy = true
		buf := pageScratch(dataMode)
		c, err := a.memberRead(t, i, rl.row, buf)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				a.stats.MediaErrors++
				bad = append(bad, i)
				continue
			}
			return t, err
		}
		done = sim.MaxTime(done, c)
		if goodAt == -1 {
			good, goodAt = buf, i
		} else {
			rest = append(rest, copyInfo{disk: i, buf: buf})
		}
	}
	if goodAt == -1 {
		if anyHealthy {
			rep.Unrecoverable = append(rep.Unrecoverable, rl.row)
		}
		return done, nil
	}
	for _, i := range bad {
		if c, werr := a.disks[i].WritePages(done, rl.row, 1, good); werr == nil {
			done = sim.MaxTime(done, c)
			rep.MediaRepaired++
		}
	}
	if dataMode {
		for _, ci := range rest {
			if !bytes.Equal(ci.buf, good) {
				if c, werr := a.disks[ci.disk].WritePages(done, rl.row, 1, good); werr == nil {
					done = sim.MaxTime(done, c)
				}
				rep.ParityFixed++
			}
		}
	}
	return done, nil
}

// ResyncRow recomputes the parity of lba's row from the current data
// members (reconstruct-write), clearing any stale mark. The KDD core
// falls back to it when a staged delta can no longer be applied — e.g.
// the old page the delta XORs against was lost to a media error. The
// data members always hold the current data (KDD dispatches every write
// to RAID), so recomputing from them is always safe, just costlier than
// the delta RMW.
func (a *Array) ResyncRow(t sim.Time, lba int64) (done sim.Time, err error) {
	l := a.geo.locate(lba)
	if l.np == 0 {
		return t, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseResync, a.Name(), lba, 1)
		defer func() { sp.End(done) }()
	}
	return a.resyncRow(t, l.row)
}
