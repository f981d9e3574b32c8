package raid

import (
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
	RowsSkipped   int64   // rows left to the cleaner (stale parity) or, on a log, to the rebuild
	MediaRepaired int64   // unreadable pages reconstructed and rewritten
	ParityFixed   int64   // parity pages recomputed after a mismatch
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

// Scrub is the patrol walk both engines run over every live member row
// (the engine's Live hook), under virtual time: unreadable pages are
// reconstructed from redundancy and rewritten, and — in data mode —
// parity that disagrees with the data is recomputed (data is trusted: it
// is what the host wrote and re-reads). Stale-parity rows are skipped:
// the cleaner owns them. Rows holding pages lost in a rebuild window, and
// rows beyond the level's tolerance, are reported, never patched. An
// engine that maps its own losses (a Lose hook: the log) also leaves rows
// with a missing member to the rebuild and hands a row beyond tolerance
// to Lose; the parity engine scrubs around a missing member and only
// reports such a row, whose reads keep failing loudly.
func (m *Members) Scrub(t sim.Time) (done sim.Time, rep ScrubReport, err error) {
	usable := m.geo.diskPages - m.geo.diskPages%m.geo.chunkPages
	if m.tr != nil {
		sp := m.tr.BeginDev(t, obs.PhaseScrub, m.eng.Name, 0, int(usable))
		defer func() { sp.End(done) }()
	}
	m.scrubTotal = usable
	m.scrubRow = 0
	done = t
	for row := int64(0); row < usable; row++ {
		m.scrubRow = row + 1
		if m.eng.Live != nil && !m.eng.Live(row) {
			continue
		}
		if m.staleRow(row) || m.eng.Lose != nil && m.Holes(row) > 0 {
			rep.RowsSkipped++
			continue
		}
		if m.lost[row] != 0 { // nothing the scrub writes could bring these back
			rep.Unrecoverable = append(rep.Unrecoverable, row)
			continue
		}
		rep.RowsScanned++
		c, lost, err := m.ScrubRow(t, row, &rep)
		if err != nil {
			return t, rep, err
		}
		if lost != 0 && m.eng.Lose != nil {
			m.eng.Lose(row, lost)
		}
		done = sim.MaxTime(done, c)
		t = c // patrol runs serialized in the background
	}
	return done, rep, nil
}

// ResyncRow recomputes the parity of lba's row from the current data
// members (reconstruct-write), clearing any stale mark. The KDD core
// falls back to it when a staged delta can no longer be applied — e.g.
// the old page the delta XORs against was lost to a media error. The
// data members always hold the current data (KDD dispatches every write
// to RAID), so recomputing from them is always safe, just costlier than
// the delta RMW.
func (a *Array) ResyncRow(t sim.Time, lba int64) (done sim.Time, err error) {
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseResync, a.Name(), lba, 1)
		defer func() { sp.End(done) }()
	}
	return a.resyncRow(t, a.geo.locate(lba).row)
}
