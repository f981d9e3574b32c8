package raid

import (
	"errors"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// RowFix is one parity row's repair work for ParityUpdateDeltaBatch: the
// data LBAs whose deltas must be folded into the row's parity, and the
// raw XOR images (old⊕new) per LBA (nil slices in timing mode).
type RowFix struct {
	LBAs   []int64
	Deltas [][]byte
}

// ParityUpdateDeltaBatch repairs many rows' parities at once, reading and
// writing each member disk's stale parity pages in consecutive runs —
// the "large sequential accesses" batch reconciliation that parity
// logging (Stodolsky et al.) and MD-style resync rely on. Behaviour is
// equivalent to calling ParityUpdateDelta per row; only the I/O pattern
// (and therefore the timing) differs. A run whose parity read hits a
// media error is folded row by row through ParityUpdateDelta, which
// retries the read, folds into the surviving copy or resyncs the row.
func (a *Array) ParityUpdateDeltaBatch(t sim.Time, fixes []RowFix) (sim.Time, error) {
	np := a.cfg.Level.parityDisks()
	type rowWork struct {
		l   loc
		fix RowFix
		par [2][]byte // parity pages in flight (data mode)
		run int       // index of the row's P run
	}
	// Group rows by their P disk (Q handled alongside), walked in disk
	// order: on RAID-6 one group's Q disk is another group's P disk, so the
	// order the groups arrive in decides what the members' heads do.
	groups := make([][]*rowWork, len(a.disks))
	for _, f := range fixes {
		if len(f.LBAs) == 0 {
			continue
		}
		l := a.geo.locate(f.LBAs[0])
		if !a.stale.Has(l.row) {
			// A resync already made this row's parity current: its deltas
			// are obsolete, as in ParityUpdateDelta.
			continue
		}
		degraded := false
		for _, d := range l.par[:np] {
			degraded = degraded || a.disks[d].Failed()
		}
		if degraded {
			// Degraded rows take the single-row path, which knows the
			// fold-into-survivor and rebuild-will-recompute rules.
			if _, err := a.ParityUpdateDelta(t, f.LBAs, f.Deltas); err != nil {
				return t, err
			}
			continue
		}
		groups[l.par[0]] = append(groups[l.par[0]], &rowWork{l: l, fix: f})
	}

	done := t
	for disk, rows := range groups {
		sort.Slice(rows, func(i, j int) bool { return rows[i].l.row < rows[j].l.row })

		// The P pages move in runs of consecutive rows, one buffer per run
		// for both phases.
		type run struct {
			start, n int
			buf      []byte
			media    bool // a parity read of the run hit a media error
		}
		var runs []run
		for start := 0; start < len(rows); {
			end := start + 1
			for end < len(rows) && rows[end].l.row == rows[end-1].l.row+1 {
				end++
			}
			for _, rw := range rows[start:end] {
				rw.run = len(runs)
			}
			r := run{start: start, n: end - start}
			if a.dataMode {
				r.buf = make([]byte, r.n*blockdev.PageSize)
			}
			runs = append(runs, r)
			start = end
		}

		// Phase 1: read stale parities, P in runs and the further copies
		// (RAID-6's Q) per row from their own disks. A media error leaves
		// its run to the single-row path.
		phase1 := t
		for ri := range runs {
			r := &runs[ri]
			a.stats.ParityReads += int64(r.n)
			c, err := a.disks[disk].ReadPages(t, rows[r.start].l.row, r.n, r.buf)
			if errors.Is(err, blockdev.ErrMedia) {
				a.stats.MediaErrors++
				r.media = true
				continue
			}
			if err != nil {
				return t, err
			}
			phase1 = sim.MaxTime(phase1, c)
			for i := 0; i < r.n; i++ {
				rows[r.start+i].par[0] = blockdev.Page(r.buf, i)
			}
		}
		for j := 1; j < np; j++ {
			for _, rw := range rows {
				if runs[rw.run].media {
					continue
				}
				if a.dataMode {
					rw.par[j] = make([]byte, blockdev.PageSize)
				}
				a.stats.ParityReads++
				c, err := a.disks[rw.l.par[j]].ReadPages(t, rw.l.row, 1, rw.par[j])
				if errors.Is(err, blockdev.ErrMedia) {
					a.stats.MediaErrors++
					runs[rw.run].media = true
					continue
				}
				if err != nil {
					return t, err
				}
				phase1 = sim.MaxTime(phase1, c)
			}
		}

		// Fold deltas in memory.
		for _, rw := range rows {
			if runs[rw.run].media {
				continue
			}
			for i, d := range rw.fix.Deltas {
				encode(rw.par[:], d, a.geo.locate(rw.fix.LBAs[i]).dataIdx)
			}
		}

		// Phase 2: write repaired parities back, P in the same runs.
		for _, r := range runs {
			if r.media {
				continue
			}
			a.stats.ParityWrites += int64(r.n)
			a.stats.ParityFixes += int64(r.n)
			c, err := a.disks[disk].WritePages(phase1, rows[r.start].l.row, r.n, r.buf)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
		for j := 1; j < np; j++ {
			for _, rw := range rows {
				if runs[rw.run].media {
					continue
				}
				a.stats.ParityWrites++
				c, err := a.disks[rw.l.par[j]].WritePages(phase1, rw.l.row, 1, rw.par[j])
				if err != nil {
					return t, err
				}
				done = sim.MaxTime(done, c)
			}
		}
		for _, rw := range rows {
			if !runs[rw.run].media {
				a.stale.Remove(rw.l.row)
				continue
			}
			c, err := a.ParityUpdateDelta(t, rw.fix.LBAs, rw.fix.Deltas)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
	}
	return done, nil
}
