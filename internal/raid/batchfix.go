package raid

import (
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
// (and therefore the timing) differs.
func (a *Array) ParityUpdateDeltaBatch(t sim.Time, fixes []RowFix) (sim.Time, error) {
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return t, nil
	}
	type rowWork struct {
		row  int64
		fix  RowFix
		p, q []byte // parity pages in flight (data mode)
	}
	// Group rows by their P disk (Q handled alongside).
	byDisk := make(map[int][]*rowWork)
	for _, f := range fixes {
		if len(f.LBAs) == 0 {
			continue
		}
		l := a.geo.locate(f.LBAs[0])
		pFailed := a.disks[l.pDisk].Failed()
		qFailed := l.qDisk >= 0 && a.disks[l.qDisk].Failed()
		if pFailed || qFailed {
			// Degraded rows take the single-row path, which knows the
			// fold-into-survivor and rebuild-will-recompute rules.
			if _, err := a.ParityUpdateDelta(t, f.LBAs, f.Deltas); err != nil {
				return t, err
			}
			continue
		}
		byDisk[l.pDisk] = append(byDisk[l.pDisk], &rowWork{row: l.row, fix: f})
	}

	dataMode := a.dataMode()
	done := t
	for disk, rows := range byDisk {
		sort.Slice(rows, func(i, j int) bool { return rows[i].row < rows[j].row })

		// Phase 1: read stale parities in consecutive runs.
		phase1 := t
		for start := 0; start < len(rows); {
			end := start + 1
			for end < len(rows) && rows[end].row == rows[end-1].row+1 {
				end++
			}
			n := end - start
			var buf []byte
			if dataMode {
				buf = make([]byte, n*blockdev.PageSize)
			}
			a.stats.ParityReads += int64(n)
			c, err := a.disks[disk].ReadPages(t, rows[start].row, n, buf)
			if err != nil {
				return t, err
			}
			phase1 = sim.MaxTime(phase1, c)
			if dataMode {
				for i := 0; i < n; i++ {
					rows[start+i].p = buf[i*blockdev.PageSize : (i+1)*blockdev.PageSize]
				}
			}
			start = end
		}

		// Q parities (RAID-6) read per matching row from the Q disks.
		if a.cfg.Level == Level6 {
			for _, rw := range rows {
				l := a.geo.locate(rw.fix.LBAs[0])
				var qbuf []byte
				if dataMode {
					qbuf = make([]byte, blockdev.PageSize)
				}
				a.stats.ParityReads++
				c, err := a.disks[l.qDisk].ReadPages(t, l.row, 1, qbuf)
				if err != nil {
					return t, err
				}
				phase1 = sim.MaxTime(phase1, c)
				rw.q = qbuf
			}
		}

		// Fold deltas in memory.
		if dataMode {
			for _, rw := range rows {
				for i, lba := range rw.fix.LBAs {
					if rw.fix.Deltas == nil || rw.fix.Deltas[i] == nil {
						continue
					}
					li := a.geo.locate(lba)
					blockdev.XORInto(rw.p, rw.fix.Deltas[i])
					if rw.q != nil {
						gfMulInto(rw.q, rw.fix.Deltas[i], gfPow(li.dataIdx))
					}
				}
			}
		}

		// Phase 2: write repaired parities back in runs.
		for start := 0; start < len(rows); {
			end := start + 1
			for end < len(rows) && rows[end].row == rows[end-1].row+1 {
				end++
			}
			n := end - start
			var buf []byte
			if dataMode {
				buf = make([]byte, n*blockdev.PageSize)
				for i := 0; i < n; i++ {
					copy(buf[i*blockdev.PageSize:], rows[start+i].p)
				}
			}
			a.stats.ParityWrites += int64(n)
			a.stats.ParityFixes += int64(n)
			c, err := a.disks[disk].WritePages(phase1, rows[start].row, n, buf)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
			start = end
		}
		if a.cfg.Level == Level6 {
			for _, rw := range rows {
				l := a.geo.locate(rw.fix.LBAs[0])
				a.stats.ParityWrites++
				c, err := a.disks[l.qDisk].WritePages(phase1, l.row, 1, rw.q)
				if err != nil {
					return t, err
				}
				done = sim.MaxTime(done, c)
			}
		}
		for _, rw := range rows {
			a.stale.Remove(rw.row)
		}
	}
	return done, nil
}
