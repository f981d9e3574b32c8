package lsraid

import (
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Scrub walks every committed physical row through the member layer's
// scrub row: single unreadable pages are decoded and rewritten in place,
// and — in data mode — parity that disagrees with the data is recomputed
// (the single-parity attribution rule: data wins). A row beyond tolerance
// is reported and loses its unreadable pages. Rows with a missing member
// are skipped; the rebuild will heal them.
func (a *Array) Scrub(t sim.Time) (done sim.Time, rep raid.ScrubReport, err error) {
	done = t
	for seg := int64(0); seg < a.numSegs; seg++ {
		m := &a.segs[seg]
		if m.Seq == 0 {
			continue
		}
		for r := int64(0); r < m.Rows; r++ {
			row := seg*a.cfg.SegRows + r
			if a.holes(row) > 0 {
				rep.RowsSkipped++
				continue
			}
			rep.RowsScanned++
			c, lost, err := a.ScrubRow(t, row, &rep)
			if err != nil {
				return done, rep, err
			}
			if lost != 0 {
				a.lose(row, lost)
			}
			done = sim.MaxTime(done, c)
			t = c
		}
	}
	return done, rep, nil
}
