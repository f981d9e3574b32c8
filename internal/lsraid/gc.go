package lsraid

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// gcCopyHook, when non-nil (white-box tests only), observes every live
// page the collector copies forward.
var gcCopyHook func(lba int64, data []byte)

// gc reclaims segments until the free count clears the reserve. Victim
// selection is greedy (most dead pages); live pages are copied forward
// through the normal staging path, so they re-enter the log with fresh
// parity and the old segment drops to zero live pages.
func (a *Array) gc(t sim.Time) (sim.Time, error) {
	a.inGC = true
	defer func() { a.inGC = false }()
	done := t
	for a.freeCount <= reserveSegs {
		v := a.pickVictim()
		if v < 0 {
			break // nothing reclaimable; the logical-capacity bound keeps this unreachable under load
		}
		c, err := a.collect(t, v)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// pickVictim chooses the next segment to collect: the committed, full,
// not open segment with the most dead pages (the lowest index on a tie).
func (a *Array) pickVictim() int {
	best, bestDead := -1, int64(0)
	for s := int64(0); s < a.numSegs; s++ {
		m := &a.segs[s]
		if m.Seq == 0 || int32(s) == a.open || m.Rows < a.cfg.SegRows {
			continue
		}
		if dead := a.segPages - int64(a.live[s]); dead > bestDead {
			best, bestDead = int(s), dead
		}
	}
	return best
}

// collect copies the victim's live pages forward and frees it. A page is
// live iff the L2P map still names this exact slot — which it does not
// once the page is overwritten, shadowed by a newer version staged in
// NVRAM, or declared lost (the loss stays recorded; there is nothing to
// copy).
func (a *Array) collect(t sim.Time, v int) (sim.Time, error) {
	m := &a.segs[v]
	done := t
	var buf []byte
	if a.DataMode() {
		buf = blockdev.GetPage()
		defer blockdev.PutPage(buf)
	}
	for idx, lba := range m.LBAs {
		if a.l2p[lba] != (phys{seg: int32(v), idx: int32(idx)}) {
			continue // dead
		}
		c, err := a.readPage(t, lba, buf)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
		a.Counters().GCCopies++
		if gcCopyHook != nil {
			gcCopyHook(lba, buf)
		}
		c, err = a.writePage(t, lba, buf)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	// Free the victim: every page the map still named there has moved.
	m.Seq, m.Rows, m.LBAs = 0, 0, m.LBAs[:0]
	a.live[v] = 0
	a.freeCount++
	a.Counters().GCSegments++
	if a.open == int32(v) {
		a.open = -1
	}
	return done, nil
}
