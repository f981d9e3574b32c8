package lsraid

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// gcSweepHook, when non-nil (white-box tests only), observes every sweep
// that completed: the collection's start time, its victim and the live
// pages read from it, in the order the append will stage them. The
// pages are still mapped to the victim when it fires.
var gcSweepHook func(t sim.Time, victim int, swept []pending)

// GCStallError is gc giving up after one victim per segment of the log
// with the free segments still not above the reserve. True live counts
// cannot get there — by then every segment dead at the call's start is
// reclaimed, a segment's worth at least by the logical-capacity bound —
// so the live accounting is steering the picker to segments it can
// reclaim nothing from. It wraps ErrNoSpace.
type GCStallError struct{ Victims int }

func (e GCStallError) Error() string {
	return fmt.Sprintf("lsraid: gc collected %d victims without clearing the free-segment reserve", e.Victims)
}

func (GCStallError) Unwrap() error { return ErrNoSpace }

// gc reclaims segments until the free count clears the reserve, at most
// one victim per segment of the log a call (see GCStallError). Victim
// selection is greedy (most dead pages); live pages are copied forward
// through the normal staging path, so they re-enter the log with fresh
// parity and the old segment drops to zero live pages.
func (a *Array) gc(t sim.Time) (sim.Time, error) {
	a.inGC = true
	defer func() { a.inGC = false }()
	done := t
	for victims := 0; a.freeCount <= reserveSegs; victims++ {
		if int64(victims) == a.numSegs {
			return done, GCStallError{victims}
		}
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

// collect copies the victim's live pages forward and frees it, in two
// passes. The sweep reads every live page, all issued at t: each member
// serves its share in ascending row order and the members work in
// parallel, like a multi-page array read. The append then stages the
// pages in summary order, through the same staging path as a host write
// but outside the host pages' NVRAM bound, once the last read has
// completed — so no member seeks between the victim and the open
// segment while the victim is being read.
//
// A page is live iff the L2P map still names this exact slot — which it
// does not once the page is overwritten, shadowed by a newer version
// staged in NVRAM, or declared lost (the loss stays recorded; there is
// nothing to copy). In data mode each swept page is a pool page the row
// buffer adopts when it is staged, so a sweep holds at most segPages
// pages (128, half a MiB, at 32 rows over five members).
//
// A failed sweep read moves nothing: the pages swept so far go back to
// the pool, the victim stays allocated, and the next GC pass retries it
// (a page the read declared lost is no longer live then). A failed
// append leaves the pages staged so far moved and the rest in the
// victim, as a failed host write would.
func (a *Array) collect(t sim.Time, v int) (sim.Time, error) {
	m := &a.segs[v]
	sw := a.sweep[:0]
	defer func() {
		for _, p := range sw {
			blockdev.PutPage(p.data) // nil once staged
		}
		clear(sw)
		a.sweep = sw[:0]
	}()
	done := t
	for idx, lba := range m.LBAs {
		if a.l2p[lba] != (phys{seg: int32(v), idx: int32(idx)}) {
			continue // dead
		}
		var data []byte
		if a.DataMode() {
			data = blockdev.GetPage() // fully overwritten by the read
		}
		sw = append(sw, pending{lba: lba, data: data})
		c, err := a.readPage(t, lba, data)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
	}
	if gcSweepHook != nil {
		gcSweepHook(t, v, sw)
	}
	t = done
	if bugFreeVictimFirst {
		a.freeVictim(v)
	}
	for i := range sw {
		p := &sw[i]
		c, err := a.stage(t, p.lba, p.data, true)
		p.data = nil // the row buffer owns it now, or stage released it
		if err != nil {
			return done, err
		}
		a.Counters().GCCopies++
		done = sim.MaxTime(done, c)
		t = c
	}
	if !bugFreeVictimFirst {
		a.freeVictim(v) // every page the map still named there has moved
	}
	return done, nil
}

// freeVictim returns collected segment v to the free list.
func (a *Array) freeVictim(v int) {
	m := &a.segs[v]
	m.Seq, m.Rows, m.LBAs = 0, 0, m.LBAs[:0]
	a.live[v] = 0
	a.freeCount++
	a.Counters().GCSegments++
	if a.open == int32(v) {
		a.open = -1
	}
}
