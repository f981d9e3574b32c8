package lsraid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// ReadPages implements the data-path read. Unwritten pages read as
// zeros, like a fresh volume.
func (a *Array) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	if lba < 0 || lba+int64(count) > a.logical {
		return t, blockdev.ErrOutOfRange
	}
	done := t
	for i := 0; i < count; i++ {
		c, err := a.readPage(t, lba+int64(i), blockdev.Page(buf, i))
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// WritePages appends the pages to the log via the NVRAM row buffer.
func (a *Array) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	if lba < 0 || lba+int64(count) > a.logical {
		return t, blockdev.ErrOutOfRange
	}
	done := t
	for i := 0; i < count; i++ {
		c, err := a.writePage(t, lba+int64(i), blockdev.Page(buf, i))
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// WriteNoParity exists for the KDD protocol ("write data now, repay
// parity later"). The log has no later: every flush carries parity, so
// this is a plain append — which is exactly the point of the backend.
func (a *Array) WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	a.Counters().NoParityWr += int64(count)
	return a.WritePages(t, lba, count, buf)
}

// WriteRow writes one logical parity row (one page per data chunk, in
// RowPeers order). The pages just join the log like any other writes;
// full-stripe batching falls out of the row buffer.
func (a *Array) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	peers := a.RowPeers(firstLBA)
	if err := blockdev.CheckBuf(buf, len(peers)); err != nil {
		return t, err
	}
	done := t
	for i, lba := range peers {
		if lba < 0 || lba >= a.logical {
			return done, blockdev.ErrOutOfRange
		}
		c, err := a.writePage(t, lba, blockdev.Page(buf, i))
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// writePage stages one host page into the NVRAM row buffer and returns
// the time it entered NVRAM, which acknowledges the write:
// battery-backed NVRAM is durable on arrival, so the flush the page may
// trigger runs behind the ack. The page enters at t unless NVRAM already
// holds nvSegs segments' worth of host pages, staged or in flight; then
// it waits for room (admit), and the flush it triggers starts when it
// enters. Staging itself is an NVRAM write — free in the device-time
// model; all member I/O happens in commitRow. A write fails only if it
// leaves no trace — the contract the cache's write path is built on (its
// delta describes an update only once the data write succeeded): a page
// whose flush fails is taken back out of NVRAM before the error returns,
// and a page that landed (its row committed, or GC reclaimed the copy it
// superseded, so NVRAM holds its only one) makes the write succeed
// whatever a later row's flush met; that row stays staged for the next
// drain.
func (a *Array) writePage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	var data []byte
	if a.DataMode() && buf != nil {
		data = blockdev.GetPage() // fully overwritten by the copy
		copy(data, buf)
	}
	t = a.admit(t)
	_, err := a.stage(t, lba, data, false)
	return t, err
}

// admit returns when a host page arriving at t may enter NVRAM: at t
// while the host pages staged plus those in flight are under nvSegs
// segments, otherwise when the oldest in-flight row lands. The occupancy
// is kept in the order writes reach the array, like a member's queue:
// rows that landed by a write's entry no longer count for the writes
// after it.
func (a *Array) admit(t sim.Time) sim.Time {
	a.land(t)
	for a.flyLen > 0 && a.stagedHost+a.flyingHost >= nvSegs*a.segPages {
		t = sim.MaxTime(t, a.flying[a.flyHead].done)
		a.land(t)
	}
	return t
}

// land retires the in-flight rows, oldest first, that have landed by t.
func (a *Array) land(t sim.Time) {
	for a.flyLen > 0 && a.flying[a.flyHead].done <= t {
		a.flyingHost -= a.flying[a.flyHead].host
		a.flyHead = (a.flyHead + 1) % len(a.flying)
		a.flyLen--
	}
}

// fly moves a committed row's host pages from staged to in flight until
// the row's member writes complete at done. A row in the ring holds at
// least one host page and admit keeps host pages staged plus in flight
// within nvSegs segments, so the ring's nvSegs*segPages slots never run
// out.
func (a *Array) fly(done sim.Time, host int64) {
	a.stagedHost -= host
	if host == 0 {
		return
	}
	a.flyingHost += host
	a.flying[(a.flyHead+a.flyLen)%len(a.flying)] = landing{done: done, host: host}
	a.flyLen++
}

// stage appends one page to the row buffer, deduplicating against an
// already-staged version, and flushes the buffer once a segment's worth
// is staged (drain); it returns the flush's completion. gc marks a
// copy-forward: GC stages its swept pages through here, outside the host
// pages' bound, and chains its next step on the flush, so a copied page
// is read once and never copied again. data (a blockdev.GetPage buffer,
// nil in timing mode) belongs to the row buffer from the call on,
// whatever the outcome — a failed stage returns it to the pool.
func (a *Array) stage(t sim.Time, lba int64, data []byte, gc bool) (sim.Time, error) {
	if !a.Survivable() {
		blockdev.PutPage(data)
		return t, raid.ErrTooManyFailures
	}
	if e, ok := a.stagedPage(lba); ok {
		blockdev.PutPage(e.data)
		e.data = data
		if e.gc && !gc {
			e.gc = false // the host's version now: it counts against the bound
			a.stagedHost++
		}
		return t, nil
	}
	wasLost := a.lost.Remove(lba) // an overwrite heals a lost page
	p, had := a.committed(lba)
	var seq uint64
	if had {
		seq = a.segs[p/a.segPages].Seq
		a.unmap(lba) // the committed copy is dead the moment NVRAM holds a newer one
	}
	a.l2p[lba] = ^int32(len(a.rowBuf))
	a.rowBuf = append(a.rowBuf, pending{lba: lba, data: data, gc: gc})
	if !gc {
		a.stagedHost++
	}
	done, err := a.drain(t)
	if err == nil || a.l2p[lba] >= 0 || had && a.segs[p/a.segPages].Seq != seq {
		return done, nil
	}
	a.unstage(lba)
	if had {
		a.commit(lba, p)
	}
	if wasLost {
		a.lost.Add(lba)
	}
	return done, err
}

// unstage takes lba's staged page back out of the row buffer; lba is
// left with no copy.
func (a *Array) unstage(lba int64) {
	pos := int(^a.l2p[lba])
	blockdev.PutPage(a.rowBuf[pos].data)
	if !a.rowBuf[pos].gc {
		a.stagedHost--
	}
	copy(a.rowBuf[pos:], a.rowBuf[pos+1:])
	a.rowBuf[len(a.rowBuf)-1] = pending{}
	a.rowBuf = a.rowBuf[:len(a.rowBuf)-1]
	a.l2p[lba] = 0
	for i := pos; i < len(a.rowBuf); i++ {
		a.l2p[a.rowBuf[i].lba] = ^int32(i)
	}
}

// staged returns the pages waiting in the NVRAM row buffer, oldest first.
func (a *Array) staged() []pending { return a.rowBuf[a.rowHead:] }

// stagedPage returns the staged version of lba, if one exists.
func (a *Array) stagedPage(lba int64) (*pending, bool) {
	v := a.l2p[lba]
	if v >= 0 {
		return nil, false
	}
	return &a.rowBuf[^v], true
}

// compactRowBuf slides the queue back to the front of rowBuf once the
// drained prefix is at least as long as half the queue, so the backing
// array is reused instead of regrown and an entry moves at most twice
// per entry drained past it.
func (a *Array) compactRowBuf() {
	live := len(a.rowBuf) - a.rowHead
	if 2*a.rowHead < live {
		return
	}
	copy(a.rowBuf, a.rowBuf[a.rowHead:])
	clear(a.rowBuf[live:]) // stale copies must not outlive the entries that own their pages
	a.rowBuf = a.rowBuf[:live]
	a.rowHead = 0
	for i, p := range a.rowBuf {
		a.l2p[p.lba] = ^int32(i)
	}
}

// drain flushes the NVRAM buffer a segment at a time: it commits
// nothing until a segment's worth of pages (segPages) is staged, then
// every full row, each issued at the previous row's completion, so each
// member writes the flush as one sequential run. It returns the flush's
// completion, which only the flush's own chain (GC copy-forward) waits
// for: a host write is acknowledged when its page enters NVRAM
// (writePage). It is re-entered by GC copy-forward (which stages through
// stage); the loop structure makes that safe — whoever runs first
// flushes the buffer prefix.
func (a *Array) drain(t sim.Time) (sim.Time, error) {
	if int64(len(a.staged())) < a.segPages {
		return t, nil
	}
	done := t
	for len(a.staged()) >= a.dc() {
		c, err := a.commitRow(t)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// ensureOpen makes sure an open segment with room exists, running GC
// first when free segments hit the reserve (unless already collecting —
// GC's own flushes draw down the reserve instead of recursing).
func (a *Array) ensureOpen(t sim.Time) (sim.Time, error) {
	if a.open >= 0 && a.segs[a.open].Rows < a.cfg.SegRows {
		return t, nil
	}
	done := t
	if !a.inGC && a.freeCount <= reserveSegs {
		c, err := a.gc(t)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		// GC copy-forward flushes through the normal path and may have
		// opened (and partially filled) a fresh segment already.
		if a.open >= 0 && a.segs[a.open].Rows < a.cfg.SegRows {
			return done, nil
		}
	}
	for s := int64(0); s < a.numSegs; s++ {
		if a.segs[s].Seq == 0 {
			lbas := a.segs[s].LBAs[:0]
			if lbas == nil { // first open: the summary's one allocation
				lbas = make([]uint32, 0, a.segPages)
			}
			a.segs[s] = segMeta{Seq: a.nextSeq + 1, Rows: 0, LBAs: lbas}
			a.nextSeq++
			a.freeCount--
			a.open = int32(s)
			return done, nil
		}
	}
	return done, ErrNoSpace
}

// commitRow writes the buffer's first full row as an append — one
// stripe of data pages and their parity, then the NVRAM metadata commit.
// A crash anywhere before the commit leaves the staged pages in NVRAM;
// the interrupted row is rewritten from scratch later.
func (a *Array) commitRow(t sim.Time) (done sim.Time, err error) {
	done, err = a.ensureOpen(t)
	if err != nil {
		return done, err
	}
	if len(a.staged()) < a.dc() {
		// GC's own drain (re-entered through copy-forward) already
		// flushed the prefix we were called for.
		return done, nil
	}
	dc := a.dc()
	seg := a.open
	row := int64(seg)*a.cfg.SegRows + a.segs[seg].Rows
	entries := a.staged()[:dc]
	if a.Holes(row) > 1 {
		return done, raid.ErrTooManyFailures // single parity cannot imply two holes
	}
	if bugSummaryFirst {
		a.commitSummary(seg, entries)
	}
	c, err := a.WriteStripe(done, row, func(k int) []byte { return entries[k].data })
	if err != nil {
		return done, err
	}
	if !bugSummaryFirst {
		a.commitSummary(seg, entries)
	}
	var host int64
	for _, e := range entries {
		blockdev.PutPage(e.data) // the members hold their own copies now
		if !e.gc {
			host++
		}
	}
	a.fly(c, host)
	clear(entries)
	a.compactRowBuf()
	return sim.MaxTime(done, c), nil
}

// commitSummary is a row's NVRAM commit: flip the mapping, append the
// summary, take the staged pages out of the row buffer. It is the atomic
// durability point of the flush, so it runs once the row's member writes
// have landed; the caller releases the pages' buffers.
func (a *Array) commitSummary(seg int32, entries []pending) {
	m := &a.segs[seg]
	base := int64(seg)*a.segPages + int64(len(m.LBAs))
	for k, e := range entries {
		a.commit(e.lba, base+int64(k))
		m.LBAs = append(m.LBAs, uint32(e.lba))
	}
	m.Rows++
	a.rowHead += len(entries)
}

// readPage serves one logical page: NVRAM-staged version first, then the
// committed copy through the member layer — a direct read, or a decode of
// its row when the member is missing or the page unreadable. A row beyond
// tolerance loses the page, loudly. GC copy-forward reads through here.
func (a *Array) readPage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if e, ok := a.stagedPage(lba); ok {
		if buf != nil {
			if e.data != nil {
				copy(buf, e.data)
			} else {
				clear(buf)
			}
		}
		return t, nil // NVRAM hit, no device I/O
	}
	if a.lost.Has(lba) {
		return t, fmt.Errorf("%w: page %d lost", raid.ErrUnrecoverable, lba)
	}
	p, ok := a.committed(lba)
	if !ok {
		clear(buf)
		return t, nil // never written: fresh-volume zeros
	}
	done, err := a.ReadData(t, p, buf)
	if errors.Is(err, raid.ErrUnrecoverable) || errors.Is(err, raid.ErrTooManyFailures) {
		disk, row := a.Members.DataLocation(p)
		a.lose(row, 1<<uint(disk))
		return done, fmt.Errorf("%w: page %d (%v)", raid.ErrUnrecoverable, lba, err)
	}
	return done, err
}
