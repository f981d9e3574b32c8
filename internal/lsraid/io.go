package lsraid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// mediaRetries bounds re-reads of a member page after ErrMedia before
// redundancy is consulted, matching the parity engine: transient glitches
// clear on retry, latent faults do not.
const mediaRetries = 2

// dc returns data pages per physical row.
func (a *Array) dc() int { return len(a.disks) - 1 }

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
		c, err := a.readPage(t, lba+int64(i), pageBuf(buf, i))
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
		c, err := a.writePage(t, lba+int64(i), pageBuf(buf, i))
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
	a.stats.NoParityWr += int64(count)
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
		c, err := a.writePage(t, lba, pageBuf(buf, i))
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// writePage stages one page into the NVRAM row buffer, deduplicating
// against an already-staged version, and flushes full rows. Staging
// itself is an NVRAM write — free in the device-time model; all member
// I/O happens in commitRow.
func (a *Array) writePage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if a.failed > 1 {
		return t, raid.ErrTooManyFailures
	}
	a.lost.Remove(lba) // an overwrite heals a lost page
	var data []byte
	if a.dataMode && buf != nil {
		data = blockdev.GetPage() // fully overwritten by the copy
		copy(data, buf)
	}
	if e, ok := a.stagedPage(lba); ok {
		blockdev.PutPage(e.data)
		e.data = data
		return t, nil
	}
	if ph, ok := a.committed(lba); ok {
		a.live[ph.seg]-- // the committed copy is dead the moment NVRAM holds a newer one
	}
	a.rowBuf = append(a.rowBuf, pending{lba: lba, data: data})
	a.pendingIdx[lba] = int32(len(a.rowBuf))
	return a.drain(t)
}

// staged returns the pages waiting in the NVRAM row buffer, oldest first.
func (a *Array) staged() []pending { return a.rowBuf[a.rowHead:] }

// stagedPage returns the staged version of lba, if one exists.
func (a *Array) stagedPage(lba int64) (*pending, bool) {
	pos := a.pendingIdx[lba]
	if pos == 0 {
		return nil, false
	}
	return &a.rowBuf[pos-1], true
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
		a.pendingIdx[p.lba] = int32(i + 1)
	}
}

// drain flushes full rows out of the NVRAM buffer. It is re-entered by
// GC copy-forward (which stages through writePage); the loop structure
// makes that safe — whoever runs first flushes the buffer prefix.
func (a *Array) drain(t sim.Time) (sim.Time, error) {
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
	if !a.inGC && a.freeCount <= int64(a.cfg.ReserveSegs) {
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
			a.segs[s] = segMeta{Seq: a.nextSeq + 1, Rows: 0, LBAs: a.segs[s].LBAs[:0]}
			a.nextSeq++
			a.freeCount--
			a.open = int32(s)
			return done, nil
		}
	}
	return done, ErrNoSpace
}

// commitRow writes the buffer's first full row as an append — data
// pages, then parity, then the NVRAM metadata commit. A crash anywhere
// before the commit leaves the mapping on the old copies and the staged
// pages in NVRAM; the interrupted row is rewritten from scratch later.
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
	t = done
	dc := a.dc()
	seg := a.open
	m := &a.segs[seg]
	row := int64(seg)*a.cfg.SegRows + m.Rows
	entries := a.staged()[:dc]

	holes := 0
	for k := range entries {
		if a.Missing(a.dataDisk(row, k), row) {
			holes++
		}
	}
	if a.Missing(a.parityDisk(row), row) {
		holes++
	}
	if holes > 1 {
		return done, raid.ErrTooManyFailures // single parity cannot imply two holes
	}

	var parity []byte
	if a.dataMode {
		parity = blockdev.GetZeroPage()
		defer blockdev.PutPage(parity)
		for _, e := range entries {
			blockdev.XORInto(parity, e.data)
		}
	}
	for k, e := range entries {
		d := a.dataDisk(row, k)
		if a.Missing(d, row) {
			continue // implied by parity; healed when the rebuild watermark passes
		}
		a.stats.DataWrites++
		c, werr := a.disks[d].WritePages(t, row, 1, e.data)
		if werr != nil {
			if !errors.Is(werr, blockdev.ErrFailed) {
				return done, werr
			}
			a.noteFailed(d)
			if a.failed > 1 {
				return done, raid.ErrTooManyFailures
			}
			continue
		}
		done = sim.MaxTime(done, c)
	}
	pd := a.parityDisk(row)
	if !a.Missing(pd, row) {
		a.stats.ParityWrites++
		c, werr := a.disks[pd].WritePages(t, row, 1, parity)
		if werr != nil {
			if !errors.Is(werr, blockdev.ErrFailed) {
				return done, werr
			}
			a.noteFailed(pd)
			if a.failed > 1 {
				return done, raid.ErrTooManyFailures
			}
		} else {
			done = sim.MaxTime(done, c)
		}
	}

	// NVRAM commit: flip the mapping, append the summary, release the
	// staged pages. This is the atomic durability point of the flush.
	base := m.Rows * int64(dc)
	for k, e := range entries {
		a.setCommitted(e.lba, phys{seg: seg, idx: int32(base + int64(k))})
		a.live[seg]++
		a.pendingIdx[e.lba] = 0
		m.LBAs = append(m.LBAs, e.lba)
		blockdev.PutPage(e.data) // the members hold their own copies now
	}
	m.Rows++
	clear(entries)
	a.rowHead += dc
	a.compactRowBuf()
	return done, nil
}

// readPage serves one logical page: NVRAM-staged version first, then the
// committed copy, reconstructing through parity when the member is
// missing or the page is unreadable.
func (a *Array) readPage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if e, ok := a.stagedPage(lba); ok {
		if buf != nil {
			if e.data != nil {
				copy(buf, e.data)
			} else {
				zero(buf)
			}
		}
		return t, nil // NVRAM hit, no device I/O
	}
	if a.lost.Has(lba) {
		return t, fmt.Errorf("%w: page %d lost", raid.ErrUnrecoverable, lba)
	}
	ph, ok := a.committed(lba)
	if !ok {
		if buf != nil {
			zero(buf)
		}
		return t, nil // never written: fresh-volume zeros
	}
	row, slot := a.physRowSlot(ph)
	d := a.dataDisk(row, slot)
	if a.Missing(d, row) {
		a.stats.DegradedRead++
		return a.reconstruct(t, lba, ph, buf, false)
	}
	a.stats.DataReads++
	done, err := a.memberRead(t, d, row, buf)
	if err == nil {
		return done, nil
	}
	if errors.Is(err, blockdev.ErrMedia) {
		a.stats.MediaErrors++
		return a.reconstruct(done, lba, ph, buf, true)
	}
	if errors.Is(err, blockdev.ErrFailed) {
		a.noteFailed(d)
		if a.failed > 1 {
			return done, raid.ErrTooManyFailures
		}
		a.stats.DegradedRead++
		return a.reconstruct(done, lba, ph, buf, false)
	}
	return done, err
}

// memberRead reads one member page with bounded retry on media errors.
func (a *Array) memberRead(t sim.Time, disk int, row int64, buf []byte) (sim.Time, error) {
	done, err := a.disks[disk].ReadPages(t, row, 1, buf)
	for r := 0; err != nil && errors.Is(err, blockdev.ErrMedia) && r < mediaRetries; r++ {
		done, err = a.disks[disk].ReadPages(done, row, 1, buf)
	}
	return done, err
}

// reconstruct rebuilds the page at ph from its row's surviving pages
// (XOR of the other data slots and parity) into buf. With repair set,
// the rebuilt page is also rewritten in place, clearing a latent media
// fault (read-repair).
func (a *Array) reconstruct(t sim.Time, lba int64, ph phys, buf []byte, repair bool) (sim.Time, error) {
	row, slot := a.physRowSlot(ph)
	target := a.dataDisk(row, slot)
	var acc []byte
	if a.dataMode {
		acc = blockdev.GetZeroPage()
		defer blockdev.PutPage(acc)
	}
	var tmp []byte
	if a.dataMode {
		tmp = blockdev.GetPage()
		defer blockdev.PutPage(tmp)
	}
	done := t
	for k := 0; k < a.dc(); k++ {
		if k == slot {
			continue
		}
		c, err := a.readSurvivor(t, a.dataDisk(row, k), row, tmp, acc)
		if err != nil {
			return done, a.declareLost(lba, err)
		}
		done = sim.MaxTime(done, c)
	}
	c, err := a.readSurvivor(t, a.parityDisk(row), row, tmp, acc)
	if err != nil {
		return done, a.declareLost(lba, err)
	}
	done = sim.MaxTime(done, c)
	if buf != nil && acc != nil {
		copy(buf, acc)
	}
	if repair && !a.Missing(target, row) {
		if c, werr := a.disks[target].WritePages(done, row, 1, acc); werr == nil {
			done = c
			a.stats.ReadRepairs++
		}
	}
	return done, nil
}

// readSurvivor reads one surviving page of a row being reconstructed and
// folds it into the accumulator. Any failure here is a second hole:
// single parity cannot absorb it.
func (a *Array) readSurvivor(t sim.Time, disk int, row int64, tmp, acc []byte) (sim.Time, error) {
	if a.Missing(disk, row) {
		return t, raid.ErrTooManyFailures
	}
	done, err := a.memberRead(t, disk, row, tmp)
	if err != nil {
		if errors.Is(err, blockdev.ErrFailed) {
			a.noteFailed(disk)
		}
		if errors.Is(err, blockdev.ErrMedia) {
			a.stats.MediaErrors++
		}
		return done, err
	}
	if acc != nil {
		blockdev.XORInto(acc, tmp)
	}
	return done, nil
}

// declareLost records a loud, permanent loss of lba unless the failure
// is the crash signal (which recovery handles, not loss accounting).
func (a *Array) declareLost(lba int64, cause error) error {
	if errors.Is(cause, blockdev.ErrCrashed) {
		return cause
	}
	if a.lost.Add(lba) {
		a.stats.LostPages++
	}
	return fmt.Errorf("%w: page %d (second fault while reconstructing: %v)", raid.ErrUnrecoverable, lba, cause)
}

// readPhysInto reads the committed page at ph (for GC copy-forward),
// reconstructing it if its member is missing or unreadable.
func (a *Array) readPhysInto(t sim.Time, lba int64, ph phys, buf []byte) (sim.Time, error) {
	row, slot := a.physRowSlot(ph)
	d := a.dataDisk(row, slot)
	if a.Missing(d, row) {
		a.stats.DegradedRead++
		return a.reconstruct(t, lba, ph, buf, false)
	}
	done, err := a.memberRead(t, d, row, buf)
	if err == nil {
		return done, nil
	}
	if errors.Is(err, blockdev.ErrMedia) {
		a.stats.MediaErrors++
		return a.reconstruct(done, lba, ph, buf, true)
	}
	if errors.Is(err, blockdev.ErrFailed) {
		a.noteFailed(d)
		if a.failed > 1 {
			return done, raid.ErrTooManyFailures
		}
		a.stats.DegradedRead++
		return a.reconstruct(done, lba, ph, buf, false)
	}
	return done, err
}

// pageBuf returns the i-th page of buf, or nil in timing mode.
func pageBuf(buf []byte, i int) []byte {
	if buf == nil {
		return nil
	}
	return buf[i*blockdev.PageSize : (i+1)*blockdev.PageSize]
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
