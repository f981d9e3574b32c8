package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// This file is the row primitive every degraded and repair path of both
// engines is built from: read a row's members (readRow), decode its
// erasures (solveRow), fold data into parity (encode), write parity back
// (writeParity) and heal latent pages in place (healMedia). The callers
// differ only in data: which members they distrust, which pages they
// write back, which counters they charge.

// rowState holds one parity row's pages as read from the members, plus
// which of them could not be read.
type rowState struct {
	rl     rowLoc
	pages  [][]byte // by position (rowLoc.member); nil when erased or in timing mode
	erased []int    // positions that were missing, distrusted or unreadable, ascending
	media  uint32   // member disks distrusted or failing with ErrMedia
	reads  int      // member reads issued
}

func (st *rowState) data() [][]byte { return st.pages[:len(st.rl.dataDisks)] }
func (st *rowState) par() [][]byte  { return st.pages[len(st.rl.dataDisks):] }

// page returns the row's page on member disk.
func (st *rowState) page(disk int) []byte {
	for k, p := range st.pages {
		if st.rl.member(k) == disk {
			return p
		}
	}
	return nil
}

// erasedDisks returns the members of the erased positions as a bitmask.
func (st *rowState) erasedDisks() uint32 {
	var d uint32
	for _, k := range st.erased {
		d |= 1 << uint(st.rl.member(k))
	}
	return d
}

// release returns every page the row state owns to the pool. Callers of
// readRow defer it; the pages never escape (consumers copy out of them).
func (st *rowState) release() {
	for _, b := range st.pages {
		blockdev.PutPage(b)
	}
}

// mediaRetries bounds re-reads of a member page after ErrMedia before
// redundancy is consulted: transient glitches clear on a retry, latent
// faults and detected bit-rot do not.
const mediaRetries = 2

// memberRead reads one page from member disk with bounded retry on media
// errors, so a transient glitch never escalates into a reconstruction
// (or, worse, aborts one already in progress).
func (m *Members) memberRead(t sim.Time, disk int, row int64, buf []byte) (sim.Time, error) {
	done, err := m.disks[disk].ReadPages(t, row, 1, buf)
	for r := 0; err != nil && errors.Is(err, blockdev.ErrMedia) && r < mediaRetries; r++ {
		done, err = m.disks[disk].ReadPages(done, row, 1, buf)
	}
	return done, err
}

// readMember reads one page from a member disk, counting it as a rebuild/
// reconstruction read.
func (m *Members) readMember(t sim.Time, disk int, row int64, buf []byte) (sim.Time, error) {
	m.stats.RebuildReads++
	return m.memberRead(t, disk, row, buf)
}

// readRow reads every member page of row rl, all issued at t. Missing
// members (failed outright, or the un-rebuilt region of a rebuild target:
// physically readable there, but holding unwritten zeros — never valid as
// a reconstruction source) and members in distrust are erasures without
// I/O; a per-page media error makes the page an erasure and the disk
// media-bad. Any other error aborts; the state is returned either way so
// the caller can release it and charge the reads.
func (m *Members) readRow(t sim.Time, rl rowLoc, distrust uint32) (*rowState, sim.Time, error) {
	n := len(rl.dataDisks) + rl.np
	st := &rowState{rl: rl, pages: make([][]byte, n), media: distrust}
	done := t
	for k := 0; k < n; k++ {
		disk := rl.member(k)
		if distrust&(1<<uint(disk)) == 0 && !m.Missing(disk, rl.row) {
			buf := pageScratch(m.dataMode)
			st.reads++
			c, err := m.memberRead(t, disk, rl.row, buf)
			if err == nil {
				st.pages[k] = buf
				done = sim.MaxTime(done, c)
				continue
			}
			putScratch(buf)
			if !errors.Is(err, blockdev.ErrMedia) {
				return st, t, err
			}
			m.stats.MediaErrors++
			st.media |= 1 << uint(disk)
		}
		st.erased = append(st.erased, k)
	}
	return st, done, nil
}

// recoverable reports whether the row's erasures fit within the level's
// tolerance: one per parity copy.
func recoverable(st *rowState) bool { return len(st.erased) <= st.rl.np }

// decodeRow is the body every repair path shares: read the row with the
// distrusted members as erasures, check that the level can absorb them
// and, in data mode, reconstruct every erased page in place. A row beyond
// tolerance comes back as ErrUnrecoverable with the state (and the read
// completion) intact, for the callers that report or account the loss.
func (m *Members) decodeRow(t sim.Time, rl rowLoc, distrust uint32) (*rowState, sim.Time, error) {
	st, done, err := m.readRow(t, rl, distrust)
	if err != nil {
		return st, t, err
	}
	if !recoverable(st) {
		return st, done, fmt.Errorf("%w: row %d has more erasures than the level tolerates", ErrUnrecoverable, rl.row)
	}
	if m.dataMode {
		if err := solveRow(st); err != nil {
			return st, done, fmt.Errorf("%w: row %d", err, rl.row)
		}
	}
	return st, done, nil
}

// solveRow reconstructs every erased page of the row in place (data mode
// only): the one erasure decoder. The caller has checked recoverable().
func solveRow(st *rowState) error {
	data, par := st.data(), st.par()
	nd := 0 // erased data pages lead st.erased
	for nd < len(st.erased) && st.erased[nd] < len(data) {
		nd++
	}
	switch nd {
	case 0:
		// All data present; erased parity is recomputed below.
	case 1:
		// D_x = (C_j ⊕ Σ_{i≠x} coef(j,i)·D_i) / coef(j,x), from whichever
		// parity copy C_j survives.
		x, j := st.erased[0], 0
		for j < len(par) && par[j] == nil {
			j++
		}
		if j == len(par) {
			return ErrUnrecoverable
		}
		acc := blockdev.GetPage() // fully assigned by the copy below
		copy(acc, par[j])
		for i, d := range data {
			if i != x {
				gfMulInto(acc, d, coef(j, i))
			}
		}
		gfScale(acc, acc, gfInv(coef(j, x)))
		data[x] = acc
	case 2:
		// Two data erasures need both P and Q (RAID-6 decode).
		if len(par) < 2 || par[0] == nil || par[1] == nil {
			return ErrUnrecoverable
		}
		x, y := st.erased[0], st.erased[1]
		acc := [2][]byte{blockdev.GetPage(), blockdev.GetPage()} // fully assigned by the copies below
		copy(acc[0], par[0])
		copy(acc[1], par[1])
		for i, d := range data {
			if d != nil {
				encode(acc[:], d, i)
			}
		}
		// acc[0] = D_x ⊕ D_y ; acc[1] = g^x·D_x ⊕ g^y·D_y.
		gfMulInto(acc[1], acc[0], coef(1, y)) // (g^x ⊕ g^y)·D_x
		gfScale(acc[1], acc[1], gfInv(coef(1, x)^coef(1, y)))
		blockdev.XORInto(acc[0], acc[1]) // D_y = (D_x ⊕ D_y) ⊕ D_x
		data[x], data[y] = acc[1], acc[0]
	default:
		return ErrUnrecoverable
	}
	for j := range par {
		if par[j] == nil {
			par[j] = blockdev.GetZeroPage()
			for i, d := range data {
				gfMulInto(par[j], d, coef(j, i))
			}
		}
	}
	return nil
}

// encode folds data page i of a row into its parity pages: par[j] ^=
// coef(j, i)·page. Nil parity pages (timing mode, RAID-5's absent Q, a
// copy the caller is not maintaining) are skipped.
func encode(par [][]byte, page []byte, i int) {
	for j, p := range par {
		if p != nil {
			gfMulInto(p, page, coef(j, i))
		}
	}
}

// newParity returns np zeroed parity pages from the page pool in data
// mode, nil pages in timing mode; putParity hands them back.
func newParity(np int, data bool) (par [2][]byte) {
	for j := 0; data && j < np; j++ {
		par[j] = blockdev.GetZeroPage()
	}
	return par
}

func putParity(par [2][]byte) {
	blockdev.PutPage(par[0])
	blockdev.PutPage(par[1])
}

// parityMissing counts the parity members of a row that are missing.
func (m *Members) parityMissing(ps parity, row int64) int {
	n := 0
	for _, d := range ps.par[:ps.np] {
		if m.Missing(d, row) {
			n++
		}
	}
	return n
}

// rowErasures counts the missing pages of one row (data + parity).
func (m *Members) rowErasures(rl rowLoc) int {
	er := m.parityMissing(rl.parity, rl.row)
	for _, disk := range rl.dataDisks {
		if m.Missing(disk, rl.row) {
			er++
		}
	}
	return er
}

// writeParity writes pages onto the row's parity members, all issued at
// t (P and Q are different spindles and nothing orders them), leaving out
// missing members and those in skip. It returns how many it wrote.
func (m *Members) writeParity(t sim.Time, ps parity, row int64, pages [][]byte, skip uint32) (done sim.Time, wrote int, err error) {
	done = t
	for j, d := range ps.par[:ps.np] {
		if skip&(1<<uint(d)) != 0 || m.Missing(d, row) {
			continue
		}
		m.stats.ParityWrites++
		c, err := m.disks[d].WritePages(t, row, 1, pages[j])
		if err != nil {
			return t, wrote, err
		}
		done = sim.MaxTime(done, c)
		wrote++
	}
	return done, wrote, nil
}

// healMedia writes the row's (decoded) pages back onto the members in
// set, all issued at t, so remap-on-write heals their latent pages in
// place. Best effort: a write that fails leaves the page bad for the next
// scrub. It returns how many writes landed.
func (m *Members) healMedia(t sim.Time, st *rowState, set uint32) (sim.Time, int) {
	done, healed := t, 0
	for k, page := range st.pages {
		disk := st.rl.member(k)
		if set&(1<<uint(disk)) == 0 {
			continue
		}
		if c, err := m.disks[disk].WritePages(t, st.rl.row, 1, page); err == nil {
			done = sim.MaxTime(done, c)
			healed++
		}
	}
	return done, healed
}

// ReadData reads data page p of the layout (a parity array's logical
// page; a log's physical slot) into buf: a direct member read, a decode
// of its row when the member is missing (degradedRead) or the page stays
// unreadable after the retries (readRepair). A row beyond tolerance
// fails with ErrTooManyFailures (too many members missing) or
// ErrUnrecoverable (a second fault met on the way); nothing is served.
func (m *Members) ReadData(t sim.Time, p int64, buf []byte) (sim.Time, error) {
	l := m.geo.locate(p)
	if m.pageLost(l.disk, l.row) {
		return t, fmt.Errorf("%w: page %d lost in a rebuild window", ErrUnrecoverable, p)
	}
	if m.Missing(l.disk, l.row) {
		return m.degradedRead(t, l, buf)
	}
	m.stats.DataReads++
	c, err := m.memberRead(t, l.disk, l.row, buf)
	if err == nil {
		return c, nil
	}
	if !errors.Is(err, blockdev.ErrMedia) {
		return t, err
	}
	// One page of an otherwise healthy member is unreadable: repair just
	// that page from redundancy instead of failing the disk.
	m.stats.MediaErrors++
	return m.readRepair(t, l, buf)
}

// readRepair reconstructs the single unreadable data page at l from the
// surviving members of its row and writes it back in place, so one latent
// sector error is healed without declaring the member disk failed.
func (m *Members) readRepair(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	if m.staleRow(l.row) {
		// Parity of this row is stale (WriteNoParity window): it cannot
		// reconstruct the lost page. This is the unrecoverable corner the
		// paper's delayed-parity scheme accepts between write and cleaning.
		return t, fmt.Errorf("%w: media error on row %d while its parity is stale", ErrStaleParity, l.row)
	}
	st, done, err := m.decodeRow(t, m.geo.locateRow(l.row), 1<<uint(l.disk))
	defer st.release()
	if err != nil {
		return t, err
	}
	if buf != nil {
		copy(buf, st.pages[l.dataIdx])
	}
	// The data is reconstructed and served even if the write-back fails;
	// the page stays bad and the next scrub retries.
	m.stats.ReadRepairs++
	done, _ = m.healMedia(done, st, 1<<uint(l.disk))
	return done, nil
}

// degradedRead reconstructs the data page at l from surviving members.
// "Missing" is per-row: a rebuild target above the watermark is treated
// exactly like a failed disk for its un-rebuilt rows.
func (m *Members) degradedRead(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	if m.lost[l.row] != 0 {
		// Redundancy of this row was exhausted during a rebuild window and
		// some of its pages were declared lost; reconstruction would serve
		// fabricated bytes.
		return t, fmt.Errorf("%w: row %d holds pages lost in a rebuild window", ErrUnrecoverable, l.row)
	}
	rl := m.geo.locateRow(l.row)
	if m.rowErasures(rl) > l.np {
		return t, ErrTooManyFailures
	}
	if m.staleRow(l.row) {
		// Stale parity cannot reconstruct current data: this is the data
		// loss window the paper closes by resynchronising before use.
		return t, ErrStaleParity
	}
	m.stats.DegradedRead++
	// A survivor page that is unreadable on top of the missing member is
	// one more erasure to the decode — within RAID-6 tolerance even inside
	// a rebuild window.
	st, done, err := m.decodeRow(t, rl, 0)
	defer st.release()
	m.stats.RebuildReads += int64(st.reads)
	if err != nil {
		return t, err
	}
	if buf != nil {
		copy(buf, st.pages[l.dataIdx])
		// Write the decoded content back onto media-bad data pages so the
		// latent error heals in place.
		if heal := st.media &^ rl.mask(); heal != 0 {
			m.stats.ReadRepairs += int64(bits.OnesCount32(heal))
			done, _ = m.healMedia(done, st, heal)
		}
	}
	return done, nil
}

// WriteStripe writes a whole member row: page(i) onto the member holding
// data index i of row, and the parity encoded from them onto the parity
// members, all issued at t. Missing members are skipped — their pages are
// implied by the fresh parity and healed when the rebuild reaches the
// row. page returns nil pages in timing mode.
func (m *Members) WriteStripe(t sim.Time, row int64, page func(i int) []byte) (sim.Time, error) {
	ps, first := m.geo.rotate(row / m.geo.chunkPages)
	par := newParity(ps.np, page(0) != nil)
	defer putParity(par)
	done := t
	for i := 0; i < int(m.geo.dataChunksPerStripe()); i++ {
		p := page(i)
		encode(par[:], p, i)
		disk := (first + i) % m.geo.disks
		if m.Missing(disk, row) {
			continue
		}
		m.stats.DataWrites++
		c, err := m.disks[disk].WritePages(t, row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	c, _, err := m.writeParity(t, ps, row, par[:], 0)
	if err != nil {
		return t, err
	}
	return sim.MaxTime(done, c), nil
}

// ScrubRow is one patrol-scrub row: every readable member page is read,
// unreadable ones are decoded and healed in place, and (in data mode)
// parity that differs from the data is rewritten — the data is trusted,
// it is what the host wrote and re-reads. A row beyond tolerance is
// reported in rep, never patched; its erased members come back for the
// engine's loss accounting.
func (m *Members) ScrubRow(t sim.Time, row int64, rep *ScrubReport) (sim.Time, uint32, error) {
	rl := m.geo.locateRow(row)
	st, done, err := m.decodeRow(t, rl, 0)
	defer st.release()
	if errors.Is(err, ErrUnrecoverable) {
		rep.Unrecoverable = append(rep.Unrecoverable, rl.row)
		return done, st.erasedDisks(), nil
	}
	if err != nil {
		return t, 0, err
	}
	if len(st.erased) > 0 {
		// Write reconstructed pages back, but only onto media-bad disks:
		// pages missing because the whole member failed are the rebuild's
		// job, not the scrub's.
		done, healed := m.healMedia(done, st, st.media)
		rep.MediaRepaired += int64(healed)
		return done, 0, nil
	}
	// All pages readable: cross-check parity against data (data mode only
	// — timing mode has no bytes to compare).
	if !m.dataMode {
		return done, 0, nil
	}
	exp := newParity(rl.np, true)
	defer putParity(exp)
	for i, d := range st.data() {
		encode(exp[:], d, i)
	}
	read := done
	for j, p := range st.par() {
		if !bytes.Equal(exp[j], p) {
			if c, werr := m.disks[rl.par[j]].WritePages(read, rl.row, 1, exp[j]); werr == nil {
				done = sim.MaxTime(done, c)
			}
			rep.ParityFixed++
		}
	}
	return done, 0, nil
}
