package raid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// This file is the row primitive every degraded and repair path is built
// from: read a row's members (readRow), decode its erasures (solveRow),
// fold data into parity (encode), write parity back (writeParity) and
// heal latent pages in place (healMedia). The callers differ only in data:
// which members they distrust, which pages they write back, which
// counters they charge.

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

// release returns every page the row state owns to the pool. Callers of
// readRow defer it; the pages never escape (consumers copy out of them).
func (st *rowState) release() {
	for _, b := range st.pages {
		blockdev.PutPage(b)
	}
}

// readRow reads every member page of row rl, all issued at t. Missing
// members (failed outright, or the un-rebuilt region of a rebuild target:
// physically readable there, but holding unwritten zeros — never valid as
// a reconstruction source) and members in distrust are erasures without
// I/O; a per-page media error makes the page an erasure and the disk
// media-bad. Any other error aborts; the state is returned either way so
// the caller can release it and charge the reads.
func (a *Array) readRow(t sim.Time, rl rowLoc, distrust uint32) (*rowState, sim.Time, error) {
	dataMode := a.dataMode()
	n := len(rl.dataDisks) + rl.np
	st := &rowState{rl: rl, pages: make([][]byte, n), media: distrust}
	done := t
	for k := 0; k < n; k++ {
		disk := rl.member(k)
		if distrust&(1<<uint(disk)) == 0 && !a.Missing(disk, rl.row) {
			buf := pageScratch(dataMode)
			st.reads++
			c, err := a.memberRead(t, disk, rl.row, buf)
			if err == nil {
				st.pages[k] = buf
				done = sim.MaxTime(done, c)
				continue
			}
			putScratch(buf)
			if !errors.Is(err, blockdev.ErrMedia) {
				return st, t, err
			}
			a.stats.MediaErrors++
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
func (a *Array) decodeRow(t sim.Time, rl rowLoc, distrust uint32) (*rowState, sim.Time, error) {
	st, done, err := a.readRow(t, rl, distrust)
	if err != nil {
		return st, t, err
	}
	if !recoverable(st) {
		return st, done, fmt.Errorf("%w: row %d has more erasures than the level tolerates", ErrUnrecoverable, rl.row)
	}
	if a.dataMode() {
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
func (a *Array) parityMissing(ps parity, row int64) int {
	n := 0
	for _, d := range ps.par[:ps.np] {
		if a.Missing(d, row) {
			n++
		}
	}
	return n
}

// rowErasures counts the missing pages of one row (data + parity).
func (a *Array) rowErasures(rl rowLoc) int {
	er := a.parityMissing(rl.parity, rl.row)
	for _, disk := range rl.dataDisks {
		if a.Missing(disk, rl.row) {
			er++
		}
	}
	return er
}

// writeParity writes pages onto the row's parity members, all issued at
// t (P and Q are different spindles and nothing orders them), leaving out
// missing members and those in skip. It returns how many it wrote.
func (a *Array) writeParity(t sim.Time, ps parity, row int64, pages [][]byte, skip uint32) (done sim.Time, wrote int, err error) {
	done = t
	for j, d := range ps.par[:ps.np] {
		if skip&(1<<uint(d)) != 0 || a.Missing(d, row) {
			continue
		}
		a.stats.ParityWrites++
		c, err := a.disks[d].WritePages(t, row, 1, pages[j])
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
func (a *Array) healMedia(t sim.Time, st *rowState, set uint32) (sim.Time, int) {
	done, healed := t, 0
	for k, page := range st.pages {
		disk := st.rl.member(k)
		if set&(1<<uint(disk)) == 0 {
			continue
		}
		if c, err := a.disks[disk].WritePages(t, st.rl.row, 1, page); err == nil {
			done = sim.MaxTime(done, c)
			healed++
		}
	}
	return done, healed
}
