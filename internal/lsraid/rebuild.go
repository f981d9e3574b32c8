package lsraid

// The member rebuild is the raid.Members window, embedded in Array: a
// volatile row watermark routes reads/writes (Missing treats un-rebuilt
// rows of the target as absent), core checkpoints the watermark in NVRAM
// and resumes it after a crash via ResumeRebuild, and each live row is
// the layer's parity-row rebuild. This file is what the log supplies to
// it: which rows are live (segRowCommitted) and the one loss mapping
// (lose), from a member row to the logical pages stored there.

// segRowCommitted reports whether member row falls inside the committed
// prefix of an allocated segment — i.e. whether its contents are
// meaningful. Uncommitted rows may hold torn garbage from interrupted
// flushes; nothing references them.
func (a *Array) segRowCommitted(row int64) bool {
	seg := row / a.cfg.SegRows
	if seg >= a.numSegs {
		return false
	}
	m := &a.segs[seg]
	return m.Seq != 0 && row%a.cfg.SegRows < m.Rows
}

// lose is the log's loss mapping: the live logical pages that committed
// row holds on the members in disks are declared unrecoverable, loudly
// and attributably, and their slots die with them. A page whose copy
// there is dead — overwritten, or shadowed by a newer version staged in
// NVRAM — loses nothing: it is served from its newer home.
func (a *Array) lose(row int64, disks uint32) {
	seg := row / a.cfg.SegRows
	m := &a.segs[seg]
	dc := int64(a.dc())
	for k := int64(0); k < dc; k++ {
		idx := row%a.cfg.SegRows*dc + k
		if idx >= int64(len(m.LBAs)) {
			break
		}
		p := seg*a.segPages + idx
		if disk, _ := a.Members.DataLocation(p); disks&(1<<uint(disk)) == 0 {
			continue
		}
		if lba := int64(m.LBAs[idx]); a.l2p[lba] == int32(p+1) {
			a.lost.Add(lba)
			a.Counters().LostPages++
			a.unmap(lba)
		}
	}
}
