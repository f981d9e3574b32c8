package lsraid

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// CrashRebuildState models power loss: the volatile rebuild watermark is
// forgotten, and the derived L2P/liveness state is rebuilt by replaying
// the NVRAM segment summaries and staged row buffer.
func (a *Array) CrashRebuildState() {
	a.Members.CrashRebuildState()
	a.replay()
}

// replay rebuilds all volatile lookup state — the L2P map, per-segment
// live counts, the free count, the pending index — from the NVRAM
// summaries, staged row buffer and lost set. It is the crash-recovery path
// (CrashRebuildState) and must be a pure function of NVRAM state:
// running it twice yields identical state (tested via StateDigest).
func (a *Array) replay() {
	a.inGC = false
	for i := range a.l2p {
		a.l2p[i] = noPhys
	}
	clear(a.pendingIdx)
	a.mapped = 0
	a.live = make([]int32, a.numSegs)
	a.freeCount = 0

	// Apply summaries in allocation order: a later segment's mapping of
	// the same LBA supersedes an earlier one's.
	order := make([]int, 0, a.numSegs)
	for s := int64(0); s < a.numSegs; s++ {
		if a.segs[s].Seq != 0 {
			order = append(order, int(s))
		} else {
			a.freeCount++
		}
	}
	sort.Slice(order, func(i, j int) bool { return a.segs[order[i]].Seq < a.segs[order[j]].Seq })
	dc := int64(a.dc())
	for _, s := range order {
		m := &a.segs[s]
		for idx := int64(0); idx < m.Rows*dc; idx++ {
			lba := m.LBAs[idx]
			if prev, ok := a.committed(lba); ok {
				a.live[prev.seg]--
			}
			a.setCommitted(lba, phys{seg: int32(s), idx: int32(idx)})
			a.live[s]++
		}
	}
	// Staged pages shadow their committed copies, and lost pages have
	// none: neither is live. Nothing is in flight after a power loss:
	// the host pages NVRAM holds are the staged ones.
	a.stagedHost, a.flyHead, a.flyLen, a.flyingHost = 0, 0, 0, 0
	for i, p := range a.staged() {
		a.pendingIdx[p.lba] = int32(a.rowHead + i + 1)
		a.unmap(p.lba)
		if !p.gc {
			a.stagedHost++
		}
	}
	for lba := range a.l2p {
		if a.lost.Has(int64(lba)) {
			a.unmap(int64(lba))
		}
	}
}

// CheckInvariants recomputes the derived state from NVRAM first
// principles and cross-checks the incrementally maintained version, plus
// the segment accounting: every live page is mapped, and no segment has
// more live pages than it committed. It is
// what the property tests (and any rig that wants to) call after
// arbitrary op sequences.
func (a *Array) CheckInvariants() error {
	dc := int64(a.dc())
	// Summary shape.
	var committed int64
	for s := int64(0); s < a.numSegs; s++ {
		m := &a.segs[s]
		if m.Seq == 0 {
			if m.Rows != 0 {
				return fmt.Errorf("lsraid: free segment %d has %d rows", s, m.Rows)
			}
			continue
		}
		if m.Rows < 0 || m.Rows > a.cfg.SegRows {
			return fmt.Errorf("lsraid: segment %d rows %d outside [0,%d]", s, m.Rows, a.cfg.SegRows)
		}
		if int64(len(m.LBAs)) != m.Rows*dc {
			return fmt.Errorf("lsraid: segment %d summary has %d lbas for %d rows", s, len(m.LBAs), m.Rows)
		}
		if int32(s) != a.open && m.Rows != a.cfg.SegRows {
			return fmt.Errorf("lsraid: non-open segment %d is partial (%d rows)", s, m.Rows)
		}
		committed += m.Rows * dc
		// The summary codec must round-trip its own encoding: it is the
		// on-NVRAM representation replay depends on.
		dec, err := DecodeSummary(EncodeSummary(m))
		if err != nil {
			return fmt.Errorf("lsraid: segment %d summary does not round-trip: %v", s, err)
		}
		if dec.Seq != m.Seq || dec.Rows != m.Rows || len(dec.LBAs) != len(m.LBAs) {
			return fmt.Errorf("lsraid: segment %d summary round-trip mismatch", s)
		}
		for i := range m.LBAs {
			if dec.LBAs[i] != m.LBAs[i] {
				return fmt.Errorf("lsraid: segment %d summary lba %d round-trip mismatch", s, i)
			}
		}
	}
	// Recompute the volatile state and compare.
	want := &Array{
		Members: a.Members, cfg: a.cfg, segPages: a.segPages,
		numSegs: a.numSegs, logical: a.logical,
		segs: a.segs, open: a.open,
		rowBuf: a.rowBuf, rowHead: a.rowHead, lost: a.lost,
		l2p: make([]phys, a.logical), pendingIdx: make([]int32, a.logical),
	}
	want.replay()
	if want.freeCount != a.freeCount {
		return fmt.Errorf("lsraid: free count %d, replay says %d", a.freeCount, want.freeCount)
	}
	if want.mapped != a.mapped {
		return fmt.Errorf("lsraid: l2p has %d entries, replay says %d", a.mapped, want.mapped)
	}
	for lba, ph := range a.l2p {
		if want.l2p[lba] != ph {
			return fmt.Errorf("lsraid: l2p[%d]=%v, replay says %v", lba, ph, want.l2p[lba])
		}
	}
	var livePages int64
	for s := int64(0); s < a.numSegs; s++ {
		if a.live[s] != want.live[s] {
			return fmt.Errorf("lsraid: live[%d]=%d, replay says %d", s, a.live[s], want.live[s])
		}
		if a.live[s] < 0 {
			return fmt.Errorf("lsraid: live[%d]=%d negative", s, a.live[s])
		}
		if int64(a.live[s]) > a.segs[s].Rows*dc {
			return fmt.Errorf("lsraid: live[%d]=%d exceeds committed %d", s, a.live[s], a.segs[s].Rows*dc)
		}
		livePages += int64(a.live[s])
	}
	for lba, pos := range a.pendingIdx {
		if pos != want.pendingIdx[lba] {
			return fmt.Errorf("lsraid: pending index for %d is %d, want %d", lba, pos, want.pendingIdx[lba])
		}
	}
	if a.stagedHost != want.stagedHost {
		return fmt.Errorf("lsraid: %d host pages counted staged, the row buffer holds %d", a.stagedHost, want.stagedHost)
	}
	if a.stagedHost+a.flyingHost > nvSegs*a.segPages {
		return fmt.Errorf("lsraid: %d host pages staged and %d in flight exceed %d segments (%d pages)",
			a.stagedHost, a.flyingHost, nvSegs, nvSegs*a.segPages)
	}
	// Accounting identity: live + dead + free == physical data capacity,
	// and every live page is mapped.
	if livePages != a.mapped {
		return fmt.Errorf("lsraid: %d live pages but %d mapped", livePages, a.mapped)
	}
	if committed < livePages {
		return fmt.Errorf("lsraid: negative dead pages: committed %d live %d", committed, livePages)
	}
	return nil
}

// StateDigest hashes the engine's durable state — the encoded segment
// summaries (in slot order), the open pointer, the sequence counter, and
// the staged row buffer — plus the derived L2P map. Replay idempotence
// (crash, replay, digest; replay again, digest) must hold exactly.
func (a *Array) StateDigest() uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(v >> (8 * i))
		}
		h.Write(scratch[:])
	}
	putU64(uint64(a.numSegs))
	putU64(uint64(a.logical))
	putU64(a.nextSeq)
	putU64(uint64(a.open))
	for s := int64(0); s < a.numSegs; s++ {
		h.Write(EncodeSummary(&a.segs[s]))
	}
	for _, p := range a.staged() {
		putU64(uint64(p.lba))
		if p.data != nil {
			h.Write(p.data)
		}
	}
	// The derived map, in ascending LBA order.
	for lba, ph := range a.l2p {
		if ph == noPhys {
			continue
		}
		putU64(uint64(lba))
		putU64(uint64(ph.seg)<<32 | uint64(uint32(ph.idx)))
	}
	return h.Sum64()
}

// GCStats exposes the log-specific counters without widening the shared
// raid.Stats surface consumers already read.
func (a *Array) GCStats() (copies, segments int64) {
	s := a.Stats()
	return s.GCCopies, s.GCSegments
}

// FreeSegments reports the current free-segment count (tests, gauges).
func (a *Array) FreeSegments() int64 { return a.freeCount }
