// Package nvram models the battery-backed RAM the paper assumes storage
// arrays provide (§III-B): the delta staging buffer, the metadata buffer,
// and the metadata log head/tail counters. Contents survive simulated
// power failures — on crash the volatile structures (the primary map) are
// discarded while these objects are handed to the recovery procedure
// intact, which is exactly the persistence contract NVRAM provides.
package nvram

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
)

// StagedDelta is one delta waiting in the staging buffer, keyed by the
// cached DAZ page it applies to.
//
// Ownership of delta payloads. The bytes behind D.Bytes come from a free
// list (delta.ZRLE.Encode, delta.NewRaw) and have exactly one owner at a
// time, who alone may call D.Release:
//
//   - Encode's caller owns a fresh delta until it hands it to Put.
//   - The Staging owns every delta it holds, across a power failure too:
//     the buffer is handed to core.Restore intact, payloads included. It
//     releases a payload when a newer delta for the same page replaces
//     it (Put) and when the page's delta is dropped (Drop).
//   - PackPage passes the drained deltas to its caller, who copies them
//     into the DEZ page image and then either releases each one (it is
//     durable in DEZ) or gives it back with Put (the commit failed).
//   - Get and All lend: the result may be read until the next Put, Drop
//     or PackPage on the buffer, and is never released by the borrower.
//
// This is blockdev.PutPage's convention: a payload nobody releases is
// garbage, never a bug; one released twice, or read after its release,
// is a bug — which the ownership test catches by poisoning every
// released payload before it is reused.
type StagedDelta struct {
	DazPage int64 // SSD cache page index of the old version (lba_daz)
	RaidLBA int64 // storage address of the data (lba_raid)
	D       delta.Delta
}

// Staging is the FIFO delta staging buffer with write coalescing: "only
// the newest version of delta for one DAZ page is maintained" (§III-C).
// When enough delta bytes accumulate to fill a flash page, PackPage
// drains the oldest deltas into one DEZ page image.
//
// The queue is fifo[head:]; entries before head were drained by PackPage
// and wait for compact. index is dense over the owner's DAZ region — one
// int32 per cache page, allocated once: 0 = nothing staged, v > 0 = the
// delta sits at fifo[v-1]. compact rewrites the entries of the deltas it
// moves.
type Staging struct {
	capBytes int
	fifo     []StagedDelta // arrival order, coalesced; DazPage -1 = dropped
	head     int           // first entry of fifo not yet drained
	first    int64         // first SSD page of the DAZ region
	index    []int32       // DazPage-first -> position in fifo, plus one
	n        int           // live staged deltas
	bytes    int

	// packed is PackPage's result, reused across calls.
	packed []StagedDelta

	// Statistics.
	Coalesced   int64 // deltas replaced in place by a newer version
	Invalidated int64 // deltas dropped because the page was reclaimed
}

// smallDelta is the encoded size the queue and the packed page are
// allocated for at first use: half the mean delta of the most compressible
// content modelled (KDD-12 %, about 490 bytes). A burst of smaller deltas
// regrows them.
const smallDelta = 256

// NewStaging returns a staging buffer for the deltas of the DAZ pages
// [firstPage, firstPage+pages) that packs a page once capBytes of deltas
// are queued. capBytes must be at least one page.
func NewStaging(capBytes int, firstPage, pages int64) *Staging {
	if capBytes < blockdev.PageSize {
		panic("nvram: staging buffer smaller than one page")
	}
	return &Staging{capBytes: capBytes, first: firstPage, index: make([]int32, pages)}
}

// Len returns the number of live staged deltas.
func (s *Staging) Len() int { return s.n }

// Bytes returns the total encoded bytes of live staged deltas.
func (s *Staging) Bytes() int { return s.bytes }

// Full reports whether the buffer has reached its capacity and a page
// should be packed and committed to DEZ.
func (s *Staging) Full() bool { return s.bytes >= s.capBytes }

// staged returns the queue entry of a DAZ page's delta, or nil. A page
// outside the region has nothing staged.
func (s *Staging) staged(dazPage int64) *StagedDelta {
	if i := dazPage - s.first; i >= 0 && i < int64(len(s.index)) && s.index[i] != 0 {
		return &s.fifo[s.index[i]-1]
	}
	return nil
}

// Put stages a delta for the given DAZ page, replacing any older staged
// delta for the same page (write coalescing). The page must lie in the
// buffer's DAZ region.
func (s *Staging) Put(d StagedDelta) {
	if e := s.staged(d.DazPage); e != nil {
		s.bytes += d.D.Len - e.D.Len
		e.D.Release()
		*e = d
		s.Coalesced++
		return
	}
	if s.fifo == nil {
		s.fifo = make([]StagedDelta, 0, s.capBytes/smallDelta)
	}
	s.fifo = append(s.fifo, d)
	s.index[d.DazPage-s.first] = int32(len(s.fifo))
	s.n++
	s.bytes += d.D.Len
}

// Get returns the staged delta for a DAZ page, if any.
func (s *Staging) Get(dazPage int64) (StagedDelta, bool) {
	if e := s.staged(dazPage); e != nil {
		return *e, true
	}
	return StagedDelta{}, false
}

// Drop removes a staged delta (the DAZ page was reclaimed or superseded).
func (s *Staging) Drop(dazPage int64) {
	e := s.staged(dazPage)
	if e == nil {
		return
	}
	s.bytes -= e.D.Len
	e.D.Release()
	*e = StagedDelta{DazPage: -1} // tombstone; skipped and drained by PackPage
	s.index[dazPage-s.first] = 0
	s.n--
	s.Invalidated++
}

// PackPage drains the oldest staged deltas that together fit a flash page
// and returns them. The caller writes them to one DEZ page and updates
// its mapping entries. Returns nil when the buffer is empty. The result is
// scratch owned by the buffer, valid until the next PackPage; Put and Drop
// leave it alone, so the caller may re-stage from it. The delta payloads
// in it now belong to the caller (see StagedDelta).
func (s *Staging) PackPage() []StagedDelta {
	out := s.packed[:0]
	if out == nil {
		out = make([]StagedDelta, 0, blockdev.PageSize/smallDelta)
	}
	used := 0
	i := s.head
	for ; i < len(s.fifo); i++ {
		d := s.fifo[i]
		if d.DazPage >= 0 {
			if used+d.D.Len > blockdev.PageSize {
				break
			}
			used += d.D.Len
			out = append(out, d)
			s.index[d.DazPage-s.first] = 0
			s.n--
			s.bytes -= d.D.Len
		}
		s.fifo[i] = StagedDelta{} // drained or tombstone: do not pin the payload until compact
	}
	s.head = i
	s.compact()
	s.packed = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// compact slides the queue back to the front of fifo once the drained
// prefix is at least half as long as the queue: an entry moves at most
// twice per entry drained past it (amortised O(1) per delta) and fifo
// never runs more than half again as long as the queue.
func (s *Staging) compact() {
	live := len(s.fifo) - s.head
	if 2*s.head < live {
		return
	}
	copy(s.fifo, s.fifo[s.head:])
	clear(s.fifo[live:]) // stale copies must not pin delta payloads
	s.fifo = s.fifo[:live]
	s.head = 0
	for i, d := range s.fifo {
		if d.DazPage >= 0 {
			s.index[d.DazPage-s.first] = int32(i + 1)
		}
	}
}

// All returns the live staged deltas in FIFO order (recovery reads these
// back after a power failure).
func (s *Staging) All() []StagedDelta {
	var out []StagedDelta
	for _, d := range s.fifo[s.head:] {
		if d.DazPage >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// Counters are the metadata-log head and tail sequence numbers, stored in
// NVRAM so recovery knows the live extent of the circular log (§III-B),
// plus the RAID rebuild checkpoint: the watermark is volatile array state,
// so recovery needs an NVRAM copy to resume a half-done rebuild instead of
// silently serving the un-rebuilt region as zeros.
type Counters struct {
	Head uint64 // oldest live metadata page sequence number
	Tail uint64 // next metadata page sequence number to write

	// RAID member-rebuild checkpoint, updated after every rebuild step.
	RebuildActive bool
	RebuildDisk   int32 // member being rebuilt
	RebuildRow    int64 // rows [0, RebuildRow) are reconstructed
}

// Live returns the number of live metadata pages.
func (c *Counters) Live() uint64 { return c.Tail - c.Head }

// Rebuilder is the slice of the array the rebuild checkpoint talks to.
type Rebuilder interface {
	RebuildTarget() (disk int, watermark int64, active bool)
	ResumeRebuild(disk int, watermark int64) error
}

// CheckpointRebuild mirrors the array's rebuild watermark into the
// counters block. Whoever paces the rebuild calls it after every step
// and every window open, so the checkpoint is never more than one step
// behind — resuming from it re-reconstructs at most one batch of rows,
// which is idempotent.
func (c *Counters) CheckpointRebuild(a Rebuilder) {
	disk, row, active := a.RebuildTarget()
	c.RebuildActive = active
	c.RebuildDisk = int32(disk)
	c.RebuildRow = row
}

// ResumeRebuild re-opens the checkpointed member-rebuild window on the
// array after a power failure, if one was open. The watermark is
// volatile array state, so the crash wiped it (rigs model that via
// CrashRebuildState); without the resume the array would silently serve
// the un-rebuilt region of the target as zeros. Rows between the
// checkpoint and the true crash-time watermark are simply reconstructed
// again. The array no-ops the resume when the target has since failed
// or the checkpoint already covers the disk; re-checkpointing afterwards
// records that collapse, keeping a second recovery identical.
func (c *Counters) ResumeRebuild(a Rebuilder) error {
	if !c.RebuildActive {
		return nil
	}
	if err := a.ResumeRebuild(int(c.RebuildDisk), c.RebuildRow); err != nil {
		return fmt.Errorf("nvram: resuming member rebuild from its checkpoint: %w", err)
	}
	c.CheckpointRebuild(a)
	return nil
}
