// Package nvram models the battery-backed RAM the paper assumes storage
// arrays provide (§III-B): the delta staging buffer, the metadata buffer,
// and the metadata log head/tail counters. Contents survive simulated
// power failures — on crash the volatile structures (the primary map) are
// discarded while these objects are handed to the recovery procedure
// intact, which is exactly the persistence contract NVRAM provides.
package nvram

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
)

// StagedDelta is one delta waiting in the staging buffer, keyed by the
// cached DAZ page it applies to.
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
// and wait for compact. index holds absolute positions — base is the
// absolute position of fifo[0] — so draining and compaction leave the
// entries of every delta still queued untouched.
type Staging struct {
	capBytes int
	fifo     []StagedDelta // arrival order, coalesced; DazPage -1 = dropped
	head     int           // first entry of fifo not yet drained
	base     int           // absolute position of fifo[0]
	index    map[int64]int // DazPage -> absolute position in fifo
	bytes    int

	// Statistics.
	Coalesced   int64 // deltas replaced in place by a newer version
	Invalidated int64 // deltas dropped because the page was reclaimed
}

// NewStaging returns a staging buffer that packs a page once capBytes of
// deltas are queued. capBytes must be at least one page.
func NewStaging(capBytes int) *Staging {
	if capBytes < blockdev.PageSize {
		panic("nvram: staging buffer smaller than one page")
	}
	return &Staging{capBytes: capBytes, index: make(map[int64]int)}
}

// Len returns the number of live staged deltas.
func (s *Staging) Len() int { return len(s.index) }

// Bytes returns the total encoded bytes of live staged deltas.
func (s *Staging) Bytes() int { return s.bytes }

// Full reports whether the buffer has reached its capacity and a page
// should be packed and committed to DEZ.
func (s *Staging) Full() bool { return s.bytes >= s.capBytes }

// Put stages a delta for the given DAZ page, replacing any older staged
// delta for the same page (write coalescing).
func (s *Staging) Put(d StagedDelta) {
	if pos, ok := s.index[d.DazPage]; ok {
		e := &s.fifo[pos-s.base]
		s.bytes += d.D.Len - e.D.Len
		*e = d
		s.Coalesced++
		return
	}
	s.index[d.DazPage] = s.base + len(s.fifo)
	s.fifo = append(s.fifo, d)
	s.bytes += d.D.Len
}

// Get returns the staged delta for a DAZ page, if any.
func (s *Staging) Get(dazPage int64) (StagedDelta, bool) {
	pos, ok := s.index[dazPage]
	if !ok {
		return StagedDelta{}, false
	}
	return s.fifo[pos-s.base], true
}

// Drop removes a staged delta (the DAZ page was reclaimed or superseded).
func (s *Staging) Drop(dazPage int64) {
	pos, ok := s.index[dazPage]
	if !ok {
		return
	}
	e := &s.fifo[pos-s.base]
	s.bytes -= e.D.Len
	*e = StagedDelta{DazPage: -1} // tombstone; skipped and drained by PackPage
	delete(s.index, dazPage)
	s.Invalidated++
}

// PackPage drains the oldest staged deltas that together fit a flash page
// and returns them. The caller writes them to one DEZ page and updates
// its mapping entries. Returns nil when the buffer is empty.
func (s *Staging) PackPage() []StagedDelta {
	var out []StagedDelta
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
			delete(s.index, d.DazPage)
			s.bytes -= d.D.Len
		}
		s.fifo[i] = StagedDelta{} // drained or tombstone: do not pin the payload until compact
	}
	s.head = i
	s.compact()
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
	s.base += s.head
	s.head = 0
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
