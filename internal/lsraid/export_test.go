package lsraid

// Test hooks and accessors for the white-box property tests.

// SegmentCount and Live expose accounting internals to the tests.
func (a *Array) SegmentCount() int64 { return a.numSegs }
func (a *Array) LivePages() int64 {
	var n int64
	for _, l := range a.live {
		n += int64(l)
	}
	return n
}

// PendingPages reports the staged NVRAM row-buffer depth.
func (a *Array) PendingPages() int { return len(a.staged()) }

// encodeSummaryOf re-exports the codec over an arbitrary summary value.
func encodeSummaryOf(seq uint64, rows int64, lbas []int64) []byte {
	return EncodeSummary(&segMeta{Seq: seq, Rows: rows, LBAs: lbas})
}

// invertLive corrupts the live counts the way broken accounting misleads
// the victim picker: each segment's count becomes the negation of its
// true live pages, so greedy GC prefers exactly the fullest segments,
// from which it reclaims nothing.
func (a *Array) invertLive() {
	clear(a.live)
	for _, ph := range a.l2p {
		if ph != noPhys {
			a.live[ph.seg]--
		}
	}
}
