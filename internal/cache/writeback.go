package cache

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// WB is a write-back cache: writes are acknowledged once they land in the
// SSD; dirty pages reach the RAID only on eviction or flush.
//
// The paper deliberately excludes write-back from its evaluation
// "because it cannot prevent data loss under SSD failures" (§IV-A1).
// It is implemented here so that exclusion is demonstrable rather than
// asserted: TestWriteBackLosesDataOnSSDFailure shows the RPO violation,
// and the policy gives a useful lower bound on write latency.
type WB struct {
	lru
}

// WB's watermarks bound the dirty-page population like KDD's cleaner
// thresholds. Destaging is paced: each trigger reclaims only a thin band
// below the high-water mark, wbBatch pages at a time, so background
// write-back does not dump thousands of RMWs onto the disks at one
// instant and starve reads.
const (
	wbHighWater = 0.4
	wbLowWater  = 0.37
	wbBatch     = 16
)

// NewWB builds a write-back cache.
func NewWB(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WB {
	w := &WB{}
	w.init(newBase(ssd, backend, cachePages, dataStart, ways), wbBatch, wbHighWater, wbLowWater,
		w.base.Read, w.write, w.writeBack)
	return w
}

// Name implements Policy.
func (w *WB) Name() string { return "WB" }

// write serves a write (lru.Write): SSD-speed acknowledgement; the page
// is marked dirty (reusing the Old state) and written back later.
func (w *WB) write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Writes++
	slot := w.frame.Lookup(lba)
	if slot != NoSlot {
		w.st.WriteHits++
		w.frame.Touch(slot)
	} else {
		w.st.WriteMiss++
		slot = w.allocOrEvict(t, lba, Clean)
		if slot == NoSlot {
			// No cacheable slot: degrade to a direct RAID write.
			w.st.RAIDWrites++
			return w.backend.WritePages(t, lba, 1, buf)
		}
		w.frame.Insert(lba, slot, Clean)
	}
	w.st.WriteAllocs++
	done, err := w.writeSlot(t, slot, buf)
	if err != nil {
		return t, err
	}
	w.frame.Transition(slot, Old) // dirty
	return done, w.trigger(done)
}

// writeBack is the cleaner's repair: it flushes lba to the RAID if it is
// still dirty.
func (w *WB) writeBack(t sim.Time, lba int64) (sim.Time, bool, error) {
	slot := w.frame.Lookup(lba)
	if slot == NoSlot || w.frame.Slot(slot).State != Old {
		return t, false, nil
	}
	var buf []byte
	if w.dataMode() {
		buf = make([]byte, blockdev.PageSize)
	}
	c, err := w.readSlot(t, slot, buf)
	if err != nil {
		return t, false, err
	}
	w.st.RAIDWrites++
	c, err = w.backend.WritePages(c, lba, 1, buf)
	if err != nil {
		return t, false, fmt.Errorf("cache: write-back of lba %d: %w", lba, err)
	}
	w.frame.Transition(slot, Clean)
	w.st.Reclaims++
	return c, true, nil
}

// DirtyPages returns the count of pages not yet written back: data that
// exists ONLY in the SSD and dies with it.
func (w *WB) DirtyPages() int64 { return w.frame.Count(Old) }

var _ Policy = (*WB)(nil)
