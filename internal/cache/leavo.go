package cache

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/metalog"
	"kddcache/internal/sim"
)

// LeavO reproduces Lee et al.'s scheme (SAC'15, [10] in the paper): on a
// write hit it keeps BOTH the old and the new version of the page in the
// SSD and writes the data to RAID without a parity update; stale parities
// are repaired in the background from old⊕new. Compared to KDD it (a)
// spends a whole cache page per update instead of a packed delta, and
// (b) persists every mapping change to flash without the circular log's
// coalescing — the two costs §II-B calls out.
type LeavO struct {
	lru
	oldOf map[int64]int32 // storage LBA -> slot holding the old version

	metaPages   int64 // metadata region [0, metaPages)
	metaCursor  int64
	metaPending int // mapping updates not yet persisted

	// cleanOne's one-row ParityUpdateDelta arguments, reused per page.
	fixLBA   [1]int64
	fixDelta [1][]byte
}

// LeavO's cleaning thresholds as fractions of capacity, and the Old pages
// one cleaner run repairs.
const (
	leavoHighWater = 0.2 // start cleaning above this fraction of Old pages
	leavoLowWater  = 0.1 // stop cleaning below this
	leavoBatch     = 64
)

// NewLeavO builds a LeavO cache. The metadata region [0, dataStart) on the
// SSD absorbs the per-update metadata writes; cache data pages follow it.
func NewLeavO(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *LeavO {
	if dataStart < 1 {
		panic("cache: LeavO needs a metadata region")
	}
	l := &LeavO{oldOf: make(map[int64]int32), metaPages: dataStart}
	l.init(newBase(ssd, backend, cachePages, dataStart, ways), leavoBatch, leavoHighWater, leavoLowWater,
		l.read, l.write, l.cleanOne)
	return l
}

// Name implements Policy.
func (l *LeavO) Name() string { return "LeavO" }

// metaUpdate records n mapping changes; every EntriesPerPage of them
// costs one metadata page program (no coalescing — LeavO has no NVRAM
// log, its map must be durable before the data write is acknowledged, so
// the write paths return a failed program to the caller).
func (l *LeavO) metaUpdate(t sim.Time, n int) (sim.Time, error) {
	l.metaPending += n
	done := t
	for l.metaPending >= metalog.EntriesPerPage {
		l.metaPending -= metalog.EntriesPerPage
		lba := l.metaCursor % l.metaPages
		l.metaCursor++
		var buf []byte
		if l.dataMode() {
			buf = make([]byte, blockdev.PageSize)
		}
		l.st.MetaWrites++
		c, err := l.ssd.WritePages(t, lba, 1, buf)
		if err != nil {
			return done, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// read serves a read (lru.Read).
func (l *LeavO) read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l.st.Reads++
	if slot := l.frame.Lookup(lba); slot != NoSlot {
		l.st.ReadHits++
		l.frame.Touch(slot)
		return l.readSlot(t, slot, buf)
	}
	l.st.ReadMisses++
	l.st.RAIDReads++
	done, err := l.backend.ReadPages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	l.fillLeavO(done, lba, buf)
	return done, nil
}

func (l *LeavO) fillLeavO(done sim.Time, lba int64, buf []byte) {
	slot := l.allocOrEvict(done, lba, Clean)
	if slot == NoSlot {
		return
	}
	l.frame.Insert(lba, slot, Clean)
	l.st.ReadFills++
	l.writeSlot(done, slot, buf) //nolint:errcheck // background fill
	l.metaUpdate(done, 1)        //nolint:errcheck // a clean copy; the array holds the data
}

// write serves a write (lru.Write).
func (l *LeavO) write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l.st.Writes++
	slot := l.frame.Lookup(lba)
	switch {
	case slot != NoSlot && l.frame.Slot(slot).State == New:
		// Second update: overwrite the new version in place; parity still
		// corresponds to the old version, so no extra bookkeeping.
		l.st.WriteHits++
		l.frame.Touch(slot)
		l.st.VersionWrite++
		ssdDone, err := l.writeSlot(t, slot, buf)
		if err != nil {
			return t, err
		}
		l.st.RAIDWrites++
		raidDone, err := l.backend.WriteNoParity(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		l.st.SmallWritesSaved++
		metaDone, err := l.metaUpdate(t, 1)
		if err != nil {
			return t, err
		}
		done := sim.MaxTime(metaDone, sim.MaxTime(ssdDone, raidDone))
		return done, l.trigger(done)

	case slot != NoSlot: // Clean hit: keep old, add new version
		l.st.WriteHits++
		if !l.backend.Healthy() {
			// Degraded: do not grow the stale-parity set (same rationale
			// as KDD); write through in place.
			l.st.WriteAllocs++
			ssdDone, err := l.writeSlot(t, slot, buf)
			if err != nil {
				return t, err
			}
			l.frame.Touch(slot)
			l.st.RAIDWrites++
			raidDone, err := l.backend.WritePages(t, lba, 1, buf)
			if err != nil {
				return t, err
			}
			return sim.MaxTime(ssdDone, raidDone), nil
		}
		// Pin the current copy as Old first so the eviction scan for the
		// new version's slot can never pick it.
		l.frame.Transition(slot, Old)
		newSlot := l.allocOrEvict(t, lba, Clean)
		if newSlot == NoSlot {
			// No room for a second version: revert and degrade to
			// write-through for this request.
			l.frame.Transition(slot, Clean)
			l.st.WriteAllocs++
			ssdDone, err := l.writeSlot(t, slot, buf)
			if err != nil {
				return t, err
			}
			l.frame.Touch(slot)
			l.st.RAIDWrites++
			raidDone, err := l.backend.WritePages(t, lba, 1, buf)
			if err != nil {
				return t, err
			}
			return sim.MaxTime(ssdDone, raidDone), nil
		}
		l.oldOf[lba] = slot
		l.frame.Insert(lba, newSlot, New) // rebinds lookup to the new slot
		l.st.VersionWrite++
		ssdDone, err := l.writeSlot(t, newSlot, buf)
		if err != nil {
			return t, err
		}
		l.st.RAIDWrites++
		raidDone, err := l.backend.WriteNoParity(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		l.st.SmallWritesSaved++
		metaDone, err := l.metaUpdate(t, 2)
		if err != nil {
			return t, err
		}
		done := sim.MaxTime(metaDone, sim.MaxTime(ssdDone, raidDone))
		return done, l.trigger(done)

	default: // miss
		l.st.WriteMiss++
		l.st.RAIDWrites++
		raidDone, err := l.backend.WritePages(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		var ssdDone sim.Time
		if s := l.allocOrEvict(t, lba, Clean); s != NoSlot {
			l.frame.Insert(lba, s, Clean)
			l.st.WriteAllocs++
			ssdDone, err = l.writeSlot(t, s, buf)
			if err != nil {
				return t, err
			}
			l.metaUpdate(t, 1) //nolint:errcheck // a clean copy; the array holds the data
		}
		return sim.MaxTime(raidDone, ssdDone), nil
	}
}

// cleanOne is the cleaner's repair: it repairs lba's parity from its old
// and new versions if it still has an old version.
func (l *LeavO) cleanOne(t sim.Time, lba int64) (sim.Time, bool, error) {
	oldSlot, ok := l.oldOf[lba]
	if !ok {
		return t, false, nil
	}
	newSlot := l.frame.Lookup(lba)
	if newSlot == NoSlot {
		return t, false, fmt.Errorf("cache: LeavO old page %d has no new version", lba)
	}
	data := l.dataMode()
	var oldBuf, newBuf []byte
	if data {
		oldBuf = make([]byte, blockdev.PageSize)
		newBuf = make([]byte, blockdev.PageSize)
	}
	// Read both versions from the SSD (concurrent thanks to channels).
	phase1 := t
	c, err := l.readSlot(t, oldSlot, oldBuf)
	if err != nil {
		return t, false, err
	}
	phase1 = sim.MaxTime(phase1, c)
	c, err = l.readSlot(t, newSlot, newBuf)
	if err != nil {
		return t, false, err
	}
	phase1 = sim.MaxTime(phase1, c)

	diff := oldBuf // nil in timing mode
	blockdev.XORInto(diff, newBuf)
	l.st.ParityUpdates++
	l.fixLBA[0], l.fixDelta[0] = lba, diff
	done, err := l.backend.ParityUpdateDelta(phase1, l.fixLBA[:], l.fixDelta[:])
	if err != nil {
		return t, false, err
	}
	// Old version freed, new version becomes the clean current copy.
	l.frame.Release(oldSlot, false)
	l.trimSlot(done, oldSlot)
	delete(l.oldOf, lba)
	l.frame.Transition(newSlot, Clean)
	l.st.Reclaims++
	if _, err := l.metaUpdate(done, 2); err != nil {
		return t, false, err
	}
	return done, true, nil
}

var _ Policy = (*LeavO)(nil)
