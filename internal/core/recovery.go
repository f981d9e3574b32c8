package core

import (
	"fmt"

	"kddcache/internal/cache"
	"kddcache/internal/metalog"
	"kddcache/internal/nvram"
	"kddcache/internal/sim"
)

// This file implements failure handling (§III-E).
//
// Power failure: the head/tail counters are reconstructed from NVRAM, the
// primary map is rebuilt by replaying the metadata log pages head→tail,
// the NVRAM metadata buffer is overlaid, and finally the mapping entries
// for deltas still in the NVRAM staging buffer are applied.
//
// SSD failure: the cache is lost but every data block was dispatched to
// RAID, so the array resynchronises its stale parities through
// reconstruct-write (driven by raid.Array.Resync; see the harness).
//
// HDD failure: Flush first (parity_update for every stale stripe), then
// the RAID rebuild runs (raid.Array.ReplaceDisk).

// Restore reconstructs a KDD instance after a simulated power failure.
// cfg must describe the same SSD device, backend, and geometry as the
// crashed instance; ctr and buffered come from the crashed instance's
// metadata log NVRAM, and staging is its NVRAM staging buffer. Returns
// the recovered cache and the virtual completion time of the log scan.
func Restore(cfg Config, t sim.Time, ctr *nvram.Counters,
	buffered []metalog.Entry, staging *nvram.Staging) (*KDD, sim.Time, error) {
	if cfg.DisableMetaLog {
		return nil, t, fmt.Errorf("core: cannot recover with the metadata log disabled")
	}
	if cfg.SharedLog != nil {
		return nil, t, fmt.Errorf("core: shared-log lanes recover via RestoreWithLog")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, t, err
	}
	log, err := metalog.Restore(cfg.SSD, cfg.MetaPages, ctr, buffered)
	if err != nil {
		return nil, t, fmt.Errorf("core: %w", err)
	}
	k, err := newKDD(cfg, log, staging)
	if err != nil {
		return nil, t, err
	}
	replay, done, err := k.log.Recover(t)
	if err != nil {
		return nil, t, err
	}
	if err := k.rebuildFromReplay(replay); err != nil {
		return nil, t, err
	}
	if err := ctr.ResumeRebuild(k.backend); err != nil {
		return nil, t, err
	}
	return k, done, nil
}

// RestoreWithLog rebuilds one lane of the shard plane around an
// already-recovered shared metadata log. The plane recovers the log
// ONCE, demultiplexes the replay stream by cache region, and hands each
// lane only the entries addressing its own DAZ/DEZ pages — this function
// is the per-lane tail of Restore. Member-rebuild resumption is the
// plane's job (one array, one checkpoint), not the lane's.
func RestoreWithLog(cfg Config, log *metalog.Log, replay []metalog.Entry,
	staging *nvram.Staging) (*KDD, error) {
	cfg.SharedLog = log
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k, err := newKDD(cfg, log, staging)
	if err != nil {
		return nil, err
	}
	if err := k.rebuildFromReplay(replay); err != nil {
		return nil, err
	}
	return k, nil
}

// rebuildFromReplay folds a recovered replay stream and the NVRAM
// staging buffer into a freshly-built instance's maps: the shared tail
// of Restore and RestoreWithLog.
func (k *KDD) rebuildFromReplay(replay []metalog.Entry) error {
	// 1. Replay logged entries in commit order; last writer wins.
	for _, e := range replay {
		if err := k.applyEntry(e); err != nil {
			return err
		}
	}

	// 2. Overlay the staging buffer: deltas not yet committed to DEZ.
	// StagedDelta.DazPage holds the SSD cache page — the same persistent
	// naming the metadata log uses — so it must go through slotOf, exactly
	// like applyEntry; casting it to a slot directly is wrong whenever the
	// cache data partition does not start at SSD page 0.
	for _, sd := range k.staging.All() {
		slot := k.slotOf(sd.DazPage)
		if int(slot) < 0 || int64(slot) >= k.frame.Pages() {
			return fmt.Errorf("core: staged delta references slot %d out of range", slot)
		}
		st := k.frame.Slot(slot).State
		if st != cache.Clean && st != cache.Old {
			// The DAZ page must have been admitted before its delta
			// was staged; a Free slot here means the log lost the
			// admission, which the NVRAM path cannot cause.
			return fmt.Errorf("core: staged delta for %v slot %d", st, slot)
		}
		if st == cache.Clean {
			k.frame.Transition(slot, cache.Old)
		}
		// Newest delta wins over any DEZ-committed one.
		k.setDelta(slot, oldDelta{staged: true})
	}

	// 3. Rebuild DEZ occupancy from the surviving old-page records.
	for _, od := range k.oldDeltas {
		if !od.live || od.staged {
			continue
		}
		if k.frame.Slot(od.dez).State != cache.Delta {
			k.frame.MarkDelta(od.dez)
		}
		dp := &k.dezPages[od.dez]
		dp.valid++
		dp.used += int32(od.length)
	}
	return nil
}

// applyEntry folds one recovered mapping entry into the frame.
func (k *KDD) applyEntry(e metalog.Entry) error {
	slot := k.slotOf(int64(e.DazPage))
	if slot < 0 || int64(slot) >= k.frame.Pages() {
		return fmt.Errorf("core: recovered entry references cache page %d out of range", e.DazPage)
	}
	switch e.State {
	case metalog.StateFree:
		if k.frame.Slot(slot).State != cache.Free {
			k.frame.Release(slot, true)
		}
		k.dropDelta(slot)
		return nil
	case metalog.StateClean, metalog.StateOld:
		lba := int64(e.RaidLBA)
		// Unbind whatever the slot previously held and wherever this LBA
		// previously lived, then bind fresh.
		if cur := k.frame.Lookup(lba); cur != cache.NoSlot && cur != slot {
			k.frame.Release(cur, true)
			k.dropDelta(cur)
		}
		if st := k.frame.Slot(slot).State; st != cache.Free {
			k.frame.Release(slot, true)
			k.dropDelta(slot)
		}
		if e.State == metalog.StateClean {
			k.frame.Insert(lba, slot, cache.Clean)
			k.dropDelta(slot)
			return nil
		}
		k.frame.Insert(lba, slot, cache.Old)
		k.setDelta(slot, oldDelta{
			dez:    k.slotOf(int64(e.DezPage)),
			off:    e.DezOff,
			length: e.DezLen,
			raw:    e.DezRaw,
		})
		return nil
	default:
		return fmt.Errorf("core: recovered entry with unexpected state %v", e.State)
	}
}

// CheckInvariants validates the engine's internal consistency; tests and
// the property suite call it after random operation streams.
func (k *KDD) CheckInvariants() error {
	if err := k.frame.CheckInvariants(); err != nil {
		return err
	}
	// Every Old slot has a delta record, and vice versa.
	var oldCount int64
	for i := int32(0); int64(i) < k.frame.Pages(); i++ {
		if k.frame.Slot(i).State == cache.Old {
			oldCount++
			od, ok := k.deltaOf(i)
			if !ok {
				return fmt.Errorf("core: old slot %d lacks a delta record", i)
			}
			if od.staged {
				if _, ok := k.staging.Get(k.cacheLBA(i)); !ok {
					return fmt.Errorf("core: old slot %d claims staged delta but buffer has none", i)
				}
			} else if k.frame.Slot(od.dez).State != cache.Delta {
				return fmt.Errorf("core: old slot %d points at non-delta slot %d", i, od.dez)
			}
		}
	}
	// Records sit only on Old slots, and nOld counts them. DEZ valid
	// counts equal references from old pages; an untracked DEZ slot has
	// neither.
	var records int64
	refs := make([]int32, len(k.dezPages))
	for _, od := range k.oldDeltas {
		if !od.live {
			continue
		}
		records++
		if !od.staged {
			refs[od.dez]++
		}
	}
	if records != oldCount || int64(k.nOld) != oldCount {
		return fmt.Errorf("core: %d delta records (counted %d) for %d old slots", records, k.nOld, oldCount)
	}
	for dez, dp := range k.dezPages {
		if refs[dez] != dp.valid {
			return fmt.Errorf("core: dez slot %d valid=%d but %d references", dez, dp.valid, refs[dez])
		}
	}
	return nil
}
