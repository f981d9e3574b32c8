package core

import (
	"errors"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// This file implements KDD's handling of partial SSD faults (media
// errors on individual cache pages). The invariant that makes every
// fallback possible: KDD always dispatches the data to RAID (write hits
// via WriteNoParity, misses via WritePages), so the current version of
// every page survives the loss of any cache page. What a lost cache page
// CAN take with it is the ability to repair stale parity cheaply — the
// delta XORs against the old version — so healing swaps the delta RMW
// for a full parity recompute from member data (Backend.ResyncRow).

// mediaRetries bounds how often an SSD read is retried on ErrMedia
// before the fallback path runs: transient glitches succeed on retry,
// persistent faults (latent errors, detected bit-rot) do not.
const mediaRetries = 2

// ssdRead reads one SSD cache page with bounded retry on media errors.
// The final outcome — one observation per call, regardless of retries —
// feeds the health state machine's circuit breaker (failover.go).
func (k *KDD) ssdRead(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	done, err := k.ssd.ReadPages(t, lba, 1, buf)
	for r := 0; err != nil && errors.Is(err, blockdev.ErrMedia) && r < mediaRetries; r++ {
		k.st.MediaRetries++
		done, err = k.ssd.ReadPages(done, lba, 1, buf)
	}
	if err != nil && errors.Is(err, blockdev.ErrMedia) {
		k.st.SSDMediaErrors++
		k.breakerObserve(true)
	} else if err == nil {
		k.breakerObserve(false)
	}
	return done, err
}

// recoverHit serves a cache hit whose SSD page(s) can no longer be read.
// The current data always lives on RAID too, so the read falls back
// there; the damaged slot is then healed — for an Old slot by healing
// the whole row, for a Clean slot by retiring the binding — and the
// bytes just read are re-admitted through the ordinary fill path. The
// retire-then-refill shape (never repair in place) means a crash tearing
// the repair write lands on a page no mapping trusts.
func (k *KDD) recoverHit(t sim.Time, lba int64, slot int32, buf []byte) (sim.Time, error) {
	k.st.MediaFallbacks++
	k.st.RAIDReads++
	done, err := k.backend.ReadPages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	if k.frame.Slot(slot).State == cache.Old {
		c, err := k.healRow(done, lba)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	} else if err := k.retireSlot(done, slot); err != nil {
		return t, err
	}
	// The slot was released; re-admit so the next hit is served from
	// flash again (bytes-before-mapping, like any fill).
	k.fill(done, lba, buf)
	return done, nil
}

// retireSlot unbinds a Clean/Old slot and tears down any delta record,
// logging the free entry. Paths that would otherwise overwrite a mapped
// page in place with DIFFERENT bytes must retire it first: an in-place
// overwrite torn by a crash leaves stale bytes behind a mapping the
// metadata log already trusts — silent stale reads after recovery.
func (k *KDD) retireSlot(t sim.Time, slot int32) error {
	if od, ok := k.deltaOf(slot); ok {
		if od.staged {
			k.staging.Drop(k.cacheLBA(slot))
		} else {
			k.releaseDez(t, od.dez)
		}
		k.dropDelta(slot)
	}
	k.frame.Release(slot, true)
	k.trimSlot(t, slot)
	_, err := k.logPut(t, k.freeEntry(slot))
	return err
}

// healRow recovers every Old page of lba's parity row after a media
// error made its delta machinery unusable (a DAZ old copy or a DEZ delta
// page is gone). Parity goes first: the members always hold the current
// bytes (every write was dispatched), so a full recompute makes the row
// consistent no matter which cache page died. Only then is each Old
// peer's now-obsolete delta machinery torn down and its slot freed — no
// SSD data writes at all. A crash at any point leaves a state recovery
// already understands: peers still Old read correctly (their old copies
// were never overwritten), and the cleaner's delta RMW is gated on row
// staleness, so it cannot fold obsolete deltas into the fresh parity.
func (k *KDD) healRow(t sim.Time, lba int64) (sim.Time, error) {
	done, err := k.backend.ResyncRow(t, lba)
	if err != nil {
		return t, err
	}
	for _, p := range k.backend.RowPeers(lba) {
		slot := k.frame.Lookup(p)
		if slot == cache.NoSlot || k.frame.Slot(slot).State != cache.Old {
			continue
		}
		if err := k.retireSlot(t, slot); err != nil {
			return t, err
		}
	}
	k.st.RowsHealed++
	return done, nil
}

// writeHitHeal handles a write hit whose DAZ old copy is unreadable: no
// delta can be generated against it, so the row's pending deltas are
// healed away and this write degrades to the conventional parity path
// with a fresh write-allocate.
func (k *KDD) writeHitHeal(t sim.Time, lba int64, slot int32, buf []byte) (sim.Time, error) {
	k.st.MediaFallbacks++
	if k.frame.Slot(slot).State == cache.Old {
		if _, err := k.healRow(t, lba); err != nil {
			return t, err
		}
	} else if err := k.retireSlot(t, slot); err != nil {
		return t, err
	}
	return k.writeAllocate(t, lba, buf)
}
