package core

import (
	"fmt"

	"kddcache/internal/sim"
)

// This file paces the RAID member rebuild (§III-E) against foreground
// traffic. The array owns the mechanics — raid.Array.RebuildStep
// reconstructs a bounded batch of member rows — and KDD owns the policy:
// when to attach a hot spare, how many rows each foreground operation
// releases, and persisting the progress watermark in NVRAM so a power
// failure mid-rebuild resumes instead of silently serving the un-rebuilt
// region. (This is the MEMBER rebuild; the cache health machine's
// HealthRebuilding probation in failover.go is unrelated.)
//
// Pacing is a token bucket measured in member rows, refilled once per
// top-level operation: RebuildRateMax rows when the operation was served
// without touching the array (the disks were idle anyway), rebuildRateMin
// rows when it issued RAID I/O (foreground pressure — the rebuild yields).
// The bucket is capped at four max-refills so an idle stretch cannot bank
// an unbounded burst that would then stall a foreground burst behind it.

// rebuildRateMin is the refill, in rows, of an operation that issued
// RAID I/O.
const rebuildRateMin = 1

// pumpRebuild runs at the end of every successful Read/Write: it
// auto-attaches a parked hot spare to a failed member (folding every
// pending delta first — §III-E repairs parity BEFORE rebuild), releases
// rebuild tokens, steps the array, and checkpoints the watermark.
// Background failures are recorded via stick and surface on the next
// operation; they never fail the foreground op that triggered the pump.
func (k *KDD) pumpRebuild(t sim.Time) {
	if k.cfg.RebuildRateMax < 0 {
		return
	}
	if !k.backend.RebuildActive() {
		if k.backend.Healthy() || k.backend.SpareCount() == 0 {
			return
		}
		k.spareAttach(t)
		return
	}
	refill := k.cfg.RebuildRateMax
	if k.st.RAIDReads+k.st.RAIDWrites > k.fgMark {
		refill = rebuildRateMin
	}
	k.rbTokens += refill
	if cap := 4 * k.cfg.RebuildRateMax; k.rbTokens > cap {
		k.rbTokens = cap
	}
	if k.rbTokens < 1 {
		return
	}
	_, rows, complete, err := k.backend.RebuildStep(t, k.rbTokens)
	k.rbTokens -= rows
	k.st.RebuildRows += int64(rows)
	if rows > 0 {
		k.st.RebuildSteps++
	}
	if complete {
		k.st.RebuildsDone++
		k.rbTokens = 0
	}
	k.checkpointRebuild()
	if err != nil {
		k.stick(fmt.Errorf("core: rebuild step: %w", err))
	}
}

// spareAttach opens a rebuild window onto a parked hot spare. The §III-E
// ordering demands every stale parity be repaired first: a stale row plus
// a missing member is unreconstructable, so the deltas are folded before
// the first rebuild I/O. In pass-through mode the cache is empty (the
// failover already folded), so the fold is a no-op there by construction.
func (k *KDD) spareAttach(t sim.Time) {
	if k.nOld > 0 {
		if _, err := k.cleanPass(t, true); err != nil {
			if k.ssdFault(err) {
				k.failover(t, HealthBypass)
			} else {
				k.stick(fmt.Errorf("core: delta fold before spare attach: %w", err))
				return
			}
		}
	}
	_, started, err := k.backend.StartSpareRebuild(t)
	if err != nil {
		k.stick(fmt.Errorf("core: spare attach: %w", err))
		return
	}
	if !started {
		return
	}
	k.st.SpareAttaches++
	k.rbTokens = 0
	k.checkpointRebuild()
}

// checkpointRebuild persists the array's rebuild watermark in the NVRAM
// counters block (nvram.Counters.CheckpointRebuild) — the copy that lets
// Restore re-open a half-done rebuild window after a power failure.
// Without a metadata log there is no recovery to checkpoint for.
func (k *KDD) checkpointRebuild() {
	if k.log != nil {
		k.log.Counters().CheckpointRebuild(k.backend)
	}
}
