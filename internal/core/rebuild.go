package core

import (
	"fmt"

	"kddcache/internal/cache"
	"kddcache/internal/metalog"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// This file paces the RAID member rebuild (§III-E) against foreground
// traffic. The array owns the mechanics (RebuildStep); RebuildPump owns
// the policy: when to attach a hot spare, how many rows each turn
// releases, and the NVRAM checkpoint that lets a power failure resume the
// rebuild. One pump per checkpoint, turned by its owner: a bare engine
// behind every successful operation, the shard plane (owner of the lanes'
// shared log) at every batch barrier. Lanes never pump.
//
// The budget is in member rows, refilled once per turn: rebuildRowsIdle
// when the foreground left the disks alone (an operation served without
// RAID I/O, a plane barrier), rebuildRowsBusy after one that issued RAID
// I/O, so foreground pressure throttles the rebuild. It is capped at
// rebuildBurst idle refills: an idle stretch cannot bank a burst that
// would stall the next foreground burst. The refill follows the operation
// count, not the clock — hence no qos.Bucket, which refills by virtual
// time and would never refill under the timing rigs' t=0 traces.
const (
	rebuildRowsIdle = 8
	rebuildRowsBusy = 1
	rebuildBurst    = 4
)

// RebuildPump paces the member rebuild of one array for the engines it
// serves.
type RebuildPump struct {
	backend cache.Backend
	log     *metalog.Log      // holds the NVRAM checkpoint; nil without a metadata log
	engines []*KDD            // folded before a spare attach
	st      *stats.CacheStats // counts steps, rows, completions and attaches
	tokens  int               // banked row budget
}

// NewRebuildPump builds the pump for backend, checkpointing into log's
// NVRAM counters and counting into st.
func NewRebuildPump(backend cache.Backend, log *metalog.Log, engines []*KDD, st *stats.CacheStats) *RebuildPump {
	return &RebuildPump{backend: backend, log: log, engines: engines, st: st}
}

// Stats returns the counters the pump bumps.
func (p *RebuildPump) Stats() *stats.CacheStats { return p.st }

// Turn is one pacing turn behind foreground work at t; busy reports that
// the work issued RAID I/O. With a window open it refills the budget,
// steps the array and checkpoints; with a member failed, no window open
// and a spare parked, it folds every engine's deltas (§III-E: stale
// parity plus a missing member is unreconstructable) and attaches the
// spare. A failure is returned for the caller to surface later, never
// charged to the work the turn rides behind.
func (p *RebuildPump) Turn(t sim.Time, busy bool) error {
	if !p.backend.RebuildActive() {
		if p.backend.Healthy() || p.backend.SpareCount() == 0 {
			return nil
		}
		for _, k := range p.engines {
			if err := k.foldForAttach(t); err != nil {
				return err
			}
		}
		_, started, err := p.backend.StartSpareRebuild(t)
		if err != nil {
			return fmt.Errorf("core: spare attach: %w", err)
		}
		if started {
			p.st.SpareAttaches++
			p.tokens = 0
			p.checkpoint()
		}
		return nil
	}
	refill := rebuildRowsIdle
	if busy {
		refill = rebuildRowsBusy
	}
	p.tokens = min(p.tokens+refill, rebuildBurst*rebuildRowsIdle)
	if bugCheckpointAhead && p.log != nil {
		// The mutation (bugflag_ckpt.go): persist the watermark the step
		// will reach, and re-checkpoint only a step that returns cleanly.
		disk, next, _ := p.backend.RebuildTarget()
		ctr := p.log.Counters()
		ctr.RebuildActive, ctr.RebuildDisk, ctr.RebuildRow = true, int32(disk), next+int64(p.tokens)
	}
	_, rows, complete, err := p.backend.RebuildStep(t, p.tokens)
	if err == nil || !bugCheckpointAhead {
		p.checkpoint() // after the step: never ahead of the rows rebuilt
	}
	p.tokens -= rows
	p.st.RebuildRows += int64(rows)
	if rows > 0 {
		p.st.RebuildSteps++
	}
	if complete {
		p.st.RebuildsDone++
		p.tokens = 0
	}
	if err != nil {
		return fmt.Errorf("core: rebuild step: %w", err)
	}
	return nil
}

// checkpoint persists the array's rebuild watermark in the NVRAM counters,
// the copy recovery re-opens a half-done window from.
func (p *RebuildPump) checkpoint() {
	if p.log != nil {
		p.log.Counters().CheckpointRebuild(p.backend)
	}
}

// foldForAttach folds every pending delta into its stale parity ahead of
// a spare attach. In pass-through mode the cache is empty (the failover
// already folded); a cache device that dies under the fold fails the
// engine over instead of failing the attach.
func (k *KDD) foldForAttach(t sim.Time) error {
	if k.nOld == 0 {
		return nil
	}
	if _, err := k.cleanPass(t, true); err != nil {
		if !k.ssdFault(err) {
			return fmt.Errorf("core: delta fold before spare attach: %w", err)
		}
		k.failover(t, HealthBypass)
	}
	return nil
}
