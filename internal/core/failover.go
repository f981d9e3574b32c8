package core

import (
	"errors"
	"fmt"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements the cache failure-domain survival subsystem: a
// per-device health state machine that keeps user I/O flowing when the
// cache SSD degrades or dies outright. The safety argument rests on the
// same invariant the media-fault handling uses (media.go): KDD always
// dispatches data to the RAID, so the only thing that lives solely on the
// SSD is the cheap parity repair — the delta. Losing the whole device
// therefore costs performance, never data, PROVIDED every stale parity is
// recomputed before the deltas are abandoned (the emergency fold).
//
// State machine:
//
//	Normal ──breaker trip──────────────▶ Degraded
//	Normal ──SSD fail-stop─────────────▶ Bypass
//	Degraded ──SSD fail-stop───────────▶ Bypass
//	Degraded ──half-open probe passes──▶ Rebuilding
//	Bypass ──Reattach──────────────────▶ Rebuilding
//	Rebuilding ──probation expires─────▶ Normal
//	Rebuilding ──trip / fail-stop──────▶ Degraded / Bypass
//
// Degraded and Bypass are both pass-through modes: reads and writes go
// straight to the RAID with conventional parity maintenance, the metadata
// log is quiesced (re-initialised to empty, which touches no device
// bytes), and nothing is admitted. They differ only in the exit: Degraded
// assumes the device may recover (media-error storm, firmware hiccup) and
// probes it with exponential backoff; Bypass assumes it is gone for good
// and waits for an explicit Reattach.
//
// Failover triggers on blockdev.ErrFailed attributed to the cache device
// — the injector's fail-stop. ErrCrashed is deliberately NOT a failover
// trigger: it models a whole-stack power loss, and the correct response
// is crash recovery (core.Restore), not failover; the crash-consistency
// checker depends on that meaning.

// Health is the cache device's position in the failover state machine.
type Health uint8

const (
	// HealthNormal: the cache is fully operational.
	HealthNormal Health = iota
	// HealthDegraded: the breaker tripped on the SSD's media-error rate;
	// I/O passes through to RAID while half-open probes with exponential
	// backoff test whether the device has recovered.
	HealthDegraded
	// HealthBypass: the SSD fail-stopped; I/O passes through to RAID
	// until an explicit Reattach.
	HealthBypass
	// HealthRebuilding: the device passed a probe (or was re-attached)
	// and the cache is warming back up through ordinary admission; a
	// probation period of clean operation stands between it and Normal.
	HealthRebuilding
)

func (h Health) String() string {
	switch h {
	case HealthNormal:
		return "normal"
	case HealthDegraded:
		return "degraded"
	case HealthBypass:
		return "bypass"
	case HealthRebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("health(%d)", uint8(h))
	}
}

// Health returns the cache device's current health state.
func (k *KDD) Health() Health { return k.health }

// passThrough reports whether I/O is currently bypassing the cache.
func (k *KDD) passThrough() bool {
	return k.health == HealthDegraded || k.health == HealthBypass
}

// ssdFault reports whether err is a fail-stop of the cache device
// specifically. Attribution comes from the IOError wrapper when present;
// without one, a device that can report its own failed state is asked
// directly. Member fail-stops (IOError naming a disk) return false — the
// RAID layer owns those.
func (k *KDD) ssdFault(err error) bool {
	if err == nil || !errors.Is(err, blockdev.ErrFailed) {
		return false
	}
	var ioe *blockdev.IOError
	if errors.As(err, &ioe) {
		return ioe.Dev == k.ssd.Name()
	}
	type failer interface{ Failed() bool }
	if f, ok := k.ssd.(failer); ok {
		return f.Failed()
	}
	return false
}

// noteSwallowed records an SSD fail-stop observed on a path that swallows
// errors (read-fill); the next top-level operation fails over.
func (k *KDD) noteSwallowed(err error) {
	if k.ssdFault(err) {
		k.deadSSD = true
	}
}

// preOp runs at the top of every public operation: it advances the op
// clock, surfaces sticky metadata errors (swallowing those caused by a
// dead SSD — the failover absorbs them), performs any pending health
// transition, and drives probes and the rebuild probation.
func (k *KDD) preOp(t sim.Time) error {
	k.opSeq++
	// Snapshot the RAID traffic counters: if they advance during this
	// operation, it hit the array, and the rebuild pump refills at the
	// throttled rate (rebuild.go).
	k.fgMark = k.st.RAIDReads + k.st.RAIDWrites
	if err := k.takeSticky(); err != nil {
		if k.ssdFault(err) {
			k.deadSSD = true
		} else {
			return err
		}
	}
	if k.deadSSD {
		k.deadSSD = false
		k.failover(t, HealthBypass)
	} else if k.tripPending {
		k.tripPending = false
		k.failover(t, HealthDegraded)
	}
	if k.health == HealthDegraded && k.opSeq >= k.probeAfter {
		k.maybeProbe(t)
	}
	if k.health == HealthRebuilding {
		k.rebuildLeft--
		if k.rebuildLeft <= 0 {
			k.health = HealthNormal
		}
	}
	return nil
}

// breakerObserve feeds one SSD read outcome (the final verdict after
// retries) into the sliding-window circuit breaker. Only observed while
// traffic actually flows through the cache; a full window with
// BreakerThreshold persistent failures trips the breaker, which takes
// effect at the next preOp (tripping mid-operation would yank state out
// from under the running code path).
func (k *KDD) breakerObserve(fail bool) {
	if k.cfg.BreakerWindow <= 0 || k.tripPending ||
		(k.health != HealthNormal && k.health != HealthRebuilding) {
		return
	}
	if k.breaker == nil {
		k.breaker = make([]bool, k.cfg.BreakerWindow)
	}
	if k.breakerFill == k.cfg.BreakerWindow {
		if k.breaker[k.breakerPos] {
			k.breakerFail--
		}
	} else {
		k.breakerFill++
	}
	k.breaker[k.breakerPos] = fail
	if fail {
		k.breakerFail++
	}
	k.breakerPos = (k.breakerPos + 1) % k.cfg.BreakerWindow
	if k.breakerFail >= k.cfg.BreakerThreshold {
		k.tripPending = true
		k.st.BreakerTrips++
	}
}

// resetBreaker empties the observation window.
func (k *KDD) resetBreaker() {
	k.breakerPos = 0
	k.breakerFill = 0
	k.breakerFail = 0
	k.tripPending = false
}

// failover moves the cache into a pass-through state (Degraded on a
// breaker trip, Bypass on fail-stop). Stale parities are repaired first
// — after this the deltas are gone — then the in-memory cache state is
// dropped and the metadata log re-initialised to empty, which needs no
// device I/O: a dead SSD cannot veto its own demotion. A later
// core.Restore over the re-initialised log scans zero pages and comes up
// as an empty, Normal cache.
func (k *KDD) failover(t sim.Time, target Health) {
	if k.passThrough() {
		// Already passing through; only the Degraded → Bypass escalation
		// (the suspect device then died for real) changes anything, and
		// the cache is already empty — no second fold.
		if target == HealthBypass {
			k.health = HealthBypass
		}
		return
	}
	k.st.Failovers++
	if err := k.emergencyFold(t); err != nil {
		// A member failed mid-fold: genuinely unrecoverable territory
		// (double failure). Surface it on the next operation rather than
		// losing it — the transition itself still completes so I/O that
		// can be served keeps flowing.
		k.stick(fmt.Errorf("core: emergency parity fold: %w", err))
	}
	if k.log != nil {
		if k.sharedLog {
			// The log belongs to the shard plane and carries every lane's
			// mappings: re-initialising it here would wipe the healthy
			// lanes' metadata. Retract only this lane's own live mappings
			// with Free tombstones instead (buffered — no device I/O, so a
			// dead SSD cannot veto the demotion any more than Reinit could).
			k.freeAllMappings(t)
		} else {
			k.log.Reinit(nil)
		}
	}
	k.dropCache()
	k.health = target
	if target == HealthDegraded {
		k.backoffOps = k.cfg.BreakerBackoff
		k.probeAfter = k.opSeq + k.backoffOps
	}
	k.resetBreaker()
}

// emergencyFold recomputes the parity of every row that still depends on
// a delta, without trusting the failing SSD at all: rows whose deltas are
// all still staged in NVRAM (and not raw, which would need the old page
// from flash) fold cheaply via the delta RMW; everything else — DEZ-
// committed deltas, raw deltas — is recomputed from member data via
// ResyncRow. The members always hold the current bytes (every write was
// dispatched), so the resync is always correct; the RMW is merely the
// cheap path. Row order is sorted for deterministic I/O sequences.
func (k *KDD) emergencyFold(t sim.Time) error {
	if k.nOld == 0 {
		return nil
	}
	sp := k.tr.Begin(t, obs.PhaseFold)
	done := t
	k.st.EmergencyFolds++
	rows := make(map[int64][]peerInfo)
	for i, od := range k.oldDeltas {
		if !od.live {
			continue
		}
		slot := int32(i)
		lba := k.frame.Slot(slot).RaidLBA
		key := k.backend.RowPeers(lba)[0]
		rows[key] = append(rows[key], peerInfo{lba: lba, slot: slot})
	}
	keys := make([]int64, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var firstErr error
	for _, key := range keys {
		peers := rows[key]
		sort.Slice(peers, func(i, j int) bool { return peers[i].lba < peers[j].lba })
		if c, ok := k.foldRowRMW(t, peers); ok {
			k.st.FoldRMWs++
			done = sim.MaxTime(done, c)
			continue
		}
		c, err := k.backend.ResyncRow(t, key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		k.st.FoldResyncs++
		done = sim.MaxTime(done, c)
	}
	sp.End(done)
	return firstErr
}

// foldRowRMW attempts the cheap fold of one row from NVRAM-staged deltas
// only (no SSD I/O). Reports whether the row's parity is repaired, and
// when it is, the virtual time the repair completed.
func (k *KDD) foldRowRMW(t sim.Time, peers []peerInfo) (sim.Time, bool) {
	lbas := make([]int64, 0, len(peers))
	var deltas [][]byte
	if k.dataMode {
		deltas = make([][]byte, 0, len(peers))
	}
	for _, pi := range peers {
		od := k.oldDeltas[pi.slot]
		if !od.staged {
			return t, false
		}
		lbas = append(lbas, pi.lba)
		if !k.dataMode {
			continue
		}
		sd, ok := k.staging.Get(k.cacheLBA(pi.slot))
		if !ok || sd.D.Raw {
			// Raw deltas are new-version bytes, not XORs: expanding one
			// needs the old page from the SSD we no longer trust.
			return t, false
		}
		xor := blockdev.GetZeroPage()
		deltas = append(deltas, xor)
		if err := k.codec.Apply(xor, sd.D, xor); err != nil {
			return t, false
		}
	}
	c, err := k.backend.ParityUpdateDelta(t, lbas, deltas)
	for _, x := range deltas {
		blockdev.PutPage(x)
	}
	if err != nil {
		return t, false
	}
	return c, true
}

// freeAllMappings appends a Free tombstone for every mapped DAZ page of
// this lane, so recovery over the plane's shared log sees the lane
// empty. DEZ pages carry no entries of their own (Old entries reference
// them), so retracting the DAZ mappings is complete. Tombstones reach
// NVRAM immediately (buffered batch mode); their page flush rides the
// next plane barrier.
func (k *KDD) freeAllMappings(t sim.Time) {
	for slot := int32(0); slot < int32(k.frame.Pages()); slot++ {
		switch k.frame.Slot(slot).State {
		case cache.Clean, cache.Old:
		default:
			continue
		}
		if _, err := k.logPut(t, k.freeEntry(slot)); err != nil {
			if k.ssdFault(err) {
				// The whole device is gone, the shared log's pages with it;
				// what follows is plane-level recovery, not this lane's.
				return
			}
			k.stick(fmt.Errorf("core: retracting lane mappings: %w", err))
			return
		}
	}
}

// dropCache resets every in-memory cache structure to empty: fresh frame,
// no delta records, no DEZ occupancy, empty NVRAM staging. Pure memory —
// no device I/O, no log entries (the log is wiped separately).
func (k *KDD) dropCache() {
	k.frame = cache.NewFrame(k.cfg.CachePages, k.cfg.Ways, k.backend.StripePages())
	if k.cfg.FixedDEZSets > 0 {
		k.frame.SetDataSets(k.frame.Sets() - k.cfg.FixedDEZSets)
	}
	clear(k.oldDeltas)
	k.nOld = 0
	clear(k.dezPages)
	k.staging = nvram.NewStaging(k.cfg.StagingBytes, k.dataStart, k.frame.Pages())
	k.metaErr = nil
}

// maybeProbe runs one half-open probe while Degraded: success moves to
// Rebuilding (traffic re-admitted under probation), failure doubles the
// backoff.
func (k *KDD) maybeProbe(t sim.Time) {
	k.st.BreakerProbes++
	if k.probeSSD(t) {
		k.health = HealthRebuilding
		k.rebuildLeft = k.cfg.RebuildProbation
		k.resetBreaker()
		return
	}
	k.backoffOps *= 2
	k.probeAfter = k.opSeq + k.backoffOps
}

// probeSSD exercises the device both ways. The read targets the first
// metadata page, which the probe never rewrites: latent errors clear on
// rewrite (remap-on-write), so a write-then-read-back probe alone would
// always pass on a device still riddled with bad pages. The write/read
// pair targets the first cache page, free in every pass-through state
// (the cache was dropped).
func (k *KDD) probeSSD(t sim.Time) bool {
	var buf []byte
	if k.dataMode {
		buf = blockdev.GetZeroPage() // probe writes the buffer as-is
		defer blockdev.PutPage(buf)
	}
	if k.log != nil {
		if _, err := k.ssd.ReadPages(t, 0, 1, buf); err != nil {
			return false
		}
	}
	if _, err := k.ssd.WritePages(t, k.cacheLBA(0), 1, buf); err != nil {
		return false
	}
	if _, err := k.ssd.ReadPages(t, k.cacheLBA(0), 1, buf); err != nil {
		return false
	}
	return true
}

// pass serves one request in pass-through mode, straight from the RAID
// with no admission: a plain read, or a conventional write with
// immediate parity maintenance.
func (k *KDD) pass(t sim.Time, lba int64, buf []byte, write bool) (sim.Time, error) {
	if write {
		k.st.PassWrites++
		k.st.WriteMiss++
		k.st.RAIDWrites++
		return k.backend.WritePages(t, lba, 1, buf)
	}
	k.st.PassReads++
	k.st.ReadMisses++
	k.st.RAIDReads++
	return k.backend.ReadPages(t, lba, 1, buf)
}

// Reattach brings the cache back online after Bypass (or forces the
// issue while Degraded): the metadata log partition is wiped and
// re-initialised, in-memory state rebuilt empty, and the cache warms
// back up through the ordinary admission path under Rebuilding
// probation. A non-nil dev replaces the cache device (it must fit the
// configured geometry); nil re-attaches the existing device — the
// harness's injector, whose medium was swapped by Repair. The device is
// probed first; a failed probe leaves the current state untouched.
func (k *KDD) Reattach(t sim.Time, dev blockdev.Device) error {
	if k.health == HealthNormal || k.health == HealthRebuilding {
		return fmt.Errorf("core: reattach while cache is %v", k.health)
	}
	if k.sharedLog {
		// Reinit would wipe the plane's shared log under the other lanes;
		// lane recovery is a plane-level restore, not a per-lane reattach.
		return fmt.Errorf("core: reattach of a shard-plane lane; restore the plane instead")
	}
	if dev != nil {
		if need := k.dataStart + k.cfg.CachePages; need > dev.Pages() {
			return fmt.Errorf("core: replacement SSD too small: need %d pages, have %d",
				need, dev.Pages())
		}
		k.ssd = dev
		k.cfg.SSD = dev
		dm := false
		if s, ok := dev.(blockdev.Storer); ok {
			dm = s.Store() != nil
		}
		if _, modelled := k.codec.(*delta.Modelled); modelled {
			dm = false
		}
		k.dataMode = dm
	}
	if !k.probeSSD(t) {
		return fmt.Errorf("core: reattach probe failed; cache stays in %v", k.health)
	}
	if k.log != nil {
		k.log.Reinit(k.cfg.SSD)
	}
	k.dropCache()
	k.health = HealthRebuilding
	k.rebuildLeft = k.cfg.RebuildProbation
	k.resetBreaker()
	k.backoffOps = 0
	k.probeAfter = 0
	k.deadSSD = false
	k.st.Reattaches++
	return nil
}
