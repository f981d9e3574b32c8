package core

import (
	"cmp"
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/metalog"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Read implements cache.Policy (§III-A): misses fill DAZ; hits on Clean
// pages read straight from flash; hits on Old pages combine the cached
// old version with the newest delta — read concurrently from DAZ and DEZ
// thanks to the SSD's internal parallelism.
func (k *KDD) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return k.Serve(t, lba, buf, false, true)
}

// Write implements cache.Policy (§III-A).
//
// Miss: data cached in DAZ and written to RAID with a conventional parity
// update. Hit: the data goes to RAID withOUT a parity update, and the
// compressed XOR of the cached old version and the new data is staged for
// DEZ. The response completes when the RAID data write completes — delta
// generation overlaps the (much slower) disk write (§IV-B2).
func (k *KDD) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return k.Serve(t, lba, buf, true, true)
}

// Serve is the engine's one request entry: every read and write enters
// KDD here once (§III-A) — root span, health/sticky-error gate, request
// counter, the cached or pass-through path, fail-over when the cache
// device dies inside the operation, and the rebuild pump behind the
// response.
//
// admit false serves the request with cache admission suspended (the QoS
// degradation ladder's bypass rung): a read miss performs no read-fill
// and a write miss goes write-through. The coherence argument is the one
// the failover machinery relies on (failover.go): KDD always dispatches
// write data to the RAID, so the array's data pages are always current
// and only parity may be stale. Existing cache HITS are therefore served
// through the normal paths (their cached state stays coherent) and only
// NEW admission is suppressed.
//
// A fail-stop of the cache device anywhere underneath does not surface:
// the health machinery fails over to pass-through (folding any stale
// parity) and the request is re-issued against the RAID, which always
// holds the current data — a duplicate RAID data write is
// content-idempotent, and the fold has already made the row's parity
// consistent. Nor does a stale row the array cannot decode (repairStale).
// A re-issued request is classified as a hit or a miss once, by the
// attempt that serves it; RAIDReads and RAIDWrites count both attempts.
// Reads and Writes count a request once it is classified, so one refused
// before that (a data-mode write with no payload, an idle repair at
// arrival that failed, a degraded write's failed fold) counts nowhere and
// ReadHits+ReadMisses == Reads, WriteHits+WriteMiss == Writes.
func (k *KDD) Serve(t sim.Time, lba int64, buf []byte, write, admit bool) (done sim.Time, err error) {
	var sp obs.Span
	if k.tr != nil {
		phase := obs.PhaseRead
		if write {
			phase = obs.PhaseWrite
		}
		sp = k.tr.BeginLBA(t, phase, lba)
	}
	if err = k.preOp(t); err != nil {
		sp.End(t)
		return t, err
	}
	cls := k.hitMiss()
	if k.passThrough() {
		done, err = k.pass(t, lba, buf, write)
	} else {
		if err = k.cleaner.Arrive(t); err == nil {
			if write {
				done, err = k.writeCached(t, lba, buf, admit)
			} else {
				done, err = k.readCached(t, lba, buf, admit)
			}
			if errors.Is(err, raid.ErrStaleParity) {
				done, err = k.repairStale(t, lba, buf, write, admit, err, cls)
			}
		}
		if err != nil && k.ssdFault(err) {
			k.failover(t, HealthBypass)
			k.setHitMiss(cls)
			done, err = k.pass(t, lba, buf, write)
		}
	}
	if k.hitMiss() != cls {
		if write {
			k.st.Writes++
		} else {
			k.st.Reads++
		}
	}
	k.cleaner.Busy(done)
	if err == nil && k.pump != nil {
		// Background rebuild work rides behind the response (like the
		// write hit's cleaning pass): it shares the disks from `done`
		// onward but never extends the operation's own completion time.
		// Its failures surface on the next operation.
		k.stick(k.pump.Turn(done, k.st.RAIDReads+k.st.RAIDWrites > k.fgMark))
	}
	sp.End(done)
	return done, err
}

// repairStale recovers a request the array refused with ErrStaleParity (a
// member page unreadable in a row a write hit left stale): the row's
// cached deltas are folded as the cleaner folds them, and the request is
// re-issued once at the repair's completion, with the classification
// counters reset to cls, their value before the first attempt. A row with
// no delta stays loud.
func (k *KDD) repairStale(t sim.Time, lba int64, buf []byte, write, admit bool, err error, cls hitMiss) (sim.Time, error) {
	done, repaired, rerr := k.repairRow(t, lba)
	if rerr != nil || !repaired {
		return t, cmp.Or(rerr, err)
	}
	k.st.RowsHealed++
	k.setHitMiss(cls)
	if write {
		return k.writeCached(done, lba, buf, admit)
	}
	return k.readCached(done, lba, buf, admit)
}

// hitMiss is a snapshot of the counters that classify a request.
type hitMiss struct{ readHits, readMisses, writeHits, writeMiss int64 }

func (k *KDD) hitMiss() hitMiss {
	return hitMiss{k.st.ReadHits, k.st.ReadMisses, k.st.WriteHits, k.st.WriteMiss}
}

// setHitMiss takes back the classification of an attempt that is about
// to be re-issued.
func (k *KDD) setHitMiss(h hitMiss) {
	k.st.ReadHits, k.st.ReadMisses, k.st.WriteHits, k.st.WriteMiss = h.readHits, h.readMisses, h.writeHits, h.writeMiss
}

// readCached is the cache-enabled read path. With admit false (a QoS
// bypass verdict) a miss is served straight from the array with no
// read-fill and no ghost-filter update; hits are served normally either
// way — the cached copy is current, so serving it is always coherent.
func (k *KDD) readCached(t sim.Time, lba int64, buf []byte, admit bool) (sim.Time, error) {
	slot := k.frame.Lookup(lba)
	if slot == cache.NoSlot {
		k.st.ReadMisses++
		k.st.RAIDReads++
		done, err := k.backend.ReadPages(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		if admit {
			k.fill(done, lba, buf)
		}
		return done, nil
	}
	k.st.ReadHits++
	k.frame.Touch(slot)
	switch k.frame.Slot(slot).State {
	case cache.Clean:
		sp := k.tr.BeginLBA(t, obs.PhaseDAZRead, lba)
		done, err := k.ssdRead(t, k.cacheLBA(slot), buf)
		sp.End(done)
		if errors.Is(err, blockdev.ErrMedia) {
			return k.recoverHit(t, lba, slot, buf)
		}
		return done, err
	case cache.Old:
		done, err := k.readOld(t, lba, slot, buf)
		if errors.Is(err, blockdev.ErrMedia) {
			return k.recoverHit(t, lba, slot, buf)
		}
		return done, err
	default:
		return t, fmt.Errorf("core: lookup hit %v slot for lba %d",
			k.frame.Slot(slot).State, lba)
	}
}

// readOld serves a hit on an Old page: old data ⊕ delta.
func (k *KDD) readOld(t sim.Time, lba int64, slot int32, buf []byte) (sim.Time, error) {
	od, ok := k.deltaOf(slot)
	if !ok {
		return t, fmt.Errorf("%w: old slot %d has no delta record", ErrNotCombinable, slot)
	}
	var oldBuf, dezBuf []byte
	if k.dataMode && buf != nil {
		oldBuf = blockdev.GetPage() // fully overwritten by the DAZ read
	}
	// Both scratch pages are dead once ApplyAny has combined them into
	// buf (d.Bytes may alias dezBuf until then), so release on any exit.
	defer func() {
		blockdev.PutPage(oldBuf)
		blockdev.PutPage(dezBuf)
	}()
	// Read the old version from DAZ.
	spD := k.tr.BeginLBA(t, obs.PhaseDAZRead, lba)
	done, err := k.ssdRead(t, k.cacheLBA(slot), oldBuf)
	spD.End(done)
	if err != nil {
		return t, err
	}
	var d delta.Delta
	if od.staged {
		sd, ok := k.staging.Get(k.cacheLBA(slot))
		if !ok {
			return t, fmt.Errorf("%w: staged delta for slot %d missing", ErrNotCombinable, slot)
		}
		d = sd.D
	} else {
		// Read the DEZ page concurrently with the DAZ read (issued at t).
		if k.dataMode && buf != nil {
			dezBuf = blockdev.GetPage() // fully overwritten by the DEZ read
		}
		spZ := k.tr.BeginLBA(t, obs.PhaseDEZRead, lba)
		c, err := k.ssdRead(t, k.cacheLBA(od.dez), dezBuf)
		spZ.End(c)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		d = delta.Delta{Len: int(od.length), Raw: od.raw}
		if dezBuf != nil {
			d.Bytes = dezBuf[od.off : int(od.off)+int(od.length)]
		}
	}
	if k.dataMode && buf != nil {
		if err := delta.ApplyAny(k.codec, oldBuf, d, buf); err != nil {
			return t, fmt.Errorf("%w: %v", ErrNotCombinable, err)
		}
	}
	// Decompress+combine costs "tens of microseconds" (§IV-B2).
	spC := k.tr.Begin(done, obs.PhaseCombine)
	done += 20 * sim.Microsecond
	spC.End(done)
	return done, nil
}

// admitMiss applies the optional LARC-style filter: only pages seen twice
// within the ghost window are worth an allocation write.
func (k *KDD) admitMiss(lba int64) bool {
	if k.ghost == nil {
		return true
	}
	if k.ghost.Admit(lba) {
		return true
	}
	k.st.AdmissionRejects++
	return false
}

// fill admits a page read from RAID into DAZ (read-fill).
func (k *KDD) fill(done sim.Time, lba int64, buf []byte) {
	if !k.admitMiss(lba) {
		return
	}
	slot := k.allocDAZ(done, lba)
	if slot == cache.NoSlot {
		return
	}
	// Bytes on flash BEFORE the mapping: a fill whose write failed (or was
	// torn by a crash) must stay invisible, or recovery would rebuild a
	// Clean mapping onto a page that was never written.
	sp := k.tr.BeginLBA(done, obs.PhaseFill, lba)
	c, err := k.ssd.WritePages(done, k.cacheLBA(slot), 1, buf)
	if err != nil {
		sp.End(done)
		// A fill is best-effort, but a fail-stop here must not be lost:
		// flag it so the next operation fails over instead of grinding
		// through a dead device.
		k.noteSwallowed(err)
		return // slot stays Free; the fill is just skipped
	}
	k.frame.Insert(lba, slot, cache.Clean)
	k.st.ReadFills++
	mc, err := k.logPut(done, k.cleanEntry(slot, lba))
	if err != nil {
		k.stick(fmt.Errorf("core: logging read-fill of lba %d: %w", lba, err))
	}
	sp.End(sim.MaxTime(c, mc))
}

// writeCached is the cache-enabled write path. With admit false (a QoS
// bypass verdict) a miss goes write-through — conventional RAID write,
// no allocation, no ghost-filter update — while hits still take the
// normal delta path: an already-cached page must keep its delta
// machinery coherent, and the hit path admits nothing new.
func (k *KDD) writeCached(t sim.Time, lba int64, buf []byte, admit bool) (sim.Time, error) {
	if k.dataMode && buf == nil {
		return t, fmt.Errorf("%w: lba %d", ErrNoPayload, lba)
	}
	// While the array is degraded, deferring parity would widen the data
	// loss window, so fold every pending delta up front (§III-E repairs
	// parity BEFORE rebuild) and operate write-through until redundancy
	// returns. The immediate fold also keeps deltas from going silently
	// obsolete: a degraded write to a failed member recomputes that row's
	// parity from the survivors, and a delta staged earlier for the row
	// would corrupt the fresh parity if it were still around to be folded
	// after a later write re-marked the row stale.
	if !k.backend.Healthy() && k.nOld > 0 {
		if _, err := k.cleanPass(t, true); err != nil {
			return t, err
		}
	}

	slot := k.frame.Lookup(lba)
	if slot == cache.NoSlot {
		if !admit {
			k.st.WriteMiss++
			k.st.RAIDWrites++
			return k.backend.WritePages(t, lba, 1, buf)
		}
		return k.writeMiss(t, lba, buf)
	}
	k.st.WriteHits++
	k.frame.Touch(slot)

	// Degraded write hits take the conventional path. Never in place: the
	// old binding is retired first, then the page re-admitted like a miss
	// (overwriting a mapped page with different bytes is not crash-safe).
	if !k.backend.Healthy() {
		if err := k.retireSlot(t, slot); err != nil {
			return t, err
		}
		if !admit {
			k.st.RAIDWrites++
			return k.backend.WritePages(t, lba, 1, buf)
		}
		return k.writeAllocate(t, lba, buf)
	}

	// Generate the delta against the version parity still reflects: the
	// DAZ old copy. (For a Clean page that IS the current copy; for an
	// Old page the DAZ copy is unchanged — deltas are always old⊕newest,
	// so replacing the staged/committed delta keeps parity repair a
	// single XOR.)
	var d delta.Delta
	if k.dataMode {
		oldBuf := blockdev.GetPage() // fully overwritten by the DAZ read
		sp := k.tr.BeginLBA(t, obs.PhaseDAZRead, lba)
		c, err := k.ssdRead(t, k.cacheLBA(slot), oldBuf)
		sp.End(c)
		if err != nil {
			blockdev.PutPage(oldBuf)
			if errors.Is(err, blockdev.ErrMedia) {
				// The old version is gone: no delta can describe this
				// update, so heal the row and take the conventional path.
				return k.writeHitHeal(t, lba, slot, buf)
			}
			return t, err
		}
		d = delta.EncodeOrRaw(k.codec, oldBuf, buf)
		blockdev.PutPage(oldBuf) // codecs copy; d never aliases oldBuf
	} else {
		d = k.codec.Encode(nil, nil)
	}

	// Dispatch the data to RAID without touching parity. This must come
	// BEFORE the delta is staged: if the data write dies (a member crash
	// tearing it away), a staged delta would describe an update that never
	// landed — recovery would keep it, reads would serve old⊕δ, and the
	// eventual fold would drop the "obsolete" delta and flip the page back
	// to the old bytes. Failing first leaves no trace. The delta itself
	// goes to NVRAM (no device I/O), so no crash point can separate the
	// successful data write from the staging that follows it.
	k.st.RAIDWrites++
	done, err := k.backend.WriteNoParity(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	k.st.SmallWritesSaved++

	// Supersede any committed DEZ delta for this page.
	if od, ok := k.deltaOf(slot); ok && !od.staged {
		k.releaseDez(t, od.dez)
	}
	k.staging.Put(nvram.StagedDelta{DazPage: k.cacheLBA(slot), RaidLBA: lba, D: d})
	k.tr.Mark(t, obs.PhaseNVRAMStage, lba)
	k.setDelta(slot, oldDelta{staged: true})
	if k.frame.Slot(slot).State == cache.Clean {
		k.frame.Transition(slot, cache.Old)
	}

	// Commit a DEZ page if the staging buffer filled.
	if k.staging.Full() {
		sp := k.tr.Begin(t, obs.PhaseDEZPack)
		c, err := k.commitDez(t)
		sp.End(c)
		if err != nil {
			return t, err
		}
	}
	if k.DirtyPages() > k.highMark() {
		if _, err := k.cleanPass(done, false); err != nil {
			return t, err
		}
	}
	return done, nil
}

// writeMiss admits the page and performs a conventional parity write.
func (k *KDD) writeMiss(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	k.st.WriteMiss++
	if !k.admitMiss(lba) {
		k.st.RAIDWrites++
		return k.backend.WritePages(t, lba, 1, buf)
	}
	return k.writeAllocate(t, lba, buf)
}

// writeAllocate is the conventional write path: RAID write with immediate
// parity maintenance, plus a fresh cache copy that is mapped (and its
// mapping logged) only once its bytes are on flash — so a failed or torn
// allocation write leaves no trace for recovery to trust.
func (k *KDD) writeAllocate(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	k.st.RAIDWrites++
	raidDone, err := k.backend.WritePages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	var ssdDone sim.Time
	if slot := k.allocDAZ(t, lba); slot != cache.NoSlot {
		sp := k.tr.BeginLBA(t, obs.PhaseFill, lba)
		ssdDone, err = k.ssd.WritePages(t, k.cacheLBA(slot), 1, buf)
		if err != nil {
			sp.End(t)
			return t, err
		}
		k.frame.Insert(lba, slot, cache.Clean)
		k.st.WriteAllocs++
		mc, err := k.logPut(t, k.cleanEntry(slot, lba))
		if err != nil {
			sp.End(ssdDone)
			return t, err
		}
		sp.End(sim.MaxTime(ssdDone, mc))
	}
	return sim.MaxTime(raidDone, ssdDone), nil
}

// commitDez packs the staging buffer's oldest deltas into one DEZ page,
// writes it, and logs the updated old-page mappings.
func (k *KDD) commitDez(t sim.Time) (sim.Time, error) {
	// Secure the DEZ page FIRST: cleaning (which may reclaim staged
	// deltas) must never run between draining the staging buffer and
	// recording the new delta locations.
	dezSet := k.frame.LeastDeltaSet()
	if dezSet < 0 {
		// No free page anywhere: run a cleaning pass, then retry once.
		if _, err := k.cleanPass(t, false); err != nil {
			return t, err
		}
		dezSet = k.frame.LeastDeltaSet()
		if dezSet < 0 {
			return t, nil // still full; the write path retries later
		}
	}
	packed := k.staging.PackPage()
	if len(packed) == 0 {
		return t, nil
	}
	dezSlot := k.frame.AllocFree(dezSet)
	k.frame.MarkDelta(dezSlot)

	var image []byte
	if k.dataMode {
		image = blockdev.GetZeroPage() // gaps past the packed tail stay zero
	}
	offs := k.dezOffs[:0]
	off := 0
	for _, sd := range packed {
		if image != nil && sd.D.Bytes != nil {
			copy(image[off:], sd.D.Bytes)
		}
		offs = append(offs, off)
		off += sd.D.Len
	}
	k.dezOffs = offs

	if bugDezLogFirst {
		done, err := k.commitDezLogFirst(t, dezSlot, packed, offs, image)
		blockdev.PutPage(image)
		return done, err
	}

	// The DEZ page must be durable BEFORE any mapping entry points at it:
	// a crash between the two would leave Old entries referencing a page
	// that was never written.
	done, err := k.ssd.WritePages(t, k.cacheLBA(dezSlot), 1, image)
	blockdev.PutPage(image) // the device copied it (or ignored it on error)
	if err != nil {
		// Undo: the deltas were only drained into this aborted page, so
		// they go back to NVRAM staging and the slot back to the free pool.
		for _, sd := range packed {
			k.staging.Put(sd)
		}
		k.frame.Release(dezSlot, false)
		k.trimSlot(t, dezSlot)
		return t, err
	}
	dp := &k.dezPages[dezSlot]
	for i, sd := range packed {
		slot := k.slotOf(sd.DazPage)
		e := metalog.Entry{
			State:   metalog.StateOld,
			DazPage: uint32(k.cacheLBA(slot)),
			RaidLBA: uint32(sd.RaidLBA),
			DezPage: uint32(k.cacheLBA(dezSlot)),
			DezOff:  uint16(offs[i]),
			DezLen:  uint16(sd.D.Len),
			DezRaw:  sd.D.Raw,
		}
		c, err := k.logPut(t, e)
		if err != nil {
			// The unlogged suffix keeps its deltas staged in NVRAM (their
			// in-memory records still say staged); the logged prefix
			// already points into the durable DEZ page and stands.
			for _, rest := range packed[i:] {
				k.staging.Put(rest)
			}
			if dp.valid == 0 {
				k.frame.Release(dezSlot, false)
				k.trimSlot(t, dezSlot)
			}
			return t, err
		}
		k.setDelta(slot, oldDelta{
			dez: dezSlot, off: uint16(offs[i]), length: uint16(sd.D.Len), raw: sd.D.Raw,
		})
		dp.valid++
		dp.used += int32(sd.D.Len)
		done = sim.MaxTime(done, c)
		sd.D.Release() // durable in the DEZ page and mapped there: the staged copy is dead
	}
	k.st.DeltaCommits++
	k.planIdle(t)
	return done, nil
}

// commitDezLogFirst is the kddbug mutation of commitDez (see bugflag.go):
// it logs the old-page mapping entries BEFORE the DEZ page they point at
// is durable, and treats logged entries as owned by the log — no
// re-staging undo on failure. A crash between logging and the DEZ write
// leaves durable Old entries referencing a page that was never written,
// while the deltas themselves are gone from NVRAM: recovery then serves
// stale old data for acked writes, which the checker must catch.
func (k *KDD) commitDezLogFirst(t sim.Time, dezSlot int32,
	packed []nvram.StagedDelta, offs []int, image []byte) (sim.Time, error) {
	dp := &k.dezPages[dezSlot]
	done := t
	for i, sd := range packed {
		slot := k.slotOf(sd.DazPage)
		e := metalog.Entry{
			State:   metalog.StateOld,
			DazPage: uint32(k.cacheLBA(slot)),
			RaidLBA: uint32(sd.RaidLBA),
			DezPage: uint32(k.cacheLBA(dezSlot)),
			DezOff:  uint16(offs[i]),
			DezLen:  uint16(sd.D.Len),
			DezRaw:  sd.D.Raw,
		}
		c, err := k.logPut(t, e)
		if err != nil {
			return t, err
		}
		k.setDelta(slot, oldDelta{
			dez: dezSlot, off: uint16(offs[i]), length: uint16(sd.D.Len), raw: sd.D.Raw,
		})
		dp.valid++
		dp.used += int32(sd.D.Len)
		done = sim.MaxTime(done, c)
	}
	c, err := k.ssd.WritePages(t, k.cacheLBA(dezSlot), 1, image)
	if err != nil {
		return t, err
	}
	k.st.DeltaCommits++
	return sim.MaxTime(done, c), nil
}

// releaseDez invalidates one delta in a DEZ page, freeing the page when
// its valid count reaches zero ("the DEZ page cannot be freed until the
// valid count reaches zero", §III-C).
func (k *KDD) releaseDez(t sim.Time, dezSlot int32) {
	dp := &k.dezPages[dezSlot]
	if dp.valid == 0 {
		return // not a tracked DEZ page
	}
	dp.valid--
	if dp.valid == 0 {
		*dp = dezPage{}
		k.frame.Release(dezSlot, false)
		k.trimSlot(t, dezSlot)
	}
}
