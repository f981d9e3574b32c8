package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements KDD's flushing policy (§III-D): a background
// cleaner generates new parity blocks for stale stripes and reclaims the
// old/delta pages. The engine's cache.Cleaner decides when: a DEZ commit
// that finds the free pool within one batch of running dry queues the
// next batch, whose rows are repaired one per idle arrival gap; the
// synchronous pass — when old+delta pages exceed a threshold, when a DEZ
// commit or an allocation finds no free page, on System.Advance, and on
// force, flush and the degraded fold — first issues whatever is still
// queued. Parity is recomputed by reconstruct-write when every data block
// of the row is cached, otherwise by read-modify-write over the
// decompressed deltas. Reclamation follows scheme 2 (drop old pages,
// invalidate deltas) unless the scheme-1 ablation is configured.

// cleanerBatch is how many LRU victims one cleaner batch takes; one frame
// scan amortises over many rows.
const cleanerBatch = 128

// Clean implements cache.Policy: one cleaning pass. force drains every
// stale stripe (used before HDD rebuild and at shutdown). In pass-through
// mode there is nothing to clean — the emergency fold already repaired
// every stale parity — and a cache-device fail-stop mid-pass triggers the
// failover instead of surfacing (internal paths call cleanPass directly so
// their errors route through the owning operation's failover check).
func (k *KDD) Clean(t sim.Time, force bool) (done sim.Time, err error) {
	if k.tr != nil {
		sp := k.tr.Begin(t, obs.PhaseClean)
		defer func() { sp.End(done) }()
	}
	if k.passThrough() {
		return t, nil
	}
	done, err = k.cleanPass(t, force)
	if err != nil && k.ssdFault(err) {
		k.failover(t, HealthBypass)
		return t, nil
	}
	return done, err
}

// cleanPass is the cleaner body: the cache.Cleaner's pass, which first
// issues every row still queued at t (the backstop), then repairs batches
// down to the low-water mark (to zero on force). Every row repair of the
// pass is issued at the pass start, as LeavO, WB, PLog and NVB issue
// theirs: each member queues only its own share of the pass. Chaining a
// row on the previous row's completion would hold every member from now
// until the last row's issue time (a sim.Station remembers only a few
// idle gaps per server), and the foreground would wait behind the whole
// chain.
func (k *KDD) cleanPass(t sim.Time, force bool) (done sim.Time, err error) {
	if k.cleaning {
		return t, nil // re-entrant trigger from allocation inside a pass
	}
	k.cleaning = true
	defer func() { k.cleaning = false }()
	if k.tr != nil {
		sp := k.tr.Begin(t, obs.PhaseCleanPass)
		defer func() { sp.End(done) }()
	}
	return k.cleaner.Pass(t, force)
}

// lowMark is the dirty-page population a pass cleans down to.
func (k *KDD) lowMark() int64 { return int64(lowWater * float64(k.frame.Pages())) }

// highMark is the dirty-page population above which a write hit runs a
// pass.
func (k *KDD) highMark() int64 { return int64(highWater * float64(k.frame.Pages())) }

// planIdle runs at the end of every DEZ commit. When the free pool is
// within one batch of running dry and no row is queued, it queues the
// batch the next pass would repair once the dirty surplus over the
// low-water mark reaches the first of: the free pages left (each commit
// takes one and adds a dirty page, so the pool runs dry about where the
// two meet), a quarter of the band below the high-water mark (so a small
// cache plans before its high-water pass), and a quarter batch. Each plan
// walks every set's LRU head (OldestSlots), so planning the row or two
// each commit adds would cost more host time than the repairs.
func (k *KDD) planIdle(t sim.Time) {
	free := k.frame.Count(cache.Free)
	if k.cleaner.Pending() || free >= cleanerBatch {
		return
	}
	low, dirty := k.lowMark(), k.DirtyPages()
	if dirty <= low || dirty-low < min(free, (k.highMark()-low)/4, cleanerBatch/4) {
		return
	}
	k.cleaner.Plan(t)
	if bugReclaimAtPlan {
		for _, lba := range k.cleaner.Queued() {
			k.reclaimUnrepaired(t, lba)
		}
	}
}

// IdleQueued returns how many planned row repairs wait in the idle queue.
func (k *KDD) IdleQueued() int { return len(k.cleaner.Queued()) }

// planRows is the cleaner's plan: it appends to dst, in issue order, the
// victim LBA of each row the next batch repairs (planBatch), or nothing
// once the pass is done. A batch that need not drain everything takes the
// first min(cleanerBatch, dirty−low) LRU victims: each one reclaims at
// least one dirty page, so the stop rule never reaches further.
func (k *KDD) planRows(dst []int64, force bool) []int64 {
	low, dirty, n := k.lowMark(), k.DirtyPages(), cleanerBatch
	switch {
	case force:
		low = 0
	case dirty <= low:
		return dst
	default:
		n = int(min(cleanerBatch, dirty-low))
	}
	if k.frame.Count(cache.Old) == 0 {
		return dst
	}
	for _, r := range k.planBatch(k.frame.OldestSlots(cache.Old, n), force, low) {
		dst = append(dst, r.lba)
	}
	return dst
}

// repairRow is the cleaner's repair: it repairs the parity row of lba if
// the row still holds an Old page. A queued row whose Old pages were all
// reclaimed since the plan (a retired slot, a fold) is skipped. The
// cleaner repairs a plan's rows in plan order, so the next row of the
// latest plan reuses the peers planBatch found for it (a row's peers
// depend on its LBA alone); any other row computes them.
func (k *KDD) repairRow(t sim.Time, lba int64) (sim.Time, bool, error) {
	if i := k.planNext; i < len(k.plan) && k.plan[i].lba == lba {
		k.planNext++
		return k.cleanRow(t, lba, k.plan[i].peers)
	}
	k.rowPeers = cache.AppendRowPeers(k.backend, k.rowPeers[:0], lba)
	return k.cleanRow(t, lba, k.rowPeers)
}

// planRow is one parity row a cleaner batch repairs: its first LBA (the
// sweep key, peers[0]), the LBA of the victim that chose it and the row's
// peers, in RowPeers order.
type planRow struct {
	row, lba int64
	peers    []int64
}

// planBatch picks the rows one batch of LRU victims repairs and returns
// them in ascending member-row order (RowPeers(lba)[0]), the order the
// batch issues them in. It walks the victims in LRU order with the
// row-at-a-time stop rule, so it picks exactly the rows a loop that
// repaired each row before choosing the next would: a victim already
// reclaimed as an Old peer of an earlier row is skipped, and the stop
// rule reads a projected DirtyPages — each row's repair reclaims its Old
// peers and frees every DEZ page whose valid count the row's deltas
// bring to zero. The returned plan is scratch, valid until the next call.
func (k *KDD) planBatch(victims []int32, force bool, low int64) []planRow {
	plan, marked, all := k.plan[:0], k.planSlots[:0], k.planPeers[:0]
	dirty := k.DirtyPages()
	for _, v := range victims {
		if k.planMark[v] != 0 {
			continue // reclaimed with an earlier row of the plan
		}
		lba := k.frame.Slot(v).RaidLBA
		n := len(all)
		all = cache.AppendRowPeers(k.backend, all, lba)
		peers := all[n:len(all):len(all)]
		for _, p := range peers {
			s := k.frame.Lookup(p)
			if s == cache.NoSlot || k.frame.Slot(s).State != cache.Old {
				continue
			}
			k.planMark[s] = 1
			marked = append(marked, s)
			dirty--
			if od, ok := k.deltaOf(s); ok && !od.staged {
				k.planMark[od.dez]++
				if k.planMark[od.dez] == k.dezPages[od.dez].valid {
					dirty--
				}
			}
		}
		plan = append(plan, planRow{row: peers[0], lba: lba, peers: peers})
		if !force && dirty <= low {
			break
		}
	}
	for _, s := range marked {
		k.planMark[s] = 0
		if od, ok := k.deltaOf(s); ok && !od.staged {
			k.planMark[od.dez] = 0
		}
	}
	k.plan, k.planSlots, k.planPeers, k.planNext = plan, marked, all, 0
	slices.SortFunc(plan, func(a, b planRow) int { return cmp.Compare(a.row, b.row) })
	return plan
}

// Flush implements cache.Policy: repair every stale parity (§III-E2:
// "KDD first updates all parity blocks using the parity_update interface
// and then triggers the rebuilding process"). In pass-through mode it is
// a no-op: the emergency fold already repaired every stale parity and the
// metadata log is quiesced.
func (k *KDD) Flush(t sim.Time) (done sim.Time, err error) {
	if k.tr != nil {
		sp := k.tr.Begin(t, obs.PhaseFlush)
		defer func() { sp.End(done) }()
	}
	if err = k.preOp(t); err != nil {
		return t, err
	}
	if k.passThrough() {
		return t, nil
	}
	done, err = k.flushCached(t)
	if err != nil && k.ssdFault(err) {
		k.failover(t, HealthBypass)
		return t, nil
	}
	return done, err
}

// flushCached is the cache-enabled flush body.
func (k *KDD) flushCached(t sim.Time) (sim.Time, error) {
	done, err := k.cleanPass(t, true)
	if err != nil {
		return t, err
	}
	if k.log != nil {
		c, err := k.log.Flush(done)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// peerInfo pairs a row peer's storage LBA with its cache slot.
type peerInfo struct {
	lba  int64
	slot int32
}

// cleanRow repairs the parity row of lba, whose peers (RowPeers(lba))
// are given, and reclaims every Old peer in it, exploiting the
// stripe-aligned set mapping ("they can be reclaimed together during
// cache cleaning", §III-B). It reports false, doing nothing, when the row
// holds no Old page.
func (k *KDD) cleanRow(t sim.Time, lba int64, peers []int64) (sim.Time, bool, error) {
	cached, oldPeers := k.rowCached[:0], k.rowOld[:0]
	if cap(cached) < len(peers) { // first use: room for the whole row
		cached, oldPeers = make([]peerInfo, 0, len(peers)), make([]peerInfo, 0, len(peers))
	}
	allCached := true
	for _, p := range peers {
		s := k.frame.Lookup(p)
		if s == cache.NoSlot {
			allCached = false
			continue
		}
		pi := peerInfo{lba: p, slot: s}
		cached = append(cached, pi)
		if k.frame.Slot(s).State == cache.Old {
			oldPeers = append(oldPeers, pi)
		}
	}
	k.rowCached, k.rowOld = cached, oldPeers
	if len(oldPeers) == 0 {
		return t, false, nil
	}

	k.st.ParityUpdates++
	var done sim.Time
	var err error
	if allCached {
		done, err = k.parityReconstruct(t, peers, cached)
	} else {
		done, err = k.parityRMW(t, oldPeers)
	}
	if err != nil {
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, false, err
		}
		// An old copy or delta page needed for the repair is unreadable:
		// recompute the parity from the member data instead (the members
		// always hold the current data), then reclaim as usual.
		k.st.MediaFallbacks++
		done, err = k.backend.ResyncRow(t, lba)
		if err != nil {
			return t, false, err
		}
		k.st.RowsHealed++
	}

	// Reclaim the old pages and invalidate their deltas.
	for _, pi := range oldPeers {
		c, err := k.reclaimOld(done, pi.lba, pi.slot)
		if err != nil {
			return t, false, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, true, nil
}

// parityReconstruct recomputes the row's parity from the cached current
// data ("reconstruct-write is only used when all data blocks within the
// stripe are residing in SSD", §III-D) — no disk reads at all.
func (k *KDD) parityReconstruct(t sim.Time, peers []int64, cached []peerInfo) (sim.Time, error) {
	var rowData [][]byte
	if k.dataMode {
		rowData = k.rowPages[:0]
		// Row pages are scratch: the backend XORs them into fresh parity
		// and keeps nothing, so they all go back to the pool on exit.
		defer func() { k.rowPages = releasePages(rowData) }()
		// Every peer is cached, and cached lists them in peers' order.
		for i, p := range peers {
			buf := blockdev.GetPage() // fully overwritten by readCurrent
			rowData = append(rowData, buf)
			if _, err := k.readCurrent(t, p, cached[i].slot, buf); err != nil {
				return t, err
			}
		}
	} else {
		// Timing mode: charge the SSD reads for gathering the row.
		for _, pi := range cached {
			k.ssd.ReadPages(t, k.cacheLBA(pi.slot), 1, nil) //nolint:errcheck // timing only
		}
	}
	return k.backend.ParityUpdateReconstruct(t, peers[0], rowData)
}

// releasePages returns scratch pages to the page pool and the emptied
// list for reuse.
func releasePages(pages [][]byte) [][]byte {
	for i, b := range pages {
		blockdev.PutPage(b)
		pages[i] = nil
	}
	return pages[:0]
}

// parityRMW repairs parity by XOR-ing the decompressed deltas into the
// stale parity read from disk.
func (k *KDD) parityRMW(t sim.Time, oldPeers []peerInfo) (sim.Time, error) {
	lbas := k.rmwLBAs[:0]
	if cap(lbas) < len(oldPeers) { // first use: room for the whole row (cleanRow)
		lbas = make([]int64, 0, cap(oldPeers))
	}
	var deltas [][]byte
	if k.dataMode {
		deltas = k.rowPages[:0]
		// The expanded XOR pages are dead once the backend has folded
		// them into parity; release them on any exit.
		defer func() { k.rowPages = releasePages(deltas) }()
	}
	for _, pi := range oldPeers {
		lbas = append(lbas, pi.lba)
		if !k.dataMode {
			continue
		}
		xor, err := k.expandXor(t, pi.slot)
		if err != nil {
			return t, err
		}
		deltas = append(deltas, xor)
	}
	k.rmwLBAs = lbas
	return k.backend.ParityUpdateDelta(t, lbas, deltas)
}

// readCurrent reads the latest version of a cached page into buf (Clean:
// straight read; Old: old ⊕ delta) without affecting recency.
func (k *KDD) readCurrent(t sim.Time, lba int64, slot int32, buf []byte) (sim.Time, error) {
	switch k.frame.Slot(slot).State {
	case cache.Clean:
		return k.ssdRead(t, k.cacheLBA(slot), buf)
	case cache.Old:
		return k.readOld(t, lba, slot, buf)
	default:
		return t, fmt.Errorf("core: readCurrent on %v slot", k.frame.Slot(slot).State)
	}
}

// expandXor materialises the raw XOR (old ⊕ new) for an Old slot's delta:
// exactly what ParityUpdateDelta folds into the stale parity.
func (k *KDD) expandXor(t sim.Time, slot int32) ([]byte, error) {
	od, ok := k.deltaOf(slot)
	if !ok {
		return nil, fmt.Errorf("%w: slot %d", ErrNotCombinable, slot)
	}
	var d delta.Delta
	if od.staged {
		sd, ok := k.staging.Get(k.cacheLBA(slot))
		if !ok {
			return nil, fmt.Errorf("%w: staged delta missing for slot %d", ErrNotCombinable, slot)
		}
		d = sd.D
	} else {
		dezBuf := blockdev.GetPage() // fully overwritten by the DEZ read
		defer blockdev.PutPage(dezBuf)
		if _, err := k.ssdRead(t, k.cacheLBA(od.dez), dezBuf); err != nil {
			return nil, err
		}
		d = delta.Delta{Len: int(od.length), Raw: od.raw, Bytes: dezBuf[od.off : int(od.off)+int(od.length)]}
	}
	// The xor page is returned to the caller, who owns it (parityRMW
	// releases it after the backend folds it into parity).
	if d.Raw {
		// xor = old ⊕ new: read the old page and fold the new one in.
		xor := blockdev.GetPage() // fully overwritten by the DAZ read
		if _, err := k.ssdRead(t, k.cacheLBA(slot), xor); err != nil {
			blockdev.PutPage(xor)
			return nil, err
		}
		blockdev.XORInto(xor, d.Bytes)
		return xor, nil
	}
	// Codecs compress the XOR itself, so applying the delta to a zero
	// page decompresses it.
	xor := blockdev.GetZeroPage()
	if err := k.codec.Apply(xor, d, xor); err != nil {
		blockdev.PutPage(xor)
		return nil, fmt.Errorf("%w: %v", ErrNotCombinable, err)
	}
	return xor, nil
}

// reclaimOld retires one Old page after its parity has been repaired.
func (k *KDD) reclaimOld(t sim.Time, lba int64, slot int32) (sim.Time, error) {
	// Invalidate the delta wherever it lives.
	if od, ok := k.deltaOf(slot); ok {
		if od.staged {
			k.staging.Drop(k.cacheLBA(slot))
		} else {
			k.releaseDez(t, od.dez)
		}
		k.dropDelta(slot)
	}
	k.st.Reclaims++

	if k.cfg.ReclaimMaterialize {
		// Scheme 1: keep the latest version cached as Clean. Costs an
		// extra flash program per reclaim (§III-D's "expense of more
		// cache writes"); requires the latest bytes in data mode.
		var buf []byte
		var err error
		if k.dataMode {
			buf = blockdev.GetPage() // fully overwritten by the RAID read
			defer blockdev.PutPage(buf)
			// The delta is gone from the books but the combine must use
			// it; materialisation is done by re-reading from RAID, which
			// already holds the current data (always dispatched).
			if _, err = k.backend.ReadPages(t, lba, 1, buf); err != nil {
				return t, err
			}
			k.st.RAIDReads++
		}
		k.st.WriteAllocs++
		done, err := k.ssd.WritePages(t, k.cacheLBA(slot), 1, buf)
		if err != nil {
			return t, err
		}
		k.frame.Transition(slot, cache.Clean)
		if _, err := k.logPut(t, k.cleanEntry(slot, lba)); err != nil {
			return t, err
		}
		return done, nil
	}

	// Scheme 2 (the paper's choice): drop the old page.
	k.frame.Release(slot, true)
	k.trimSlot(t, slot)
	if _, err := k.logPut(t, k.freeEntry(slot)); err != nil {
		return t, err
	}
	return t, nil
}

// reclaimUnrepaired is the kddbug_idle mutation of planIdle (see
// bugflag_idle.go): it reclaims a queued row's Old peers at plan time,
// before their parity is repaired. The row then leaves the queue with
// nothing to repair, its deltas are gone and its parity stays stale: a
// member lost later rebuilds the row's pages from that parity.
func (k *KDD) reclaimUnrepaired(t sim.Time, lba int64) {
	for _, p := range k.backend.RowPeers(lba) {
		if s := k.frame.Lookup(p); s != cache.NoSlot && k.frame.Slot(s).State == cache.Old {
			_, err := k.reclaimOld(t, p, s)
			k.stick(err)
		}
	}
}
