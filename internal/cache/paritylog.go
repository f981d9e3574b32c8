package cache

import (
	"fmt"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// PLog implements Parity Logging (Stodolsky, Gibson & Holland, ISCA'93 —
// [2] in the paper), the classic small-write optimisation KDD descends
// from: instead of updating parity in place on every small write, the
// parity-update image (old⊕new of the data page) is appended to a
// dedicated log region with fast sequential writes; when the log fills,
// the out-of-date parities are reconciled in one large batch.
//
// Differences from KDD worth measuring: the update images live on DISK
// (sequential-append cheap, but reclamation reads them back), there is no
// read cache at all, and every small write still costs a data-page read
// to form the image. The paper's §V-A cites this lineage; having it as a
// baseline shows what the SSD brings beyond pure parity deferral. Reads
// are the embedded Nossd's array reads.
type PLog struct {
	Nossd
	logDev  blockdev.Device // dedicated log disk
	logCap  int64           // log capacity in pages
	logUsed int64
	// pending accumulates the update images per storage LBA (latest
	// wins, like the paper's parity-update images).
	pending map[int64][]byte // lba -> xor image (nil in timing mode)
	order   []int64          // insertion order for deterministic reconcile
	peers   []int64          // reconcile's row scratch
}

// NewPLog builds a parity log over a dedicated device; logCap pages of
// the device are used as the append region.
func NewPLog(backend Backend, logDev blockdev.Device, logCap int64) *PLog {
	if logCap < 1 || logCap > logDev.Pages() {
		panic("cache: bad parity log capacity")
	}
	return &PLog{
		Nossd:   Nossd{backend: backend},
		logDev:  logDev,
		logCap:  logCap,
		pending: make(map[int64][]byte),
	}
}

// Name implements Policy.
func (p *PLog) Name() string { return "PLog" }

// Write implements Policy: read old data, write new data without parity,
// append the update image to the log (sequential). Reconcile when full.
func (p *PLog) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	p.st.Writes++
	p.st.WriteMiss++
	data := buf != nil

	// Read the old version to form the parity-update image.
	var old []byte
	if data {
		old = make([]byte, blockdev.PageSize)
	}
	p.st.RAIDReads++
	c, err := p.backend.ReadPages(t, lba, 1, old)
	if err != nil {
		return t, err
	}
	// Write the new data without touching parity.
	p.st.RAIDWrites++
	dataDone, err := p.backend.WriteNoParity(c, lba, 1, buf)
	if err != nil {
		return t, err
	}
	p.st.SmallWritesSaved++

	// Append the image to the log region (sequential append).
	img := old // nil in timing mode
	blockdev.XORInto(img, buf)
	if prev, ok := p.pending[lba]; ok {
		// Coalesce: the stored image must stay old0⊕newest, so XOR the
		// two images together (old0⊕new1 ⊕ new1⊕new2 = old0⊕new2).
		blockdev.XORInto(img, prev)
	} else {
		p.order = append(p.order, lba)
	}
	p.pending[lba] = img
	logDone, err := p.logDev.WritePages(t, p.logUsed%p.logCap, 1, img)
	if err != nil {
		return t, err
	}
	p.logUsed++

	done := sim.MaxTime(dataDone, logDone)
	// Reconcile incrementally once the log passes 3/4 occupancy, so the
	// background work is paced instead of arriving as one storm when the
	// region fills ("large sequential accesses when the log disk is
	// full" — amortised here over foreground writes to keep the open
	// queues sane, as production parity-logging implementations do).
	if p.logUsed >= p.logCap {
		c, err := p.reconcile(done, 0) // full drain: out of space
		if err != nil {
			return t, err
		}
		done = c
	} else if p.logUsed >= p.logCap*3/4 {
		// Apply a sizeable ascending-row batch: adjacent rows' parity
		// pages are adjacent on disk, so the sweep is near-sequential —
		// the "large sequential accesses" the design depends on.
		if _, err := p.reconcile(done, 256); err != nil {
			return t, err
		}
	}
	return done, nil
}

// reconcile applies pending update images to their stale parities, oldest
// rows first, and credits the freed log space. maxRows bounds the work
// (0 = drain everything).
func (p *PLog) reconcile(t sim.Time, maxRows int) (sim.Time, error) {
	if len(p.order) == 0 {
		p.logUsed = 0
		return t, nil
	}
	// Charge the sequential read-back of the images being applied.
	done := t

	// Group images by parity row so each row's parity is RMW'd once.
	byRow := make(map[int64][]int64)
	for _, lba := range p.order {
		p.peers = AppendRowPeers(p.backend, p.peers[:0], lba)
		key := p.peers[0]
		byRow[key] = append(byRow[key], lba)
	}
	keys := make([]int64, 0, len(byRow))
	for k := range byRow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if maxRows > 0 && len(keys) > maxRows {
		keys = keys[:maxRows]
	}
	// Build the batch: the images are applied from the in-memory copies
	// (the on-disk log exists for durability and is read back only on
	// recovery). Adjacent rows' parity pages are adjacent on the member
	// disks, so the batch path reads/writes them in sequential runs —
	// the large accesses the scheme depends on.
	fixes := make([]raid.RowFix, 0, len(keys))
	applied := 0
	appliedSet := make(map[int64]bool)
	for _, k := range keys {
		lbas := byRow[k]
		fix := raid.RowFix{LBAs: lbas}
		if p.pending[lbas[0]] != nil { // images carry bytes in data mode only
			fix.Deltas = make([][]byte, len(lbas))
			for i, lba := range lbas {
				fix.Deltas[i] = p.pending[lba]
			}
		}
		fixes = append(fixes, fix)
		for _, lba := range lbas {
			appliedSet[lba] = true
			applied++
		}
	}
	p.st.ParityUpdates += int64(len(fixes))
	c, err := p.backend.ParityUpdateDeltaBatch(t, fixes)
	if err != nil {
		return t, fmt.Errorf("cache: parity log reconcile: %w", err)
	}
	done = sim.MaxTime(done, c)
	for lba := range appliedSet {
		delete(p.pending, lba)
	}
	// Compact the insertion order and credit the log space.
	kept := p.order[:0]
	for _, lba := range p.order {
		if !appliedSet[lba] {
			kept = append(kept, lba)
		}
	}
	p.order = kept
	// Reconciliation compacts the region: live images are rewritten to
	// the front (space of superseded duplicates is reclaimed with them).
	p.logUsed = int64(len(p.order))
	p.st.CleanerRuns++
	return done, nil
}

// Clean implements Policy: opportunistic reconcile when idle.
func (p *PLog) Clean(t sim.Time, force bool) (sim.Time, error) {
	if p.logUsed == 0 {
		return t, nil
	}
	if force {
		return p.reconcile(t, 0)
	}
	if p.logUsed < p.logCap/2 {
		return t, nil
	}
	return p.reconcile(t, 32)
}

// Flush implements Policy.
func (p *PLog) Flush(t sim.Time) (sim.Time, error) {
	if p.logUsed == 0 {
		return t, nil
	}
	return p.reconcile(t, 0)
}

var _ Policy = (*PLog)(nil)
