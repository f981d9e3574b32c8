// Package ssd models a flash-based solid state drive: the cache device of
// the paper. It captures what the evaluation depends on:
//
//   - latency: page reads/programs and block erases with channel-level
//     parallelism (the paper notes KDD can read data and delta
//     concurrently "due to the parallelism inside SSD", §IV-B2);
//   - endurance: a page-mapped FTL with greedy garbage collection tracks
//     per-block erase counts and write amplification, so the SSD-lifetime
//     claims (§II-A, §IV-A3) can be measured rather than asserted.
//
// The host address space is smaller than physical flash by the
// over-provisioning factor, like a real drive.
package ssd

import (
	"fmt"

	"kddcache/internal/bitset"
	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Config describes the flash device.
type Config struct {
	HostPages     int64   // exported capacity in 4KB pages
	PagesPerBlock int     // flash pages per erase block
	Channels      int     // independent channels (parallel servers)
	OverProvision float64 // extra physical capacity fraction (e.g. 0.07)

	ReadLatency    sim.Time // page read (cell-to-register + transfer)
	ProgramLatency sim.Time // page program
	EraseLatency   sim.Time // block erase
	PECycles       int64    // per-block program/erase budget

	// GCLowWater is the fraction of free physical blocks below which the
	// FTL garbage-collects until GCHighWater is reached.
	GCLowWater  float64
	GCHighWater float64
}

// DefaultConfig returns an MLC device resembling the 120GB SSD in §IV-B
// (scaled by hostPages), with 1GB used as cache.
func DefaultConfig(hostPages int64) Config {
	return Config{
		HostPages:      hostPages,
		PagesPerBlock:  128,
		Channels:       8,
		OverProvision:  0.07,
		ReadLatency:    70 * sim.Microsecond,
		ProgramLatency: 300 * sim.Microsecond,
		EraseLatency:   2500 * sim.Microsecond,
		PECycles:       10000,
		GCLowWater:     0.02,
		GCHighWater:    0.05,
	}
}

// invalidPPN marks an unmapped logical page.
const invalidPPN = int64(-1)

// block holds FTL per-block state.
type block struct {
	erases   int64
	valid    int     // valid pages in the block
	writePtr int     // next free page index within the block
	pages    []int64 // physical page -> host LBA owning it, or -1
}

// Device is the SSD model.
type Device struct {
	name string
	cfg  Config

	store *blockdev.MemStore // nil in timing mode; indexed by host LBA

	chans *sim.Station // one server per channel

	// FTL state.
	l2p        []int64 // host LBA -> physical page number (PPN)
	blocks     []block
	freeBlocks []int // indices of erased blocks
	active     int   // block currently being filled
	physBlocks int
	inGC       bool
	// closed files every fully written block but the active one by its
	// valid pages: closed[v] holds the blocks with v valid, so the greedy
	// victim is the lowest index in the lowest non-empty bucket.
	closed []bitset.Set
	// gcTail is gcOnce's relocation work per channel that goes to the
	// channel's tail, added in one Append when the collection ends.
	gcTail []sim.Time

	// Statistics.
	hostReads   int64
	hostWrites  int64
	flashReads  int64
	flashWrites int64 // programs, including GC relocation
	gcWrites    int64 // programs due to GC relocation only
	erases      int64
	trims       int64
	wornOut     bool

	tr *obs.Tracer
}

// SetTracer installs a span tracer (nil disables tracing). Host reads and
// writes appear as dev_read/dev_write spans carrying the device name.
func (d *Device) SetTracer(tr *obs.Tracer) { d.tr = tr }

// New returns a timing-mode SSD.
func New(name string, cfg Config) *Device { return newDevice(name, cfg, nil) }

// NewData returns a data-mode SSD backed by memory.
func NewData(name string, cfg Config) *Device {
	return newDevice(name, cfg, blockdev.NewMemStore(cfg.HostPages))
}

func newDevice(name string, cfg Config, store *blockdev.MemStore) *Device {
	if cfg.HostPages <= 0 || cfg.PagesPerBlock <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("ssd: invalid config %+v", cfg))
	}
	if cfg.GCHighWater <= cfg.GCLowWater {
		panic("ssd: GC watermarks inverted")
	}
	physPages := int64(float64(cfg.HostPages) * (1 + cfg.OverProvision))
	physBlocks := int((physPages + int64(cfg.PagesPerBlock) - 1) / int64(cfg.PagesPerBlock))
	// Guarantee real over-provisioning even on tiny devices: at least two
	// whole spare blocks beyond what host data strictly needs, or greedy
	// GC can find only fully-valid victims and make no progress.
	hostBlocks := int((cfg.HostPages + int64(cfg.PagesPerBlock) - 1) / int64(cfg.PagesPerBlock))
	if physBlocks < hostBlocks+3 {
		physBlocks = hostBlocks + 3
	}
	d := &Device{
		name:       name,
		cfg:        cfg,
		store:      store,
		chans:      sim.NewStation(name, cfg.Channels),
		l2p:        make([]int64, cfg.HostPages),
		blocks:     make([]block, physBlocks),
		physBlocks: physBlocks,
		closed:     make([]bitset.Set, cfg.PagesPerBlock+1),
		gcTail:     make([]sim.Time, cfg.Channels),
	}
	for v := range d.closed {
		d.closed[v] = bitset.New(int64(physBlocks))
	}
	for i := range d.l2p {
		d.l2p[i] = invalidPPN
	}
	for i := range d.blocks {
		d.blocks[i].pages = make([]int64, cfg.PagesPerBlock)
		for j := range d.blocks[i].pages {
			d.blocks[i].pages[j] = invalidPPN
		}
		if i != 0 {
			d.freeBlocks = append(d.freeBlocks, i)
		}
	}
	d.active = 0
	return d
}

// Name implements blockdev.Device.
func (d *Device) Name() string { return d.name }

// Drained returns the time the flash channels finish every operation
// queued on them so far, host writes and garbage collection included.
func (d *Device) Drained() sim.Time { return d.chans.Drained() }

// Pages implements blockdev.Device.
func (d *Device) Pages() int64 { return d.cfg.HostPages }

// Store exposes the backing store (nil in timing mode).
func (d *Device) Store() *blockdev.MemStore { return d.store }

// channelFor maps a physical page to its channel (page-level striping).
func (d *Device) channelFor(ppn int64) int {
	return int(ppn % int64(d.cfg.Channels))
}

func (d *Device) ppn(blk, page int) int64 {
	return int64(blk)*int64(d.cfg.PagesPerBlock) + int64(page)
}

// allocPage returns a fresh physical page for lba, garbage collecting if
// necessary, and charges flash program latency to its channel.
func (d *Device) allocPage(t sim.Time, lba int64) (int64, sim.Time) {
	d.maybeGC(t)
	if d.blocks[d.active].writePtr >= d.cfg.PagesPerBlock {
		d.openNewActive(t)
	}
	blk := &d.blocks[d.active]
	page := blk.writePtr
	blk.writePtr++
	blk.valid++
	blk.pages[page] = lba
	ppn := d.ppn(d.active, page)
	d.flashWrites++
	done := d.chans.SubmitAt(d.channelFor(ppn), t, d.cfg.ProgramLatency)
	return ppn, done
}

// openNewActive switches allocation to a fresh erased block and closes the
// full one it leaves. maybeGC keeps at least one free block in reserve, so
// GC never needs to recurse here; running out despite over-provisioning
// indicates an accounting bug.
func (d *Device) openNewActive(t sim.Time) {
	if len(d.freeBlocks) == 0 {
		if d.gcOnce(t) == -1 {
			panic("ssd: out of space with nothing to garbage collect")
		}
	}
	d.closed[d.blocks[d.active].valid].Add(int64(d.active))
	d.active = d.freeBlocks[len(d.freeBlocks)-1]
	d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
}

// invalidate clears the physical page currently mapped to lba, if any.
func (d *Device) invalidate(lba int64) {
	ppn := d.l2p[lba]
	if ppn == invalidPPN {
		return
	}
	blk := int(ppn / int64(d.cfg.PagesPerBlock))
	page := int(ppn % int64(d.cfg.PagesPerBlock))
	b := &d.blocks[blk]
	if b.pages[page] == lba {
		b.pages[page] = invalidPPN
		if b.writePtr == d.cfg.PagesPerBlock && blk != d.active {
			d.closed[b.valid].Remove(int64(blk))
			d.closed[b.valid-1].Add(int64(blk))
		}
		b.valid--
	}
	d.l2p[lba] = invalidPPN
}

// maybeGC runs garbage collection when free space is low. GC time is
// charged to the channels (it competes with foreground traffic).
func (d *Device) maybeGC(t sim.Time) {
	low := int(float64(d.physBlocks) * d.cfg.GCLowWater)
	if low < 1 {
		low = 1
	}
	if len(d.freeBlocks) > low {
		return
	}
	high := int(float64(d.physBlocks) * d.cfg.GCHighWater)
	if high <= low {
		high = low + 1
	}
	for len(d.freeBlocks) < high {
		before := len(d.freeBlocks)
		if d.gcOnce(t) == -1 {
			break // nothing reclaimable
		}
		if len(d.freeBlocks) <= before {
			// The victim was (nearly) fully valid: relocation consumed as
			// much space as the erase freed. More rounds cannot help.
			break
		}
	}
}

// gcOnce picks the closed block with the fewest valid pages (greedy, the
// lowest index on a tie), relocates its live pages, erases it, and
// returns 0 (or -1 if no victim exists).
//
// Every job of a collection arrives at t. Once no idle gap of a channel
// holds the shortest of them, none of the channel's later jobs fits one
// either: a tail job arriving at t leaves no gap that ends after t. So
// from then on the channel's jobs are summed and appended at its tail in
// one Append, with the completions one call per job would give.
func (d *Device) gcOnce(t sim.Time) int {
	if d.inGC {
		// A single gcOnce consumes at most one free block (the relocation
		// target) and frees exactly one, and maybeGC keeps a reserve, so
		// re-entry means the invariants are broken — fail loudly rather
		// than double-collect a block.
		panic("ssd: re-entrant garbage collection")
	}
	d.inGC = true
	defer func() { d.inGC = false }()
	victim := -1
	for v := range d.closed {
		if d.closed[v].Len() > 0 {
			victim = int(d.closed[v].FirstIn(0, int64(d.physBlocks)))
			d.closed[v].Remove(int64(victim))
			break
		}
	}
	if victim == -1 {
		return -1
	}
	shortest := min(d.cfg.ReadLatency, d.cfg.ProgramLatency, d.cfg.EraseLatency)
	submit := func(ch int, service sim.Time) {
		if d.gcTail[ch] == 0 && d.chans.Fits(ch, t, shortest) {
			d.chans.SubmitAt(ch, t, service)
			return
		}
		d.gcTail[ch] += service
	}
	vb := &d.blocks[victim]
	// Relocate valid pages.
	for page, lba := range vb.pages {
		if lba == invalidPPN {
			continue
		}
		oldPPN := d.ppn(victim, page)
		d.flashReads++
		submit(d.channelFor(oldPPN), d.cfg.ReadLatency)
		// Clear without touching the victim's valid counter twice: mark
		// the source invalid, then map to a new page.
		vb.pages[page] = invalidPPN
		vb.valid--
		if d.blocks[d.active].writePtr >= d.cfg.PagesPerBlock {
			d.openNewActive(t)
		}
		ab := &d.blocks[d.active]
		np := ab.writePtr
		ab.writePtr++
		ab.valid++
		ab.pages[np] = lba
		nppn := d.ppn(d.active, np)
		d.l2p[lba] = nppn
		d.flashWrites++
		d.gcWrites++
		submit(d.channelFor(nppn), d.cfg.ProgramLatency)
	}
	// Erase the victim.
	vb.writePtr = 0
	vb.valid = 0
	vb.erases++
	d.erases++
	if vb.erases >= d.cfg.PECycles {
		d.wornOut = true
	}
	submit(victim%d.cfg.Channels, d.cfg.EraseLatency)
	for ch, service := range d.gcTail {
		if service > 0 {
			d.chans.Append(ch, t, service)
			d.gcTail[ch] = 0
		}
	}
	d.freeBlocks = append(d.freeBlocks, victim)
	return 0
}

// ReadPages implements blockdev.Device.
func (d *Device) ReadPages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.HostPages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	if d.store != nil && buf != nil {
		// A page that fails its checksum fails the read at once, like an
		// injected media error: no channel time, no span, no count.
		if err := d.store.ReadPagesChecked(lba, buf); err != nil {
			return t, err
		}
	}
	// Explicit End instead of a deferred closure: this is the hottest
	// traced function and the defer setup is measurable per call.
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevRead, d.name, lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		l := lba + int64(i)
		d.hostReads++
		d.flashReads++
		ppn := d.l2p[l]
		ch := 0
		if ppn != invalidPPN {
			ch = d.channelFor(ppn)
		}
		c := d.chans.SubmitAt(ch, t, d.cfg.ReadLatency)
		if c > done {
			done = c
		}
	}
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// WritePages implements blockdev.Device.
func (d *Device) WritePages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.HostPages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevWrite, d.name, lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		l := lba + int64(i)
		d.hostWrites++
		d.invalidate(l)
		ppn, c := d.allocPage(t, l)
		d.l2p[l] = ppn
		if c > done {
			done = c
		}
		if d.store != nil && buf != nil {
			d.store.WritePage(l, buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize])
		}
	}
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// TrimPages implements blockdev.Trimmer: discards the mapping so the FTL
// can reclaim the flash pages without relocation.
func (d *Device) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.HostPages); err != nil {
		return t, err
	}
	for i := 0; i < count; i++ {
		l := lba + int64(i)
		d.invalidate(l)
		d.trims++
		if d.store != nil {
			d.store.TrimPage(l)
		}
	}
	return t, nil
}

// Stats reports FTL-level counters.
type Stats struct {
	HostReads   int64
	HostWrites  int64
	FlashReads  int64
	FlashWrites int64
	GCWrites    int64
	Erases      int64
	Trims       int64
	MaxErase    int64
	AvgErase    float64
	WornOut     bool
}

// WriteAmplification returns flash programs divided by host writes.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.FlashWrites) / float64(s.HostWrites)
}

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats {
	var maxE, sumE int64
	for i := range d.blocks {
		if d.blocks[i].erases > maxE {
			maxE = d.blocks[i].erases
		}
		sumE += d.blocks[i].erases
	}
	return Stats{
		HostReads:   d.hostReads,
		HostWrites:  d.hostWrites,
		FlashReads:  d.flashReads,
		FlashWrites: d.flashWrites,
		GCWrites:    d.gcWrites,
		Erases:      d.erases,
		Trims:       d.trims,
		MaxErase:    maxE,
		AvgErase:    float64(sumE) / float64(len(d.blocks)),
		WornOut:     d.wornOut,
	}
}

// LifetimeFraction returns the consumed fraction of the device's P/E
// budget, based on average erases (wear levelling is implicit in the
// log-structured allocation).
func (d *Device) LifetimeFraction() float64 {
	return d.Stats().AvgErase / float64(d.cfg.PECycles)
}

// PublishMetrics writes the FTL counters into reg.
func (d *Device) PublishMetrics(reg *obs.Registry) {
	s := d.Stats()
	reg.SetCounter("ssd_host_reads_total", "Host page reads served.", s.HostReads)
	reg.SetCounter("ssd_host_writes_total", "Host page writes served.", s.HostWrites)
	reg.SetCounter("ssd_flash_reads_total", "Flash page reads (host + GC relocation).", s.FlashReads)
	reg.SetCounter("ssd_flash_writes_total", "Flash page programs (host + GC relocation).", s.FlashWrites)
	reg.SetCounter("ssd_gc_writes_total", "Flash programs caused by GC relocation.", s.GCWrites)
	reg.SetCounter("ssd_erases_total", "Block erases performed.", s.Erases)
	reg.SetCounter("ssd_trims_total", "Pages trimmed.", s.Trims)
	reg.SetGauge("ssd_max_erase", "Highest per-block erase count.", float64(s.MaxErase))
	reg.SetGauge("ssd_write_amplification", "Flash programs per host write.", s.WriteAmplification())
	reg.SetGauge("ssd_lifetime_fraction", "Consumed fraction of the P/E budget.", d.LifetimeFraction())
	worn := 0.0
	if s.WornOut {
		worn = 1
	}
	reg.SetGauge("ssd_worn_out", "1 when any block exhausted its P/E budget.", worn)
}

var (
	_ blockdev.Device  = (*Device)(nil)
	_ blockdev.Trimmer = (*Device)(nil)
)
