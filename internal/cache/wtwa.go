package cache

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// base carries the shared plumbing of the SSD-backed policies: the array
// path (the embedded Nossd, which owns the backend and the counters), the
// frame, the cache device, and the data-partition offset (cache page i
// lives at SSD LBA dataStart+i).
type base struct {
	Nossd
	frame     *Frame
	ssd       blockdev.Device
	dataStart int64
}

func newBase(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) base {
	return base{
		Nossd:     Nossd{backend: backend},
		frame:     NewFrame(cachePages, ways, backend.StripePages()),
		ssd:       ssd,
		dataStart: dataStart,
	}
}

// cacheLBA maps a slot to its SSD page address.
func (b *base) cacheLBA(slot int32) int64 { return b.dataStart + int64(slot) }

// readSlot reads a cached page from the SSD.
func (b *base) readSlot(t sim.Time, slot int32, buf []byte) (sim.Time, error) {
	return b.ssd.ReadPages(t, b.cacheLBA(slot), 1, buf)
}

// writeSlot writes a cached page to the SSD.
func (b *base) writeSlot(t sim.Time, slot int32, buf []byte) (sim.Time, error) {
	return b.ssd.WritePages(t, b.cacheLBA(slot), 1, buf)
}

// trimSlot discards the SSD page backing a released slot so the FTL can
// reclaim it without relocation.
func (b *base) trimSlot(t sim.Time, slot int32) {
	if tr, ok := b.ssd.(blockdev.Trimmer); ok {
		tr.TrimPages(t, b.cacheLBA(slot), 1) //nolint:errcheck // advisory
	}
}

// allocOrEvict finds a slot in lba's set: a free one, else the LRU slot
// among evictable states. Returns NoSlot if nothing can be evicted.
func (b *base) allocOrEvict(t sim.Time, lba int64, evictable ...State) int32 {
	set := b.frame.SetOf(lba)
	if s := b.frame.AllocFree(set); s != NoSlot {
		return s
	}
	s := b.frame.EvictLRU(set, evictable...)
	if s == NoSlot {
		return NoSlot
	}
	b.st.Evictions++
	b.frame.Release(s, true)
	b.trimSlot(t, s)
	return s
}

// dataMode reports whether the cache device stores real bytes.
func (b *base) dataMode() bool {
	if s, ok := b.ssd.(blockdev.Storer); ok {
		return s.Store() != nil
	}
	return false
}

// Frame exposes the slot frame (tests and the harness inspect it).
func (b *base) Frame() *Frame { return b.frame }

// Read implements Policy: the cached read (cachedRead).
func (b *base) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	done, _, err := b.cachedRead(t, lba, buf)
	return done, err
}

// cachedRead is every SSD-backed policy's read. A hit is served from the
// SSD copy; a miss is Nossd's array read, after which a slot is filled
// with the page. The fill's SSD program is issued at the array read's
// completion (data already in hand) and does not extend request latency.
// filled reports whether a slot was filled.
func (b *base) cachedRead(t sim.Time, lba int64, buf []byte) (done sim.Time, filled bool, err error) {
	if slot := b.frame.Lookup(lba); slot != NoSlot {
		b.st.Reads++
		b.st.ReadHits++
		b.frame.Touch(slot)
		done, err = b.readSlot(t, slot, buf)
		return done, false, err
	}
	done, err = b.Nossd.Read(t, lba, buf)
	if err != nil {
		return t, false, err
	}
	slot := b.allocOrEvict(done, lba, Clean)
	if slot == NoSlot {
		return done, false, nil // set pinned solid; serve uncached
	}
	b.frame.Insert(lba, slot, Clean)
	b.st.ReadFills++
	b.writeSlot(done, slot, buf) //nolint:errcheck // background fill
	return done, true, nil
}

// ---------------------------------------------------------------------------
// WT: write-through.

// WT is the write-through baseline: every write goes to both the cache
// and the RAID (with parity update) before completing; reads fill on miss.
type WT struct{ base }

// NewWT builds a write-through cache of cachePages pages whose data
// partition starts at dataStart on the SSD.
func NewWT(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WT {
	return &WT{newBase(ssd, backend, cachePages, dataStart, ways)}
}

// Name implements Policy.
func (w *WT) Name() string { return "WT" }

// Write implements Policy. The write is acknowledged only after both the
// RAID (including parity) and the SSD copy are durable.
func (w *WT) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Writes++
	w.st.RAIDWrites++
	raidDone, err := w.backend.WritePages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	var ssdDone sim.Time
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.st.WriteHits++
		w.frame.Touch(slot)
		w.st.WriteAllocs++
		ssdDone, err = w.writeSlot(t, slot, buf)
	} else {
		w.st.WriteMiss++
		slot = w.allocOrEvict(t, lba, Clean)
		if slot != NoSlot {
			w.frame.Insert(lba, slot, Clean)
			w.st.WriteAllocs++
			ssdDone, err = w.writeSlot(t, slot, buf)
		}
	}
	if err != nil {
		return t, err
	}
	return sim.MaxTime(raidDone, ssdDone), nil
}

// ---------------------------------------------------------------------------
// WA: write-around.

// WA is the write-around baseline: writes bypass the cache entirely
// (invalidating any cached copy) and allocate only on read misses.
type WA struct{ base }

// NewWA builds a write-around cache.
func NewWA(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WA {
	return &WA{newBase(ssd, backend, cachePages, dataStart, ways)}
}

// Name implements Policy.
func (w *WA) Name() string { return "WA" }

// Write implements Policy: Nossd's array write (writes never hit a
// write-around cache), after any stale cached copy is invalidated so
// later reads refill.
func (w *WA) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.frame.Release(slot, true)
		w.trimSlot(t, slot)
	}
	return w.Nossd.Write(t, lba, buf)
}

var (
	_ Policy = (*WT)(nil)
	_ Policy = (*WA)(nil)
)
