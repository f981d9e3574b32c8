package cache_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/lsraid"
	"kddcache/internal/metalog"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
)

// stack is a data-mode test rig: RAID-5 over null devices plus an SSD
// null device, with a flat oracle.
type stack struct {
	ssd    *blockdev.NullDevice
	array  *raid.Array
	oracle map[int64][]byte
	rng    *sim.RNG
}

// newArray5 builds a 5-disk RAID-5 over the given members.
func newArray5(members []blockdev.Device) (*raid.Array, error) {
	return raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
}

func newStack(t *testing.T, diskPages int64) *stack {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", diskPages))
	}
	a, err := newArray5(members)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{
		ssd:    blockdev.NewNullDataDevice("ssd", 1<<16),
		array:  a,
		oracle: make(map[int64][]byte),
		rng:    sim.NewRNG(99),
	}
}

func (s *stack) page(tag byte) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(s.rng.Uint64())
	}
	p[0] = tag
	return p
}

func (s *stack) write(t *testing.T, p cache.Policy, lba int64) {
	t.Helper()
	data := s.page(byte(lba))
	if _, err := p.Write(0, lba, data); err != nil {
		t.Fatalf("write %d: %v", lba, err)
	}
	s.oracle[lba] = data
}

func (s *stack) verify(t *testing.T, p cache.Policy) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range s.oracle {
		if _, err := p.Read(0, lba, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d mismatch via %s", lba, p.Name())
		}
	}
}

func TestFrameBasics(t *testing.T) {
	f := cache.NewFrame(1024, 64, 32)
	if f.Pages() != 1024 || f.Sets() != 16 || f.Ways() != 64 {
		t.Fatalf("geometry %d/%d/%d", f.Pages(), f.Sets(), f.Ways())
	}
	if f.Count(cache.Free) != 1024 {
		t.Fatal("fresh frame not all free")
	}
	// Same stripe -> same set.
	if f.SetOf(0) != f.SetOf(31) {
		t.Fatal("stripe pages split across sets")
	}
	slot := f.AllocFree(f.SetOf(100))
	if slot == cache.NoSlot {
		t.Fatal("no free slot in fresh frame")
	}
	f.Insert(100, slot, cache.Clean)
	if f.Lookup(100) != slot {
		t.Fatal("lookup broken")
	}
	if f.Count(cache.Clean) != 1 {
		t.Fatal("count not updated")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.Release(slot, true)
	if f.Lookup(100) != cache.NoSlot || f.Count(cache.Free) != 1024 {
		t.Fatal("release broken")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLRUEviction(t *testing.T) {
	f := cache.NewFrame(64, 64, 16) // single set
	var slots []int32
	for lba := int64(0); lba < 64; lba++ {
		s := f.AllocFree(0)
		f.Insert(lba*16, s, cache.Clean) // distinct stripes, same set (1 set)
		slots = append(slots, s)
	}
	f.Touch(slots[0]) // make slot 0 most recent
	victim := f.EvictLRU(0, cache.Clean)
	if victim == slots[0] {
		t.Fatal("LRU evicted the most recently used slot")
	}
	if victim != slots[1] {
		t.Fatalf("victim = %d, want %d", victim, slots[1])
	}
	if f.EvictLRU(0, cache.Old) != cache.NoSlot {
		t.Fatal("evicted a state not present")
	}
}

func TestFrameLeastDeltaSet(t *testing.T) {
	f := cache.NewFrame(64, 16, 16) // 4 sets
	// Fill set 0 with deltas.
	for i := 0; i < 4; i++ {
		s := f.AllocFree(0)
		f.MarkDelta(s)
	}
	set := f.LeastDeltaSet()
	if set == 0 {
		t.Fatal("picked the most delta-loaded set")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameFixedPartition(t *testing.T) {
	f := cache.NewFrame(64, 16, 16) // 4 sets
	f.SetDataSets(3)
	for lba := int64(0); lba < 1000; lba += 16 {
		if f.SetOf(lba) >= 3 {
			t.Fatal("data mapped into reserved delta sets")
		}
	}
	if s := f.LeastDeltaSet(); s != 3 {
		t.Fatalf("delta set = %d, want 3 (reserved)", s)
	}
	if f.DataSets() != 3 {
		t.Fatal("DataSets accessor wrong")
	}
}

func TestFrameOldestSlots(t *testing.T) {
	f := cache.NewFrame(64, 16, 16)
	var order []int32
	for i := int64(0); i < 8; i++ {
		set := f.SetOf(i * 16)
		s := f.AllocFree(set)
		f.Insert(i*16, s, cache.Clean)
		f.Transition(s, cache.Old)
		order = append(order, s)
	}
	got := f.OldestSlots(cache.Old, 3)
	if len(got) != 3 || got[0] != order[0] || got[1] != order[1] || got[2] != order[2] {
		t.Fatalf("OldestSlots = %v, insertion order %v", got, order)
	}
	if n := len(f.OldestSlots(cache.Old, 100)); n != 8 {
		t.Fatalf("OldestSlots(100) returned %d", n)
	}
}

func TestFrameGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { cache.NewFrame(0, 4, 16) },
		func() { cache.NewFrame(2, 4, 16) },
		func() { cache.NewFrame(64, 0, 16) },
		func() { cache.NewFrame(64, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNossdPassthrough(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewNossd(s.array)
	for lba := int64(0); lba < 50; lba++ {
		s.write(t, p, lba)
	}
	s.verify(t, p)
	st := p.Stats()
	if st.Hits() != 0 || st.SSDWrites() != 0 {
		t.Fatalf("Nossd stats: %+v", st)
	}
	if p.Name() != "Nossd" {
		t.Fatal("name")
	}
	if _, err := p.Clean(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
}

func TestWTReadYourWrites(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewWT(s.ssd, s.array, 256, 0, 32)
	for lba := int64(0); lba < 100; lba++ {
		s.write(t, p, lba)
	}
	// Overwrite some.
	for lba := int64(0); lba < 100; lba += 3 {
		s.write(t, p, lba)
	}
	s.verify(t, p)
	st := p.Stats()
	if st.WriteHits == 0 {
		t.Fatal("no write hits recorded")
	}
	if st.WriteAllocs == 0 || st.RAIDWrites != st.Writes {
		t.Fatalf("WT write accounting: %+v", st)
	}
	// Parity never delayed under WT.
	if s.array.StaleRows() != 0 {
		t.Fatal("WT left stale parity")
	}
}

func TestWTReadMissFillsAndHits(t *testing.T) {
	s := newStack(t, 256)
	// Pre-populate RAID directly.
	data := s.page(1)
	if _, err := s.array.WritePages(0, 7, 1, data); err != nil {
		t.Fatal(err)
	}
	s.oracle[7] = data
	p := cache.NewWT(s.ssd, s.array, 256, 0, 32)
	buf := make([]byte, blockdev.PageSize)
	if _, err := p.Read(0, 7, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadMisses != 1 || p.Stats().ReadFills != 1 {
		t.Fatalf("fill accounting: %+v", p.Stats())
	}
	if _, err := p.Read(0, 7, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadHits != 1 {
		t.Fatalf("second read not a hit: %+v", p.Stats())
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("hit served wrong data")
	}
}

func TestWAWritesBypassAndInvalidate(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewWA(s.ssd, s.array, 256, 0, 32)
	buf := make([]byte, blockdev.PageSize)

	s.write(t, p, 5)
	if p.Stats().SSDWrites() != 0 {
		t.Fatal("WA wrote to SSD on a write")
	}
	// Fill by reading, then overwrite: cached copy must be invalidated.
	if _, err := p.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadFills != 1 {
		t.Fatal("read did not fill")
	}
	s.write(t, p, 5)
	if _, err := p.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.oracle[5]) {
		t.Fatal("stale cache served after write-around")
	}
	s.verify(t, p)
}

func TestLeavODelayedParityAndCleaning(t *testing.T) {
	s := newStack(t, 512)
	p := mustLeavO(s.ssd, s.array, 256, 64, 32)
	// Admit pages, then update them (write hits -> old+new versions).
	for lba := int64(0); lba < 60; lba++ {
		s.write(t, p, lba)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("write misses should use full parity writes")
	}
	for lba := int64(0); lba < 60; lba++ {
		s.write(t, p, lba)
	}
	if p.Stats().WriteHits == 0 || p.Stats().SmallWritesSaved == 0 {
		t.Fatalf("no delayed-parity writes: %+v", p.Stats())
	}
	if s.array.StaleRows() == 0 {
		t.Fatal("no stale parity after no-parity writes")
	}
	s.verify(t, p)

	// Flush repairs all parity; a disk failure must then be survivable.
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("flush left stale rows")
	}
	s.verify(t, p)
	s.array.FailDisk(2)
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range s.oracle {
		if _, err := s.array.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("degraded read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("degraded data mismatch at %d", lba)
		}
	}
}

func TestLeavOSecondUpdateOverwritesNewVersion(t *testing.T) {
	s := newStack(t, 512)
	p := mustLeavO(s.ssd, s.array, 256, 64, 32)
	s.write(t, p, 9) // miss
	s.write(t, p, 9) // hit: old+new
	s.write(t, p, 9) // hit on New: overwrite in place
	s.write(t, p, 9) // again
	s.verify(t, p)
	if p.Stats().VersionWrite < 3 {
		t.Fatalf("version writes = %d", p.Stats().VersionWrite)
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	s.verify(t, p)
}

func TestLeavOMetadataTraffic(t *testing.T) {
	s := newStack(t, 512)
	p := mustLeavO(s.ssd, s.array, 256, 64, 32)
	// Enough mapping updates to force metadata page writes.
	for i := 0; i < 2000; i++ {
		s.write(t, p, int64(i%200))
	}
	if p.Stats().MetaWrites == 0 {
		t.Fatal("LeavO persisted no metadata")
	}
	s.verify(t, p)
}

// TestLeavOWriteHitSurfacesMetadataFailure: LeavO has no NVRAM log, so its
// map must be durable before a write hit is acknowledged. With the
// metadata region dead, the write hit that completes a metadata page
// fails instead of being acknowledged.
func TestLeavOWriteHitSurfacesMetadataFailure(t *testing.T) {
	s := newStack(t, 512)
	ssd := blockdev.NewFaultInjector(s.ssd, 1)
	ssd.FailRange(0, 64) // the metadata region [0, dataStart)
	p := mustLeavO(ssd, s.array, 256, 64, 32)
	s.write(t, p, 9) // miss: one mapping update, no page due yet
	var err error
	for i := 0; i < metalog.EntriesPerPage && err == nil; i++ {
		_, err = p.Write(0, 9, s.page(9)) // hits: one or two updates each
	}
	if !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("write hits past a metadata page on a dead region returned %v, want ErrFailed", err)
	}
}

// TestLeavOCleanSurfacesMetadataFailure: a cleaner pass that reclaims an
// old version records two mapping updates; when they complete a metadata
// page on a dead region, the pass fails.
func TestLeavOCleanSurfacesMetadataFailure(t *testing.T) {
	s := newStack(t, 512)
	ssd := blockdev.NewFaultInjector(s.ssd, 1)
	p := mustLeavO(ssd, s.array, 1024, 64, 32)
	const misses = metalog.EntriesPerPage - 4
	for lba := int64(0); lba < misses; lba++ {
		s.write(t, p, lba) // one update each
	}
	s.write(t, p, 0) // clean hit: two updates, two short of a page
	if got := p.Stats().MetaWrites; got != 0 {
		t.Fatalf("%d metadata pages written before the cleaner ran, want 0", got)
	}
	ssd.FailRange(0, 64)
	if _, err := p.Flush(0); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("cleaner pass completing a metadata page on a dead region returned %v, want ErrFailed", err)
	}
}

func TestLeavOEvictionPressure(t *testing.T) {
	s := newStack(t, 2048)
	// Tiny cache: 64 pages, working set 300 pages.
	p := mustLeavO(s.ssd, s.array, 64, 64, 16)
	rng := sim.NewRNG(3)
	for i := 0; i < 3000; i++ {
		s.write(t, p, int64(rng.Uint64n(300)))
	}
	s.verify(t, p)
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("stale rows survived flush")
	}
}

func TestPoliciesRandomOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := newStack(t, 1024)
		rng := sim.NewRNG(seed)
		policies := []cache.Policy{
			cache.NewWT(blockdev.NewNullDataDevice("s1", 1<<15), s.array, 128, 0, 16),
		}
		p := policies[0]
		oracle := map[int64][]byte{}
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 500; i++ {
			lba := int64(rng.Uint64n(400))
			if rng.Float64() < 0.5 {
				data := s.page(byte(i))
				if _, err := p.Write(0, lba, data); err != nil {
					return false
				}
				oracle[lba] = data
			} else if want, ok := oracle[lba]; ok {
				if _, err := p.Read(0, lba, buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRatioOrderingWTvsLeavO(t *testing.T) {
	// With a constrained cache and an update-heavy workload, WT should
	// see hit ratios at least as high as LeavO (LeavO spends capacity on
	// redundant versions) — the Figure 5 relationship.
	mk := func() (*stack, *sim.RNG) { return newStack(t, 4096), sim.NewRNG(77) }

	s1, rng1 := mk()
	wt := cache.NewWT(s1.ssd, s1.array, 128, 0, 16)
	s2, rng2 := mk()
	lo := mustLeavO(s2.ssd, s2.array, 128, 64, 16)

	run := func(p cache.Policy, s *stack, rng *sim.RNG) float64 {
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 6000; i++ {
			lba := int64(rng.Uint64n(600))
			if rng.Float64() < 0.7 {
				data := s.page(byte(i))
				if _, err := p.Write(0, lba, data); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Read(0, lba, buf) //nolint:errcheck // miss data irrelevant
			}
		}
		return p.Stats().HitRatio()
	}
	hrWT := run(wt, s1, rng1)
	hrLO := run(lo, s2, rng2)
	if hrLO > hrWT+0.02 {
		t.Fatalf("LeavO hit ratio %.3f exceeds WT %.3f", hrLO, hrWT)
	}
}

// TestLeavOWriteMissAckedAtArrayWrite holds LeavO's miss path to KDD's ack
// rule: the request completes at the array's ack and the clean copy's
// flash program runs behind it. The log-structured array acks a write
// once the page is in NVRAM, before any flash program could complete.
// The program still occupies its SSD channel: a read hit of the page
// issued at the ack queues behind it.
func TestLeavOWriteMissAckedAtArrayWrite(t *testing.T) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		d := blockdev.NewNullDevice("d", 4096)
		d.Latency = 10 * sim.Millisecond
		members = append(members, d)
	}
	a, err := lsraid.New(lsraid.Config{ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssd.DefaultConfig(2048)
	cfg.Channels = 1
	dev, twin := ssd.New("ssd", cfg), ssd.New("twin", cfg)
	p := mustLeavO(dev, a, 1024, 64, 32)

	const t0, lba = 5 * sim.Millisecond, 100
	done, err := p.Write(t0, lba, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The copy is the SSD's only work so far: a twin device's first
	// program at t0 completes when the copy's does.
	copyDone, err := twin.WritePages(t0, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.WriteMiss != 1 || st.WriteAllocs != 1 {
		t.Fatalf("write misses %d, write-allocates %d; want one of each", st.WriteMiss, st.WriteAllocs)
	}
	if dev.Stats().HostWrites != 1 {
		t.Fatalf("SSD host writes %d, want the one copy program", dev.Stats().HostWrites)
	}
	if done != t0 {
		t.Fatalf("write miss acked at %v, want the array's ack at %v (the copy's program completes at %v)",
			done, t0, copyDone)
	}
	rd, err := p.Read(done, lba, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadHits != 1 {
		t.Fatal("read of the write-allocated page missed")
	}
	if rd < copyDone {
		t.Fatalf("read hit issued at the ack %v completed at %v, before the copy's program at %v",
			done, rd, copyDone)
	}
}

// mustLeavO is NewLeavO for layouts that have a metadata region.
func mustLeavO(ssd blockdev.Device, b cache.Backend, cachePages, dataStart int64, ways int) *cache.LeavO {
	l, err := cache.NewLeavO(ssd, b, cachePages, dataStart, ways)
	if err != nil {
		panic(err)
	}
	return l
}

// TestLeavONeedsMetadataRegion: a layout with no metadata region is an
// error, not a panic.
func TestLeavONeedsMetadataRegion(t *testing.T) {
	s := newStack(t, 512)
	if _, err := cache.NewLeavO(s.ssd, s.array, 256, 0, 32); !errors.Is(err, cache.ErrNoMetadataRegion) {
		t.Fatalf("NewLeavO with no metadata region: %v, want ErrNoMetadataRegion", err)
	}
}
