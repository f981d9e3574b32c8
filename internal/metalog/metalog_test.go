package metalog

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
	"kddcache/internal/nvram"
	"kddcache/internal/sim"
)

func newLog(npages int64) (*Log, *blockdev.NullDevice) {
	dev := blockdev.NewNullDataDevice("ssd", npages+1024)
	return mustNew(dev, npages), dev
}

func entry(daz uint32, st State) Entry {
	return Entry{State: st, DazPage: daz, RaidLBA: daz * 3, DezPage: NoDez}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(st uint8, daz, raid, dez uint32, off, ln uint16, raw bool) bool {
		e := Entry{State: State(st % 3), DazPage: daz, DezPage: NoDez, DezRaw: raw}
		switch e.State {
		case StateClean:
			e.RaidLBA = raid
		case StateOld:
			e.RaidLBA = raid
			e.DezPage = dez
			e.DezOff = off
			e.DezLen = ln
		}
		var b [OldEntrySize]byte
		n := e.encode(b[:])
		if n != e.encSize() {
			return false
		}
		got, m, ok := decodeEntry(b[:])
		return ok && m == n && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBlank(t *testing.T) {
	var b [OldEntrySize]byte
	if _, _, ok := decodeEntry(b[:]); ok {
		t.Fatal("blank slot decoded as entry")
	}
}

// cleanPerPage is how many clean entries fill one metadata page.
const cleanPerPage = 4096 / CleanEntrySize

func TestFlushHappensAtFullPage(t *testing.T) {
	l, dev := newLog(64)
	i := 0
	for ; l.bufBytes+CleanEntrySize <= 4096; i++ {
		if _, err := l.Put(0, entry(uint32(i), StateClean)); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Writes() != 0 {
		t.Fatal("flushed before the page filled")
	}
	if _, err := l.Put(0, entry(9999, StateClean)); err != nil {
		t.Fatal(err)
	}
	if dev.Writes() != 1 || l.Stats().PagesWritten != 1 {
		t.Fatalf("writes=%d pages=%d", dev.Writes(), l.Stats().PagesWritten)
	}
	if l.LivePages() != 1 {
		t.Fatalf("LivePages = %d", l.LivePages())
	}
}

func TestBufferCoalescesSameDazPage(t *testing.T) {
	l, dev := newLog(64)
	for i := 0; i < 10*EntriesPerPage; i++ {
		// Same key over and over: buffer never grows, nothing flushes.
		if _, err := l.Put(0, entry(5, StateClean)); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Writes() != 0 {
		t.Fatalf("coalescing failed: %d writes", dev.Writes())
	}
	if got := l.BufferedEntries(); len(got) != 1 || got[0].DazPage != 5 {
		t.Fatalf("buffer = %+v", got)
	}
}

func TestRecoveryRebuildsMapping(t *testing.T) {
	l, dev := newLog(128)
	// Log a few pages worth plus a partial buffer.
	const total = cleanPerPage*3 + 17
	for i := 0; i < total; i++ {
		st := StateClean
		e := entry(uint32(i), st)
		if i%5 == 0 {
			e.State = StateOld
			e.DezPage = uint32(i % 7)
			e.DezOff = uint16(i % 4096)
			e.DezLen = uint16(i % 2048)
		}
		if _, err := l.Put(0, e); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: volatile state gone; NVRAM (counters + buffer) survives.
	l2 := mustRestore(dev, 128, l.Counters(), l.BufferedEntries())
	replay, _, err := l2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	// Last-writer-wins per DazPage must equal the original inserts.
	final := map[uint32]Entry{}
	for _, e := range replay {
		final[e.DazPage] = e
	}
	if len(final) != total {
		t.Fatalf("recovered %d entries, want %d", len(final), total)
	}
	for i := 0; i < total; i++ {
		e, ok := final[uint32(i)]
		if !ok {
			t.Fatalf("entry %d missing after recovery", i)
		}
		if e.RaidLBA != uint32(i*3) {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
		if i%5 == 0 {
			if e.State != StateOld || e.DezPage != uint32(i%7) ||
				e.DezOff != uint16(i%4096) || e.DezLen != uint16(i%2048) {
				t.Fatalf("old entry %d lost delta fields: %+v", i, e)
			}
		} else if e.DezPage != NoDez {
			t.Fatalf("clean entry %d grew a delta: %+v", i, e)
		}
	}
}

func TestRecoveryAfterOverwrites(t *testing.T) {
	l, dev := newLog(128)
	// Write entry for page 1 with an old value, flush it, then a new one.
	old := entry(1, StateClean)
	old.RaidLBA = 111
	if _, err := l.Put(0, old); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cleanPerPage; i++ { // force a flush carrying 'old'
		if _, err := l.Put(0, entry(uint32(100+i), StateClean)); err != nil {
			t.Fatal(err)
		}
	}
	newer := entry(1, StateOld)
	newer.RaidLBA = 222
	if _, err := l.Put(0, newer); err != nil {
		t.Fatal(err)
	}
	l2 := mustRestore(dev, 128, l.Counters(), l.BufferedEntries())
	replay, _, err := l2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	final := map[uint32]Entry{}
	for _, e := range replay {
		final[e.DazPage] = e
	}
	if final[1].RaidLBA != 222 || final[1].State != StateOld {
		t.Fatalf("latest entry lost: %+v", final[1])
	}
}

func TestGCReclaimsAndPreservesLiveEntries(t *testing.T) {
	l, _ := newLog(8) // tiny partition: GC exercised hard
	live := map[uint32]uint32{}
	// Insert many updates over a window of keys so old pages hold dead
	// entries.
	for i := 0; i < EntriesPerPage*50; i++ {
		k := uint32(i % 600)
		e := entry(k, StateClean)
		e.RaidLBA = uint32(i)
		if _, err := l.Put(0, e); err != nil {
			t.Fatal(err)
		}
		live[k] = uint32(i)
	}
	if l.Stats().GCRuns == 0 {
		t.Fatal("GC never ran on a tiny partition")
	}
	if l.LivePages() > 8 {
		t.Fatalf("live pages %d exceed partition", l.LivePages())
	}
	// Everything must still recover correctly.
	l2 := mustRestore(l.dev, 8, l.Counters(), l.BufferedEntries())
	replay, _, err := l2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	final := map[uint32]Entry{}
	for _, e := range replay {
		final[e.DazPage] = e
	}
	for k, want := range live {
		if final[k].RaidLBA != want {
			t.Fatalf("key %d: got %d want %d", k, final[k].RaidLBA, want)
		}
	}
}

func TestGCDropsFreeMarkers(t *testing.T) {
	l, _ := newLog(8)
	// Alternate clean/free for the same keys: frees supersede, and GC
	// should drop free markers at the head rather than relogging them.
	for i := 0; i < EntriesPerPage*40; i++ {
		k := uint32(i % 100)
		st := StateClean
		if i%2 == 1 {
			st = StateFree
		}
		if _, err := l.Put(0, entry(k, st)); err != nil {
			t.Fatal(err)
		}
	}
	// The log must not be full and must still be operable.
	if l.LivePages() >= 8 {
		t.Fatalf("log did not reclaim: %d live pages", l.LivePages())
	}
}

func TestLogFullErrorWhenEverythingLive(t *testing.T) {
	l, _ := newLog(2) // absurdly small: every entry distinct and live
	var err error
	for i := 0; i < EntriesPerPage*10; i++ {
		if _, err = l.Put(0, entry(uint32(i), StateClean)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestFlushPartialPage(t *testing.T) {
	l, dev := newLog(64)
	for i := 0; i < 5; i++ {
		if _, err := l.Put(0, entry(uint32(i), StateClean)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if dev.Writes() != 1 {
		t.Fatalf("writes = %d", dev.Writes())
	}
	if len(l.BufferedEntries()) != 0 {
		t.Fatal("buffer not drained")
	}
	// Idempotent on empty buffer.
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if dev.Writes() != 1 {
		t.Fatal("empty flush wrote a page")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	l, _ := newLog(16)
	replay, _, err := l.Recover(0)
	if err != nil || len(replay) != 0 {
		t.Fatalf("replay=%v err=%v", replay, err)
	}
}

func TestWrapAroundPhysicalAddressing(t *testing.T) {
	l, _ := newLog(4)
	// Push enough distinct-but-reused keys through to wrap the partition
	// several times.
	for round := 0; round < 20; round++ {
		for k := uint32(0); k < cleanPerPage+10; k++ {
			e := entry(k, StateClean)
			e.RaidLBA = uint32(round)
			if _, err := l.Put(0, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l.Counters().Tail < 20 {
		t.Fatalf("tail=%d; expected many committed pages", l.Counters().Tail)
	}
	l2 := mustRestore(l.dev, 4, l.Counters(), l.BufferedEntries())
	replay, _, err := l2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	final := map[uint32]Entry{}
	for _, e := range replay {
		final[e.DazPage] = e
	}
	for k := uint32(0); k < cleanPerPage+10; k++ {
		if final[k].RaidLBA != 19 {
			t.Fatalf("key %d final round %d, want 19", k, final[k].RaidLBA)
		}
	}
}

func TestTimingChargedToDevice(t *testing.T) {
	dev := blockdev.NewNullDevice("ssd", 4096)
	dev.Latency = 300 * sim.Microsecond
	l := mustNew(dev, 64)
	var done sim.Time
	var err error
	for i := 0; i <= cleanPerPage; i++ {
		done, err = l.Put(0, entry(uint32(i), StateClean))
		if err != nil {
			t.Fatal(err)
		}
	}
	if done != 300*sim.Microsecond {
		t.Fatalf("flush completion = %v, want 300µs", done)
	}
}

func TestRandomCrashRecoveryProperty(t *testing.T) {
	// Random updates with a crash at a random point: recovery must agree
	// with a flat shadow map for every key that was ever inserted.
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		l, dev := newLog(16)
		shadow := map[uint32]Entry{}
		n := 200 + int(rng.Uint64n(2000))
		for i := 0; i < n; i++ {
			k := uint32(rng.Uint64n(400))
			st := StateClean
			switch rng.Intn(3) {
			case 1:
				st = StateOld
			case 2:
				st = StateFree
			}
			e := entry(k, st)
			e.RaidLBA = uint32(i)
			if _, err := l.Put(0, e); err != nil {
				return false
			}
			shadow[k] = e
		}
		// Crash now (no flush): NVRAM buffer + counters survive.
		l2 := mustRestore(dev, 16, l.Counters(), l.BufferedEntries())
		replay, _, err := l2.Recover(0)
		if err != nil {
			return false
		}
		final := map[uint32]Entry{}
		for _, e := range replay {
			final[e.DazPage] = e
		}
		for k, want := range shadow {
			got, ok := final[k]
			if want.State == StateFree {
				// Free markers may be dropped by GC once they are the only
				// record; absence is equivalent to free.
				if ok && got.State != StateFree {
					return false
				}
				continue
			}
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGCPageEquivalent(t *testing.T) {
	s := Stats{ReinsertedBytes: int64(3 * 4096)}
	if s.GCPageEquivalent() != 3 {
		t.Fatalf("GCPageEquivalent = %d", s.GCPageEquivalent())
	}
}

// TestNewValidation: a partition that is too small, too large for int32
// ring slots, or not on the device is an error from New and Restore.
func TestNewValidation(t *testing.T) {
	dev := blockdev.NewNullDevice("d", 100)
	for _, npages := range []int64{1, 0, -3, 1 << 31, 101, math.MaxInt64} {
		if l, err := New(dev, npages); err == nil || l != nil {
			t.Errorf("New(npages %d) = %v, %v; want an error", npages, l, err)
		}
		if l, err := Restore(dev, npages, &nvram.Counters{}, nil); err == nil || l != nil {
			t.Errorf("Restore(npages %d) = %v, %v; want an error", npages, l, err)
		}
	}
	for _, npages := range []int64{2, 100} {
		if _, err := New(dev, npages); err != nil {
			t.Errorf("New(npages %d): %v", npages, err)
		}
	}
}

// mustNew and mustRestore are New and Restore for a geometry the test
// knows is good.
func mustNew(dev blockdev.Device, npages int64) *Log {
	l, err := New(dev, npages)
	if err != nil {
		panic(err)
	}
	return l
}

func mustRestore(dev blockdev.Device, npages int64, ctr *nvram.Counters, buffered []Entry) *Log {
	l, err := Restore(dev, npages, ctr, buffered)
	if err != nil {
		panic(err)
	}
	return l
}
