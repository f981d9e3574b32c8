package metalog

import (
	"errors"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
)

// fillPages commits at least minPages full metadata pages and returns the
// flat shadow of what was logged.
func fillPages(t *testing.T, l *Log, minPages int64) map[uint32]Entry {
	t.Helper()
	shadow := map[uint32]Entry{}
	for i := 0; l.LivePages() < minPages; i++ {
		e := entry(uint32(i), StateClean)
		e.RaidLBA = uint32(i * 3)
		if _, err := l.Put(0, e); err != nil {
			t.Fatal(err)
		}
		shadow[e.DazPage] = e
	}
	return shadow
}

func TestRecoverDetectsSilentCorruption(t *testing.T) {
	l, dev := newLog(64)
	fillPages(t, l, 3)
	// Flip a bit in a committed page AND refresh the device checksum:
	// only the log's own page CRC can catch this.
	head := l.Counters().Head
	phys := int64(head % 64)
	if !dev.Store().CorruptPageSilently(phys, 199) {
		t.Fatal("no page to corrupt")
	}
	l2 := mustRestore(dev, 64, l.Counters(), l.BufferedEntries())
	_, _, err := l2.Recover(0)
	if !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("err = %v, want ErrLogCorrupt", err)
	}
	if !strings.Contains(err.Error(), "ssd page") {
		t.Fatalf("error lacks page location: %v", err)
	}
}

func TestRecoverDetectsTruncatedPage(t *testing.T) {
	l, dev := newLog(64)
	fillPages(t, l, 2)
	// A torn in-page write: prefix (header included) persisted, tail
	// zeroed, device checksum self-consistent. The payload CRC must fail.
	phys := int64(l.Counters().Head % 64)
	if !dev.Store().TruncatePage(phys, 256) {
		t.Fatal("no page to truncate")
	}
	l2 := mustRestore(dev, 64, l.Counters(), l.BufferedEntries())
	_, _, err := l2.Recover(0)
	if !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("err = %v, want ErrLogCorrupt", err)
	}
}

func TestRecoverSurfacesMediaError(t *testing.T) {
	l, dev := newLog(64)
	fillPages(t, l, 2)
	// Detectable bit-rot: the device itself reports ErrMedia; recovery
	// must propagate it with the page location, not skip the page.
	phys := int64(l.Counters().Head % 64)
	if !dev.Store().CorruptPage(phys, 40) {
		t.Fatal("no page to corrupt")
	}
	l2 := mustRestore(dev, 64, l.Counters(), l.BufferedEntries())
	_, _, err := l2.Recover(0)
	if !errors.Is(err, blockdev.ErrMedia) {
		t.Fatalf("err = %v, want ErrMedia", err)
	}
	if !strings.Contains(err.Error(), "recovery read") {
		t.Fatalf("error lacks context: %v", err)
	}
}

func TestRecoverRejectsForeignPage(t *testing.T) {
	l, dev := newLog(64)
	fillPages(t, l, 2)
	// Overwrite a live log page with bytes that were never a log page
	// (magic missing). Must be rejected, not decoded as garbage entries.
	phys := int64(l.Counters().Head % 64)
	junk := make([]byte, blockdev.PageSize)
	for i := range junk {
		junk[i] = byte(i*7 + 1)
	}
	if _, err := dev.WritePages(0, phys, 1, junk); err != nil {
		t.Fatal(err)
	}
	l2 := mustRestore(dev, 64, l.Counters(), l.BufferedEntries())
	_, _, err := l2.Recover(0)
	if !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("err = %v, want ErrLogCorrupt", err)
	}
	if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("error lacks cause: %v", err)
	}
}

func TestRecoverRepairsTornTailFromNVRAM(t *testing.T) {
	// A crash DURING a page commit: the write never acked, so the NVRAM
	// counters still exclude the page and the NVRAM buffer still holds
	// its entries. Recovery must ignore the torn page (it is past the
	// tail) and rebuild the mapping from NVRAM alone.
	l, dev := newLog(64)
	var shadow []Entry
	for i := 0; l.bufBytes+CleanEntrySize < blockdev.PageSize; i++ {
		e := entry(uint32(i), StateClean)
		e.RaidLBA = uint32(i * 3)
		if _, err := l.Put(0, e); err != nil {
			t.Fatal(err)
		}
		shadow = append(shadow, e)
	}
	// NVRAM state as of the crash point: counters and buffer BEFORE the
	// commit the crash will tear.
	ctr := *l.Counters()
	buffered := l.BufferedEntries()
	if len(buffered) != len(shadow) {
		t.Fatalf("setup: %d buffered, want %d", len(buffered), len(shadow))
	}
	// Trigger the commit, then tear the page it wrote.
	if _, err := l.Put(0, entry(99999, StateClean)); err != nil {
		t.Fatal(err)
	}
	if l.Counters().Tail != ctr.Tail+1 {
		t.Fatalf("setup: commit did not happen (tail %d)", l.Counters().Tail)
	}
	if !dev.Store().TruncatePage(int64(ctr.Tail%64), 100) {
		t.Fatal("no tail page to tear")
	}
	l2 := mustRestore(dev, 64, &ctr, buffered)
	replay, _, err := l2.Recover(0)
	if err != nil {
		t.Fatalf("recovery over torn un-acked tail: %v", err)
	}
	final := map[uint32]Entry{}
	for _, e := range replay {
		final[e.DazPage] = e
	}
	for _, want := range shadow {
		if got, ok := final[want.DazPage]; !ok || got != want {
			t.Fatalf("entry %d lost or wrong after NVRAM repair: %+v", want.DazPage, got)
		}
	}
}
