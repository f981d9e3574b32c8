package metalog

import (
	"testing"

	"kddcache/internal/blockdev"
)

// TestReinitEmptiesLog: Reinit must leave the log logically empty purely
// through the NVRAM counters — zero device I/O — so that it works on a
// dead device, and a subsequent Recover must scan nothing. Lifetime I/O
// stats survive (they feed endurance accounting).
func TestReinitEmptiesLog(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 64)
	for i := 0; i < 400; i++ {
		if _, err := l.Put(0, Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if l.LivePages() == 0 {
		t.Fatal("setup: nothing committed")
	}
	before := l.Stats()
	writesBefore := dev.Writes()

	l.Reinit(nil)

	if dev.Writes() != writesBefore {
		t.Fatal("Reinit touched the device")
	}
	if c := l.Counters(); c.Head != 0 || c.Tail != 0 {
		t.Fatalf("counters not reset: head=%d tail=%d", c.Head, c.Tail)
	}
	if l.LivePages() != 0 {
		t.Fatalf("%d live pages after Reinit", l.LivePages())
	}
	if n := len(l.BufferedEntries()); n != 0 {
		t.Fatalf("%d buffered entries after Reinit", n)
	}
	if l.Stats() != before {
		t.Fatal("Reinit must preserve lifetime stats")
	}
	ents, _, err := l.Recover(0)
	if err != nil {
		t.Fatalf("recover over reinitialised log: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("recover found %d entries in an empty log", len(ents))
	}

	// The log must be usable again after Reinit (re-attach path).
	if _, err := l.Put(0, Entry{State: StateClean, DazPage: 1, RaidLBA: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if l.LivePages() == 0 {
		t.Fatal("log unusable after Reinit")
	}
}
