package metalog

import (
	"testing"

	"kddcache/internal/blockdev"
)

// lastWins folds a replay stream into its final per-DazPage mapping.
func lastWins(replay []Entry) map[uint32]Entry {
	m := make(map[uint32]Entry)
	for _, e := range replay {
		m[e.DazPage] = e
	}
	return m
}

// TestBatchRoundtrip proves the batched path (PutBuffered + FlushBatch)
// persists the same mapping a Put-based log would: full pages commit,
// partial pages stay in NVRAM, and recovery rebuilds the identical
// last-writer-wins map.
func TestBatchRoundtrip(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 16)
	const n = 600 // several pages' worth of Clean entries
	for i := 0; i < n; i++ {
		l.PutBuffered(Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(i * 3), DezPage: NoDez})
	}
	if _, err := l.FlushBatch(0); err != nil {
		t.Fatalf("FlushBatch: %v", err)
	}
	if l.bufBytes >= blockdev.PageSize {
		t.Fatalf("FlushBatch left %d buffered bytes (>= one page)", l.bufBytes)
	}
	if l.LivePages() == 0 {
		t.Fatal("FlushBatch committed no pages")
	}
	// Crash now: rebuild from the device + NVRAM snapshot.
	r := mustRestore(dev, 16, l.Counters(), l.BufferedEntries())
	replay, _, err := r.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m := lastWins(replay)
	if len(m) != n {
		t.Fatalf("recovered %d mappings, want %d", len(m), n)
	}
	for i := 0; i < n; i++ {
		e, ok := m[uint32(i)]
		if !ok || e.State != StateClean || e.RaidLBA != uint32(i*3) {
			t.Fatalf("daz %d recovered wrong: %+v (ok=%v)", i, e, ok)
		}
	}
}

// TestMixedBatchAndFlushReplay proves the two append paths share one
// log: pages from Put, from FlushBatch and from Flush interleave on flash
// and replay in the order they were committed, each newer state
// superseding the one before it.
func TestMixedBatchAndFlushReplay(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 16)
	// Several pages of Clean entries through Put's inline commits.
	for i := 0; i < 1200; i++ {
		if _, err := l.Put(0, Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(i), DezPage: NoDez}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// A batch that frees a slice of them, committed at the barrier.
	for i := 0; i < 900; i++ {
		l.PutBuffered(Entry{State: StateFree, DazPage: uint32(i), DezPage: NoDez})
	}
	before := l.Stats().PagesWritten
	if _, err := l.FlushBatch(0); err != nil {
		t.Fatalf("FlushBatch: %v", err)
	}
	if l.Stats().PagesWritten == before {
		t.Fatal("FlushBatch committed no page")
	}
	// Put re-admits some freed pages; Flush drains the rest.
	for i := 0; i < 50; i++ {
		if _, err := l.Put(0, Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(7000 + i), DezPage: NoDez}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, err := l.Flush(0); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r := mustRestore(dev, 16, l.Counters(), l.BufferedEntries())
	replay, _, err := r.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m := lastWins(replay)
	for i := 0; i < 1200; i++ {
		e := m[uint32(i)]
		switch {
		case i < 50:
			if e.State != StateClean || e.RaidLBA != uint32(7000+i) {
				t.Fatalf("daz %d: the Put after the batch did not supersede its Free: %+v", i, e)
			}
		case i < 900:
			if e.State != StateFree {
				t.Fatalf("daz %d: the batch's Free did not supersede the Put's Clean: %+v", i, e)
			}
		default:
			if e.State != StateClean || e.RaidLBA != uint32(i) {
				t.Fatalf("daz %d: Clean lost: %+v", i, e)
			}
		}
	}
}

// TestBatchDurabilityPoint pins the crash contract of the batched path:
// entries inserted by PutBuffered survive in the NVRAM snapshot even when
// NO FlushBatch ever ran — insertion, not the flush, is the durability
// point.
func TestBatchDurabilityPoint(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 16)
	l.PutBuffered(Entry{State: StateClean, DazPage: 42, RaidLBA: 8, DezPage: NoDez})
	buffered := l.BufferedEntries()
	if len(buffered) != 1 {
		t.Fatalf("NVRAM snapshot holds %d entries, want 1", len(buffered))
	}
	r := mustRestore(dev, 16, l.Counters(), buffered)
	replay, _, err := r.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m := lastWins(replay)
	if e := m[42]; e.State != StateClean || e.RaidLBA != 8 {
		t.Fatalf("unflushed buffered entry lost across crash: %+v", e)
	}
}
