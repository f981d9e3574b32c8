package metalog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/nvram"
)

// makeTaggedPage builds a shard-tagged ("KS") metadata page image.
func makeTaggedPage(t *testing.T, shard uint8, shardSeq uint32, entries []Entry) []byte {
	t.Helper()
	page := make([]byte, blockdev.PageSize)
	used := 0
	for _, e := range entries {
		if used+e.encSize() > batchPagePayload {
			t.Fatalf("test page overflows: %d entries", len(entries))
		}
		used += e.encode(page[batchPageHdrLen+used:])
	}
	binary.LittleEndian.PutUint16(page[0:], batchPageMagic)
	binary.LittleEndian.PutUint16(page[2:], uint16(used))
	binary.LittleEndian.PutUint32(page[4:], crc32.ChecksumIEEE(page[batchPageHdrLen:batchPageHdrLen+used]))
	page[8] = shard
	binary.LittleEndian.PutUint32(page[10:], shardSeq)
	return page
}

// lastWins folds a replay stream into its final per-DazPage mapping.
func lastWins(replay []Entry) map[uint32]Entry {
	m := make(map[uint32]Entry)
	for _, e := range replay {
		m[e.DazPage] = e
	}
	return m
}

// TestBatchRoundtrip proves the batched path (PutBuffered + FlushBatch)
// persists the same mapping a Put-based log would: full pages commit with
// the shard tag, partial pages stay in NVRAM, and recovery rebuilds the
// identical last-writer-wins map.
func TestBatchRoundtrip(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 16)
	const n = 600 // several pages' worth of Clean entries
	for i := 0; i < n; i++ {
		l.PutBuffered(Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(i * 3), DezPage: NoDez})
	}
	if _, err := l.FlushBatch(0, 2); err != nil {
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
	// The per-shard sequence must resume past every surviving page.
	if next := r.shardSeqs[2]; next == 0 {
		t.Fatal("recovered log lost shard 2's batch sequence")
	}
}

// TestAdversarialInterleavedReplay is the regression test for the
// single-writer replay assumption: shard-tagged pages landing on flash
// OUT of per-shard order must still replay in shard-sequence order.
// Physically the log holds shard 0's NEWER page before its OLDER one; a
// physical-order replay would resurrect the superseded mapping.
func TestAdversarialInterleavedReplay(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	const npages = 8
	// Physical seq 0: shard 0, shardSeq 1 — the NEWER state of daz 100.
	// Physical seq 1: shard 0, shardSeq 0 — the OLDER state of daz 100.
	// Physical seq 2: shard 1, shardSeq 0 — unrelated lane, between them.
	pages := [][]byte{
		makeTaggedPage(t, 0, 1, []Entry{{State: StateClean, DazPage: 100, RaidLBA: 7, DezPage: NoDez}}),
		makeTaggedPage(t, 0, 0, []Entry{{State: StateOld, DazPage: 100, RaidLBA: 5, DezPage: 130, DezLen: 32}}),
		makeTaggedPage(t, 1, 0, []Entry{{State: StateClean, DazPage: 200, RaidLBA: 9, DezPage: NoDez}}),
	}
	for seq, p := range pages {
		if _, err := dev.WritePages(0, int64(seq%npages), 1, p); err != nil {
			t.Fatalf("seed page %d: %v", seq, err)
		}
	}
	ctr := &nvram.Counters{Head: 0, Tail: uint64(len(pages))}
	l := mustRestore(dev, npages, ctr, nil)
	replay, _, err := l.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m := lastWins(replay)
	got, ok := m[100]
	if !ok {
		t.Fatal("daz 100 lost in recovery")
	}
	if got.State != StateClean || got.RaidLBA != 7 {
		t.Fatalf("daz 100 resolved to the physically-later but logically-older entry: %+v", got)
	}
	if e := m[200]; e.State != StateClean || e.RaidLBA != 9 {
		t.Fatalf("unrelated shard 1 mapping damaged: %+v", e)
	}
	// Fresh batch sequences must not collide with surviving pages.
	if l.shardSeqs[0] != 2 || l.shardSeqs[1] != 1 {
		t.Fatalf("shard seqs not resumed: %v", l.shardSeqs)
	}
}

// TestMixedTaggedUntaggedReplay proves legacy "KL" pages and tagged "KS"
// pages coexist in one log: untagged pages keep physical order and the
// in-shard reorder still applies around them.
func TestMixedTaggedUntaggedReplay(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	l := mustNew(dev, 16)
	// Commit one untagged page via the classic path.
	for i := 0; i < 400; i++ {
		if _, err := l.Put(0, Entry{State: StateClean, DazPage: uint32(i), RaidLBA: uint32(i), DezPage: NoDez}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Then a tagged batch that supersedes a slice of them.
	for i := 0; i < 100; i++ {
		l.PutBuffered(Entry{State: StateFree, DazPage: uint32(i), DezPage: NoDez})
	}
	if _, err := l.FlushBatchAll(0, 3); err != nil {
		t.Fatalf("FlushBatchAll: %v", err)
	}
	r := mustRestore(dev, 16, l.Counters(), l.BufferedEntries())
	replay, _, err := r.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	m := lastWins(replay)
	for i := 0; i < 100; i++ {
		if e := m[uint32(i)]; e.State != StateFree {
			t.Fatalf("daz %d: tagged Free did not supersede untagged Clean: %+v", i, e)
		}
	}
	for i := 150; i < 400; i++ {
		if e := m[uint32(i)]; e.State != StateClean {
			t.Fatalf("daz %d: untagged Clean lost: %+v", i, e)
		}
	}
}

// TestTaggedPageCorruptionLoud proves a torn or bit-flipped tagged page
// fails recovery with ErrLogCorrupt instead of silently dropping
// mappings.
func TestTaggedPageCorruptionLoud(t *testing.T) {
	dev := blockdev.NewNullDataDevice("ssd", 64)
	page := makeTaggedPage(t, 0, 0, []Entry{{State: StateClean, DazPage: 1, RaidLBA: 2, DezPage: NoDez}})
	page[batchPageHdrLen] ^= 0x40 // flip a payload bit after checksumming
	if _, err := dev.WritePages(0, 0, 1, page); err != nil {
		t.Fatal(err)
	}
	ctr := &nvram.Counters{Head: 0, Tail: 1}
	l := mustRestore(dev, 8, ctr, nil)
	if _, _, err := l.Recover(0); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("corrupt tagged page recovered silently: err=%v", err)
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
