// Package model is the deliberately dumb reference model of the stack's
// user-visible contract: a flat page store with crash semantics. It knows
// nothing about caches, deltas, parity, or logs — which is the point. The
// checker (internal/check) drives the real KDD+RAID stack and this model
// through the same operations and flags any observable divergence.
//
// Crash semantics:
//
//   - An acked write survives any crash: once Write returns, every later
//     read must see exactly those bytes until the next write.
//   - A write in flight when the power fails resolves to old-or-new: the
//     first post-recovery read may see either version, but whichever it
//     sees is pinned — later reads must agree (no oscillation, no third
//     value).
//   - Unwritten pages read as zeros.
package model

import (
	"bytes"
	"fmt"
	"sort"
)

// pending is a write that was in flight at a crash: until pinned by the
// first post-recovery read, the page may legally hold either version.
type pending struct {
	old, new []byte
}

// Model is the reference store.
type Model struct {
	pages    map[int64][]byte
	inflight map[int64]*pending
	order    []int64 // keys of pages in first-write order
}

// New returns an empty model (every page zeros).
func New() *Model {
	return &Model{
		pages:    make(map[int64][]byte),
		inflight: make(map[int64]*pending),
	}
}

// isZero reports whether b is all zero bytes (the content of pages never
// written; the model carries no page-size assumption of its own).
func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// set stores lba's resolved content, remembering first-write order.
func (m *Model) set(lba int64, data []byte) {
	if _, ok := m.pages[lba]; !ok {
		m.order = append(m.order, lba)
	}
	m.pages[lba] = data
}

// Write records an acked write: data must survive any future crash.
func (m *Model) Write(lba int64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.set(lba, cp)
	delete(m.inflight, lba)
}

// CrashWrite records a write that was in flight when the power failed:
// the page may now hold the previous acked content or newData, resolved
// at the first post-recovery read.
func (m *Model) CrashWrite(lba int64, newData []byte) {
	old := make([]byte, len(newData))
	copy(old, m.pages[lba]) // zeros when never written
	cp := make([]byte, len(newData))
	copy(cp, newData)
	m.inflight[lba] = &pending{old: old, new: cp}
}

// Check validates an observed read of lba against the model, pinning any
// unresolved in-flight write to the version observed. A non-nil error is
// a contract violation (lost acked write, torn content, oscillation).
func (m *Model) Check(lba int64, got []byte) error {
	if p, ok := m.inflight[lba]; ok {
		switch {
		case bytes.Equal(got, p.new):
			m.set(lba, p.new)
		case bytes.Equal(got, p.old):
			m.set(lba, p.old)
		default:
			return fmt.Errorf("model: page %d matches neither old nor new version of the in-flight write (torn)", lba)
		}
		delete(m.inflight, lba)
		return nil
	}
	if want, ok := m.pages[lba]; ok {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("model: page %d diverges from acked content", lba)
		}
	} else if !isZero(got) {
		return fmt.Errorf("model: never-written page %d is not zeros", lba)
	}
	return nil
}

// Value returns the expected content of lba (nil means all zeros) and
// whether it is resolved (false while an in-flight write is unpinned).
func (m *Model) Value(lba int64) ([]byte, bool) {
	if _, ok := m.inflight[lba]; ok {
		return nil, false
	}
	return m.pages[lba], true
}

// Written lists the pages holding resolved content in the order each was
// first written or pinned — unlike map order, a deterministic sequence a
// seeded driver can index (the chaos plans aim corruption at live pages).
func (m *Model) Written() []int64 { return m.order }

// Unresolved lists pages with unpinned in-flight writes, sorted.
func (m *Model) Unresolved() []int64 {
	out := make([]int64, 0, len(m.inflight))
	for lba := range m.inflight {
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Footprint lists every page ever written (acked or in flight), sorted.
func (m *Model) Footprint() []int64 {
	seen := make(map[int64]struct{}, len(m.pages)+len(m.inflight))
	for lba := range m.pages {
		seen[lba] = struct{}{}
	}
	for lba := range m.inflight {
		seen[lba] = struct{}{}
	}
	out := make([]int64, 0, len(seen))
	for lba := range seen {
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
