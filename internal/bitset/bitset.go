// Package bitset is a counted set of small non-negative integers — page,
// row and slot indices bounded by construction — at one bit per possible
// member. It replaces map[int64]bool where the key space is dense: the
// array's stale parity rows, the log-structured array's lost pages, the
// cache frame's free slots.
package bitset

import "math/bits"

// Set holds members of [0, size). The zero value is an empty set of size
// zero; build one with New. Indices must lie in [0, size).
type Set struct {
	words []uint64
	size  int64
	n     int
}

// New returns an empty set over [0, size).
func New(size int64) Set {
	return Set{words: make([]uint64, (size+63)/64), size: size}
}

// Has reports whether i is a member.
func (s *Set) Has(i int64) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add inserts i and reports whether it was absent.
func (s *Set) Add(i int64) bool {
	w, m := &s.words[i>>6], uint64(1)<<(uint(i)&63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	s.n++
	return true
}

// Remove deletes i and reports whether it was present.
func (s *Set) Remove(i int64) bool {
	w, m := &s.words[i>>6], uint64(1)<<(uint(i)&63)
	if *w&m == 0 {
		return false
	}
	*w &^= m
	s.n--
	return true
}

// Len returns the number of members.
func (s *Set) Len() int { return s.n }

// Clear empties the set.
func (s *Set) Clear() {
	clear(s.words)
	s.n = 0
}

// Fill makes every index of [0, size) a member.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.size) & 63; tail != 0 {
		s.words[len(s.words)-1] = 1<<tail - 1
	}
	s.n = int(s.size)
}

// FirstIn returns the lowest member in [lo, hi), or -1.
func (s *Set) FirstIn(lo, hi int64) int64 {
	if lo >= hi {
		return -1
	}
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		v := s.words[w]
		if w == first {
			v &= ^uint64(0) << (uint(lo) & 63)
		}
		if v == 0 {
			continue
		}
		if i := w<<6 + int64(bits.TrailingZeros64(v)); i < hi {
			return i
		}
		return -1
	}
	return -1
}

// AppendTo appends the members to dst in ascending order.
func (s *Set) AppendTo(dst []int64) []int64 {
	for w, v := range s.words {
		for ; v != 0; v &= v - 1 {
			dst = append(dst, int64(w)<<6+int64(bits.TrailingZeros64(v)))
		}
	}
	return dst
}
