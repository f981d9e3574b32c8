package bitset

import (
	"sort"
	"testing"

	"kddcache/internal/sim"
)

// TestSetMatchesMap drives random Add/Remove/Clear against map[int64]bool
// and compares membership, count, ascending enumeration and FirstIn over
// random windows, at sizes around the word boundaries.
func TestSetMatchesMap(t *testing.T) {
	for _, size := range []int64{1, 63, 64, 65, 200, 1000} {
		rng := sim.NewRNG(uint64(size))
		s := New(size)
		m := map[int64]bool{}
		for step := 0; step < 4000; step++ {
			i := int64(rng.Intn(int(size)))
			switch op := rng.Intn(100); {
			case op < 50:
				if got, want := s.Add(i), !m[i]; got != want {
					t.Fatalf("size %d step %d: Add(%d) = %v, want %v", size, step, i, got, want)
				}
				m[i] = true
			case op < 98:
				if got, want := s.Remove(i), m[i]; got != want {
					t.Fatalf("size %d step %d: Remove(%d) = %v, want %v", size, step, i, got, want)
				}
				delete(m, i)
			case op < 99:
				s.Clear()
				m = map[int64]bool{}
			default:
				s.Fill()
				for k := int64(0); k < size; k++ {
					m[k] = true
				}
			}
			if s.Has(i) != m[i] || s.Len() != len(m) {
				t.Fatalf("size %d step %d: Has(%d)=%v Len=%d, model %v %d", size, step, i, s.Has(i), s.Len(), m[i], len(m))
			}
			want := make([]int64, 0, len(m))
			for k := range m {
				want = append(want, k)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			got := s.AppendTo(nil)
			if len(got) != len(want) {
				t.Fatalf("size %d step %d: members %v, want %v", size, step, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("size %d step %d: members %v, want %v", size, step, got, want)
				}
			}
			lo := int64(rng.Intn(int(size) + 1))
			hi := lo + int64(rng.Intn(int(size-lo)+1))
			first := int64(-1)
			for _, k := range want {
				if k >= lo && k < hi {
					first = k
					break
				}
			}
			if got := s.FirstIn(lo, hi); got != first {
				t.Fatalf("size %d step %d: FirstIn(%d,%d) = %d, want %d (members %v)", size, step, lo, hi, got, first, want)
			}
		}
	}
}
