package hdd

import (
	"testing"

	"kddcache/internal/sim"
)

// sqrt24 is the seek curve's definition: 24 Newton steps from z = x.
func sqrt24(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = newton(z, x)
	}
	return z
}

// TestSqrtMatches24StepOracle: the early-exit sqrt returns the 24th
// iterate bit for bit — on random seek fractions dist/pages for disks of
// up to 2^31 pages, on the shortest seek 1/pages of every power-of-two
// disk (where 24 steps do not reach the root), and at the ends of [0, 1].
func TestSqrtMatches24StepOracle(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := sqrt(x), sqrt24(x); got != want {
			t.Fatalf("sqrt(%g) = %g, 24-step oracle %g", x, got, want)
		}
	}
	check(0)
	check(1)
	check(-1)
	for shift := uint(0); shift <= 31; shift++ {
		pages := int64(1) << shift
		check(1 / float64(pages))
		check(float64(pages-1) / float64(pages))
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := sim.NewRNG(7)
	for i := 0; i < n; i++ {
		pages := 1 + int64(rng.Uint64n(1<<31))
		check(float64(1+int64(rng.Uint64n(uint64(pages)))) / float64(pages))
	}
}

var sinkTime sim.Time

// BenchmarkDiskServiceTime: random accesses over a 1 Mi-page disk, every
// one a seek (the kernel that runs once per member I/O of a replay).
func BenchmarkDiskServiceTime(b *testing.B) {
	d := New("hdd", DefaultConfig(1<<20), 1)
	rng := sim.NewRNG(1)
	lbas := make([]int64, 4096)
	for i := range lbas {
		lbas[i] = int64(rng.Uint64n(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTime = d.serviceTime(lbas[i&4095], 1)
	}
}
