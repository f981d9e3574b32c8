package hdd

import (
	"math"
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

// seekOracle is the seek curve straight from its definition: the 24-step
// root of the clamped distance fraction, no memo.
func seekOracle(cfg Config, dist int64) sim.Time {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(cfg.Pages)
	if frac > 1 {
		frac = 1
	}
	span := float64(cfg.FullStroke - cfg.TrackToTrack)
	return cfg.TrackToTrack + sim.Time(span*sqrt24(frac))
}

// TestSeekMemoMatchesDefinition: at the member geometries the repository
// builds (the test arrays, the benchmark's trace and data workloads, the
// harness default), every distance in [-Pages-2, Pages+2] — both
// directions, zero, and past either end — seeks exactly as long as the
// definition says, on the first call (which fills the memo) and on a
// repeated one (which reads it). It also reports how many distances
// needed each memo code.
func TestSeekMemoMatchesDefinition(t *testing.T) {
	for _, pages := range []int64{4096, 37600, 38112, 90176, 1 << 20} {
		d := New("hdd", DefaultConfig(pages), 1)
		for pass := 0; pass < 2; pass++ {
			for dist := -pages - 2; dist <= pages+2; dist++ {
				if got, want := d.seekTime(dist), seekOracle(d.cfg, dist); got != want {
					t.Fatalf("pages %d pass %d: seekTime(%d) = %d, definition %d", pages, pass, dist, got, want)
				}
			}
			// The truncation to nanoseconds hides most one-ulp errors, so
			// the root itself must match bit for bit too.
			for dist := int64(1); dist <= pages; dist++ {
				frac := float64(dist) / float64(pages)
				if got, want := d.seekRoot(dist, frac), sqrt24(frac); got != want {
					t.Fatalf("pages %d pass %d: seekRoot(%d) = %v, definition %v", pages, pass, dist, got, want)
				}
			}
		}
		var codes [seekFar + 1]int
		for _, c := range d.seekMemo[1:] {
			codes[c]++
		}
		if codes[seekUnseen] != 0 {
			t.Fatalf("pages %d: %d distances never memoised", pages, codes[seekUnseen])
		}
		t.Logf("pages %d: -1 ulp %d, exact %d, +1 ulp %d, far %d",
			pages, codes[seekDown], codes[seekExact], codes[seekUp], codes[seekFar])
	}
}

// TestSeekMemoFarCode: a fraction whose 24th iterate has not converged
// (2^-60: the first steps only halve) is more than one ulp from
// math.Sqrt, so the memo records seekFar and every later call runs the
// definition again; the three near codes are the ulp steps they name.
func TestSeekMemoFarCode(t *testing.T) {
	const x = 0x1p-60
	if c := seekCode(sqrt(x), math.Sqrt(x)); c != seekFar {
		t.Fatalf("seekCode at 2^-60 = %d, want seekFar", c)
	}
	d := New("hdd", DefaultConfig(64), 1)
	for call := 0; call < 2; call++ {
		if got, want := d.seekRoot(1, x), sqrt24(x); got != want {
			t.Fatalf("call %d: seekRoot = %g, definition %g", call, got, want)
		}
		if d.seekMemo[1] != seekFar {
			t.Fatalf("call %d: memo code %d, want seekFar", call, d.seekMemo[1])
		}
	}
	r := math.Sqrt(0.5)
	up, down := math.Nextafter(r, 2), math.Nextafter(r, 0)
	for _, c := range []struct {
		s    float64
		want uint8
	}{{down, seekDown}, {r, seekExact}, {up, seekUp}, {math.Nextafter(up, 2), seekFar}, {math.Nextafter(down, 0), seekFar}} {
		if got := seekCode(c.s, r); got != c.want {
			t.Fatalf("seekCode(%v, %v) = %d, want %d", c.s, r, got, c.want)
		}
	}
}

var (
	sinkTime sim.Time
	sinkRoot float64
)

// BenchmarkSeekTime: the seek curve at random distances over a 1 Mi-page
// disk. "memo" is seekTime with the memo warm, as it is after the first
// seconds of a replay; "sqrt" is the definition it replaced on the same
// distances, so the before column can be re-measured at any commit.
func BenchmarkSeekTime(b *testing.B) {
	const pages = 1 << 20
	d := New("hdd", DefaultConfig(pages), 1)
	rng := sim.NewRNG(1)
	dists := make([]int64, 4096)
	for i := range dists {
		dists[i] = int64(rng.Uint64n(2*pages)) - pages
		d.seekTime(dists[i])
	}
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTime = d.seekTime(dists[i&4095])
		}
	})
	b.Run("sqrt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist := dists[i&4095]
			if dist < 0 {
				dist = -dist
			}
			sinkRoot = sqrt(float64(dist) / pages)
		}
	})
}

// BenchmarkDiskServiceTime: random accesses over a 1 Mi-page disk, every
// one a seek queued at the arm's tail (the kernel that runs once per
// member I/O of a replay).
func BenchmarkDiskServiceTime(b *testing.B) {
	d := New("hdd", DefaultConfig(1<<20), 1)
	rng := sim.NewRNG(1)
	lbas := make([]int64, 4096)
	for i := range lbas {
		lbas[i] = int64(rng.Uint64n(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTime = d.submit(0, lbas[i&4095], 1)
	}
}
