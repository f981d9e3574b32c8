package sim

import (
	"math"
	"testing"
)

// fifo is the plain next-free-time queue the Station refines: a job goes
// on the earliest-free server (lowest index on a tie) no sooner than its
// arrival, and nothing is ever placed before a server's next-free time.
type fifo struct{ free []Time }

func (f *fifo) submit(t, service Time) Time {
	best := 0
	for i := range f.free {
		if f.free[i] < f.free[best] {
			best = i
		}
	}
	f.free[best] = MaxTime(t, f.free[best]) + service
	return f.free[best]
}

// interval is one job's occupancy of a server.
type interval struct{ start, done Time }

// TestStationProperties runs random (arrival, service) sequences on one to
// four servers against the FIFO rule. No two jobs overlap on a server, no
// job starts before it arrives, no job completes later than under the
// FIFO, and a stream whose arrivals never decrease gets exactly the FIFO's
// completions.
func TestStationProperties(t *testing.T) {
	rng := NewRNG(38)
	for trial := 0; trial < 400; trial++ {
		servers := 1 + trial%4
		monotone := trial%3 == 0
		s := NewStation("p", servers)
		ref := &fifo{free: make([]Time, servers)}
		jobs := make([][]interval, servers)
		var now Time
		for i := 0; i < 300; i++ {
			var at Time
			if monotone {
				now += Time(rng.Uint64n(40))
				at = now
			} else {
				// Mostly forward in time, with some requests arriving
				// before requests already submitted.
				now += Time(rng.Uint64n(40))
				at = now + Time(rng.Uint64n(200)) - 100
				if at < 0 {
					at = 0
				}
			}
			service := 1 + Time(rng.Uint64n(60))
			before := append([]server(nil), s.servers...)
			beforeIdle := append([]gaps(nil), s.idle...)
			done := s.Submit(at, service)
			want := ref.submit(at, service)
			if done > want {
				t.Fatalf("trial %d job %d: completes at %d, FIFO at %d", trial, i, done, want)
			}
			if monotone && done != want {
				t.Fatalf("trial %d job %d: monotone arrivals complete at %d, FIFO at %d", trial, i, done, want)
			}
			start := done - service
			if start < at {
				t.Fatalf("trial %d job %d: starts at %d before its arrival %d", trial, i, start, at)
			}
			for k, v := range s.idle {
				want := Time(0)
				if v.n > 0 {
					want = v.at(v.n - 1).end
				}
				if s.servers[k].last != want {
					t.Fatalf("trial %d job %d: server %d's last gap ends at %d, recorded %d", trial, i, k, want, s.servers[k].last)
				}
			}
			changed := -1
			for k := range s.servers {
				if s.servers[k] != before[k] || s.idle[k] != beforeIdle[k] {
					if changed >= 0 {
						t.Fatalf("trial %d job %d: servers %d and %d both changed", trial, i, changed, k)
					}
					changed = k
				}
			}
			if changed < 0 {
				t.Fatalf("trial %d job %d: no server changed", trial, i)
			}
			for _, j := range jobs[changed] {
				if start < j.done && j.start < done {
					t.Fatalf("trial %d job %d: [%d,%d) overlaps [%d,%d) on server %d",
						trial, i, start, done, j.start, j.done, changed)
				}
			}
			jobs[changed] = append(jobs[changed], interval{start, done})
		}
	}
}

// TestStationSubmitAtProperties is the per-server form: SubmitAt on a
// random server never overlaps, never starts early and never completes
// later than a FIFO on that server.
func TestStationSubmitAtProperties(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		servers := 1 + trial%4
		s := NewStation("p", servers)
		free := make([]Time, servers)
		jobs := make([][]interval, servers)
		var now Time
		for i := 0; i < 300; i++ {
			now += Time(rng.Uint64n(30))
			at := MaxTime(0, now+Time(rng.Uint64n(200))-100)
			service := 1 + Time(rng.Uint64n(60))
			k := rng.Intn(servers)
			done := s.SubmitAt(k, at, service)
			free[k] = MaxTime(at, free[k]) + service
			start := done - service
			if done > free[k] || start < at {
				t.Fatalf("trial %d job %d: [%d,%d) arrival %d, FIFO completion %d", trial, i, start, done, at, free[k])
			}
			for _, j := range jobs[k] {
				if start < j.done && j.start < done {
					t.Fatalf("trial %d job %d: [%d,%d) overlaps [%d,%d)", trial, i, start, done, j.start, j.done)
				}
			}
			jobs[k] = append(jobs[k], interval{start, done})
		}
	}
}

// TestStationBackfillsGap: a job submitted for a future start leaves the
// server idle before it, and a later-submitted job that arrives earlier is
// served in that gap, splitting it; one that does not fit goes at the tail.
func TestStationBackfillsGap(t *testing.T) {
	s := NewStation("disk", 1)
	if d := s.Submit(0, 10); d != 10 {
		t.Fatalf("first = %d, want 10", d)
	}
	if d := s.Submit(100, 10); d != 110 { // gap [10,100)
		t.Fatalf("future job = %d, want 110", d)
	}
	if d := s.Submit(20, 30); d != 50 { // splits into [10,20) and [50,100)
		t.Fatalf("backfilled job = %d, want 50", d)
	}
	if d := s.Submit(0, 10); d != 20 { // fills [10,20) exactly
		t.Fatalf("second backfill = %d, want 20", d)
	}
	if d := s.Submit(0, 60); d != 170 { // fits no gap: tail
		t.Fatalf("tail job = %d, want 170", d)
	}
	if d := s.Submit(0, 50); d != 100 { // fills [50,100) exactly
		t.Fatalf("last backfill = %d, want 100", d)
	}
	if s.Fits(0, 0, 1) {
		t.Fatal("every gap is filled, yet a job fits")
	}
	if s.BusyTime() != 170 {
		t.Fatalf("busy = %d, want 170", s.BusyTime())
	}
}

// TestStationDrained: the station drains when its busiest server does,
// and a job placed in a gap does not move that.
func TestStationDrained(t *testing.T) {
	s := NewStation("ssd", 2)
	if s.Drained() != 0 {
		t.Fatalf("empty station drained at %d, want 0", s.Drained())
	}
	s.SubmitAt(0, 0, 10)
	s.SubmitAt(1, 100, 30) // gap [0,100) on server 1
	if s.Drained() != 130 {
		t.Fatalf("drained = %d, want 130", s.Drained())
	}
	if d := s.SubmitAt(1, 0, 50); d != 50 {
		t.Fatalf("backfilled job = %d, want 50", d)
	}
	if s.Drained() != 130 {
		t.Fatalf("drained after a backfill = %d, want 130", s.Drained())
	}
}

// TestStationBackfillAndAppend: Backfill places only in a gap and leaves
// the station alone when none fits; Append always goes at the tail.
func TestStationBackfillAndAppend(t *testing.T) {
	s := NewStation("disk", 1)
	if _, ok := s.Backfill(0, 0, 10); ok {
		t.Fatal("backfilled on an empty station")
	}
	s.Append(0, 100, 10) // gap [0,100)
	if d := s.Append(0, 0, 10); d != 120 {
		t.Fatalf("append = %d, want 120", d)
	}
	if !s.Fits(0, 50, 50) || s.Fits(0, 50, 51) {
		t.Fatal("Fits disagrees with the gap [0,100)")
	}
	if d, ok := s.Backfill(0, 50, 50); !ok || d != 100 {
		t.Fatalf("backfill = %d,%v, want 100,true", d, ok)
	}
	if s.BusyTime() != 70 {
		t.Fatalf("busy = %d, want 70", s.BusyTime())
	}
}

// TestStationForgetsEarliestGap: a server remembers maxGaps gaps; opening
// one more forgets the earliest.
func TestStationForgetsEarliestGap(t *testing.T) {
	s := NewStation("disk", 1)
	for i := Time(1); i <= maxGaps+1; i++ {
		s.Submit(i*100, 10) // gaps [0,100), [110,200), ...
	}
	// Had [0,100) survived, the job would complete at 50.
	if d := s.Submit(0, 50); d != 160 {
		t.Fatalf("job = %d, want 160: it should take the second gap", d)
	}
	if d := s.SubmitAt(0, 0, 80); d != 290 {
		t.Fatalf("job = %d, want 290: it should take the third gap", d)
	}
}

// TestStationSubmitNoAllocs: placing a job, in a gap or at the tail, does
// not allocate.
func TestStationSubmitNoAllocs(t *testing.T) {
	s := NewStation("d", 3)
	rng := NewRNG(1)
	var now Time
	allocs := testing.AllocsPerRun(10000, func() {
		now += Time(rng.Uint64n(50))
		s.Submit(MaxTime(0, now+Time(rng.Uint64n(200))-100), 1+Time(rng.Uint64n(60)))
		s.SubmitAt(1, now, 5)
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocs per submit, want 0", allocs)
	}
}

// poissonWait drives a station with n Poisson arrivals of rate lambda (per
// ns) and returns the mean time a job waits before service starts.
func poissonWait(s *Station, rng *RNG, n int, lambda float64, service func() Time) float64 {
	var at float64
	var wait float64
	for i := 0; i < n; i++ {
		at += -math.Log(1-rng.Float64()) / lambda
		t := Time(at)
		sv := service()
		wait += float64(s.Submit(t, sv) - t - sv)
	}
	return wait / float64(n)
}

// erlangC is the probability an arrival waits in an M/M/c queue with
// offered load a = lambda/mu (a < c).
func erlangC(c int, a float64) float64 {
	term, sum := 1.0, 1.0 // a^k/k! for k = 0
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	term *= a / float64(c)
	top := term * float64(c) / (float64(c) - a)
	return top / (sum + top)
}

// TestStationQueueingOracle checks the station's mean wait against the
// closed forms of M/M/1, M/D/1 and M/M/c at utilisations 0.2 to 0.9. The
// arrivals never decrease, so no gap is ever used: this pins the FIFO the
// station refines, and its multi-server choice.
func TestStationQueueingOracle(t *testing.T) {
	const mean = float64(Millisecond)
	const n = 2_000_000
	for _, rho := range []float64{0.2, 0.5, 0.7, 0.9} {
		for _, c := range []int{1, 2, 4} {
			lambda := rho * float64(c) / mean
			a := lambda * mean
			rng := NewRNG(uint64(100*rho) + uint64(c))
			exp := func() Time { return Time(-math.Log(1-rng.Float64()) * mean) }
			got := poissonWait(NewStation("mmc", c), rng, n, lambda, exp)
			want := erlangC(c, a) * mean / (float64(c) - a)
			check(t, "M/M/", c, rho, got, want)
			if c == 1 {
				det := func() Time { return Time(mean) }
				got := poissonWait(NewStation("md1", 1), rng, n, lambda, det)
				want := rho * mean / (2 * (1 - rho))
				check(t, "M/D/", 1, rho, got, want)
			}
		}
	}
}

// check fails the test when the measured mean wait is off the closed form
// by more than the tolerance for that utilisation: the estimate's spread
// grows as the queue nears saturation.
func check(t *testing.T, model string, c int, rho, got, want float64) {
	t.Helper()
	tol := 0.03
	if rho >= 0.9 {
		tol = 0.06
	}
	rel := (got - want) / want
	t.Logf("%s%d rho=%.1f: mean wait %.4f ms, closed form %.4f ms (%+.2f%%)",
		model, c, rho, got/1e6, want/1e6, 100*rel)
	if math.Abs(rel) > tol {
		t.Errorf("%s%d at rho %.1f: mean wait %.4f ms, closed form %.4f ms (%+.1f%%, tolerance %.0f%%)",
			model, c, rho, got/1e6, want/1e6, 100*rel, 100*tol)
	}
}
