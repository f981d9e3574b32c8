package hdd

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

func testCfg() Config { return DefaultConfig(1 << 20) } // 4GB disk

func TestRandomAccessLatencyRange(t *testing.T) {
	d := New("hdd0", testCfg(), 1)
	rng := sim.NewRNG(2)
	var now sim.Time
	var total sim.Time
	const n = 2000
	for i := 0; i < n; i++ {
		lba := int64(rng.Uint64n(1 << 20))
		done, err := d.ReadPages(now, lba, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += done - now
		now = done
	}
	avg := float64(total) / n / float64(sim.Millisecond)
	// A random 4KB read on a 7.2k disk averages roughly seek(avg) +
	// rotation/2 ≈ 6–14 ms. The paper's Nossd latencies are in this range.
	if avg < 4 || avg > 16 {
		t.Fatalf("average random read latency = %.2fms, want 4–16ms", avg)
	}
}

func TestSequentialMuchFasterThanRandom(t *testing.T) {
	seq := New("seq", testCfg(), 1)
	var now sim.Time
	start := now
	for i := int64(0); i < 1000; i++ {
		done, err := seq.ReadPages(now, 1000+i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	seqTime := now - start

	rnd := New("rnd", testCfg(), 1)
	rng := sim.NewRNG(3)
	now = 0
	for i := 0; i < 1000; i++ {
		done, err := rnd.ReadPages(now, int64(rng.Uint64n(1<<20)), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if seqTime*20 > now {
		t.Fatalf("sequential (%v) should be >20x faster than random (%v)", seqTime, now)
	}
	if seq.SeqHits() < 990 {
		t.Fatalf("SeqHits = %d, want ~999", seq.SeqHits())
	}
}

func TestSeekTimeMonotonic(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	prev := sim.Time(-1)
	for _, dist := range []int64{0, 1, 100, 10000, 1 << 18, 1 << 20} {
		s := d.seekTime(dist)
		if s < prev {
			t.Fatalf("seek time not monotone at dist=%d: %v < %v", dist, s, prev)
		}
		prev = s
	}
	if d.seekTime(1<<20) > d.cfg.FullStroke {
		t.Fatal("full-stroke seek exceeds configured maximum")
	}
	if d.seekTime(-5000) != d.seekTime(5000) {
		t.Fatal("seek not symmetric in direction")
	}
}

func TestQueueingDelaysBackToBack(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	// Two requests arriving at the same instant must serialize.
	d1, _ := d.ReadPages(0, 500000, 1, nil)
	d2, _ := d.ReadPages(0, 10, 1, nil)
	if d2 <= d1 {
		t.Fatalf("second request (%v) should complete after first (%v)", d2, d1)
	}
}

func TestDataModeRoundTrip(t *testing.T) {
	d := NewData("hdd", testCfg(), 1)
	buf := bytes.Repeat([]byte{0x5C}, 3*blockdev.PageSize)
	if _, err := d.WritePages(0, 77, 3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*blockdev.PageSize)
	if _, err := d.ReadPages(0, 77, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("data round trip failed")
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counts %d/%d", d.Reads(), d.Writes())
	}
}

func TestRangeAndBufferChecks(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	if _, err := d.ReadPages(0, 1<<20, 1, nil); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.WritePages(0, 0, 2, make([]byte, 5)); !errors.Is(err, blockdev.ErrBadBuffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() sim.Time {
		d := New("hdd", testCfg(), 42)
		rng := sim.NewRNG(7)
		var now sim.Time
		for i := 0; i < 500; i++ {
			now, _ = d.ReadPages(now, int64(rng.Uint64n(1<<20)), 1, nil)
		}
		return now
	}
	if mk() != mk() {
		t.Fatal("same seed produced different timings")
	}
}

func TestSqrtHelper(t *testing.T) {
	for _, x := range []float64{0, 1e-9, 0.25, 1, 2, 100} {
		got := sqrt(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("sqrt(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", Config{}, 1)
}

func TestWriteLatencySimilarToRead(t *testing.T) {
	d := New("hdd", testCfg(), 9)
	done, err := d.WritePages(0, 123456, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || done > 30*sim.Millisecond {
		t.Fatalf("single write latency %v outside sane range", done)
	}
	if d.BusyTime() != done {
		t.Fatalf("busy time %v != completion %v for single op on idle disk", d.BusyTime(), done)
	}
}

// TestBackfilledAccessCharge: an access that lands in an idle gap before
// the arm's tail is charged a full seek from the head plus one rotational
// draw, gets no sequential credit and leaves the head state alone; an
// access at the tail is charged from the head state as a FIFO disk is.
func TestBackfilledAccessCharge(t *testing.T) {
	const seed = 5
	d := New("hdd", testCfg(), seed)
	draws := sim.NewRNG(seed) // the disk's rotational draws, in order
	rot := func() sim.Time { return sim.Time(draws.Float64() * float64(d.revTime)) }
	xfer := d.pageXfer

	// A: a random access at the tail, one draw.
	a, _ := d.ReadPages(0, 1000, 1, nil)
	if want := d.seekTime(1000) + rot() + xfer; a != want {
		t.Fatalf("A completes at %v, want %v", a, want)
	}
	// B: a sequential continuation submitted for a future start; no draw,
	// and the arm idles in [a, 1s) before it.
	if b, _ := d.ReadPages(sim.Second, 1001, 1, nil); b != sim.Second+xfer {
		t.Fatalf("B completes at %v, want %v", b, sim.Second+xfer)
	}
	if d.SeqHits() != 1 {
		t.Fatalf("SeqHits = %d after B, want 1", d.SeqHits())
	}
	// C: continues B's run but arrives before B: served in the gap at a,
	// charged a seek from the head and a draw, with no credit.
	c, _ := d.ReadPages(0, 1002, 1, nil)
	if want := a + d.seekTime(1002-1001) + rot() + xfer; c != want {
		t.Fatalf("backfilled C completes at %v, want %v", c, want)
	}
	if c >= sim.Second {
		t.Fatalf("C completes at %v, not inside the gap before 1s", c)
	}
	if d.SeqHits() != 1 || d.headLBA != 1001 || d.lastEnd != 1002 {
		t.Fatalf("C moved the head state: seqHits %d head %d lastEnd %d", d.SeqHits(), d.headLBA, d.lastEnd)
	}
	// D: the same page at the tail still continues B's run: credit, no draw.
	if dd, _ := d.WritePages(2*sim.Second, 1002, 1, nil); dd != 2*sim.Second+xfer {
		t.Fatalf("D completes at %v, want %v", dd, 2*sim.Second+xfer)
	}
	if d.SeqHits() != 2 {
		t.Fatalf("SeqHits = %d after D, want 2", d.SeqHits())
	}
	// E: a random access at the tail, charged as today, with the third draw.
	e, _ := d.ReadPages(3*sim.Second, 500000, 1, nil)
	if want := 3*sim.Second + d.seekTime(500000-1002) + rot() + xfer; e != want {
		t.Fatalf("E completes at %v, want %v", e, want)
	}
	if d.BusyTime() != a+xfer+(c-a)+xfer+(e-3*sim.Second) {
		t.Fatalf("busy %v does not add up the five accesses", d.BusyTime())
	}
}
