package harness

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestFanOutOrderAndWidths checks results land in submission order at
// every pool width, including widths above the job count.
func TestFanOutOrderAndWidths(t *testing.T) {
	const n = 37
	for _, par := range []int{1, 2, 3, 8, 64} {
		got, err := FanOut(par, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if len(got) != n {
			t.Fatalf("parallel=%d: got %d results", par, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestFanOutReturnsLowestIndexError checks the parallel error matches what
// a serial run would report: the lowest-numbered failing job wins, even
// when a later job fails first in wall-clock time.
func TestFanOutReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	for _, par := range []int{1, 4} {
		_, err := FanOut(par, 16, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 11:
				return 0, errors.New("high")
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("parallel=%d: got %v, want the lowest-index error", par, err)
		}
	}
}

// TestFanOutCancelsAfterError checks a failure stops the pool from
// starting the long tail of remaining jobs.
func TestFanOutCancelsAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := FanOut(2, 10_000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Worker 2 may race a handful of jobs past the failure flag, but the
	// overwhelming majority must never start.
	if s := started.Load(); s > 1000 {
		t.Fatalf("%d jobs started after the failure; cancellation is broken", s)
	}
}

// TestExperimentsDeterministicAcrossParallelism is the tentpole's
// acceptance test: the sweep experiments (Fig5, Fig6) must render
// byte-identical output serially and at several pool widths.
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	for _, ex := range []struct {
		name string
		run  func(Env) (Output, error)
	}{{"fig5", Fig5}, {"fig6", Fig6}} {
		serial, err := ex.run(Env{Scale: tinyScale, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		for _, par := range []int{2, 4} {
			got, err := ex.run(Env{Scale: tinyScale, Parallel: par})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", ex.name, par, err)
			}
			if got.Text != serial.Text {
				t.Fatalf("%s output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
					ex.name, par, serial.Text, got.Text)
			}
		}
	}
}
