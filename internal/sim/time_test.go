package sim

import (
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestStationFIFOQueueing(t *testing.T) {
	s := NewStation("disk", 1)
	d1 := s.Submit(0, 100)
	d2 := s.Submit(10, 100) // arrives while busy; queues
	d3 := s.Submit(500, 100)
	if d1 != 100 || d2 != 200 || d3 != 600 {
		t.Fatalf("completions = %d,%d,%d want 100,200,600", d1, d2, d3)
	}
	if s.BusyTime() != 300 {
		t.Fatalf("busy=%d", s.BusyTime())
	}
}

func TestStationParallelServers(t *testing.T) {
	s := NewStation("ssd", 2)
	d1 := s.Submit(0, 100)
	d2 := s.Submit(0, 100) // second server
	d3 := s.Submit(0, 100) // queues behind the first to free
	if d1 != 100 || d2 != 100 || d3 != 200 {
		t.Fatalf("completions = %d,%d,%d want 100,100,200", d1, d2, d3)
	}
	// Server 0 took jobs 1 and 3 (free at 200); server 1 frees at 100
	// and takes the next job.
	if d4 := s.Submit(0, 100); d4 != 200 {
		t.Fatalf("fourth completion = %d, want 200", d4)
	}
}

func TestStationSubmitAt(t *testing.T) {
	s := NewStation("chan", 4)
	d1 := s.SubmitAt(2, 0, 50)
	d2 := s.SubmitAt(2, 0, 50)
	d3 := s.SubmitAt(3, 0, 50)
	if d1 != 50 || d2 != 100 || d3 != 50 {
		t.Fatalf("completions = %d,%d,%d want 50,100,50", d1, d2, d3)
	}
}

func TestStationPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStation("bad", 0)
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Fatal("MaxTime broken")
	}
	if MinTime(1, 2) != 1 || MinTime(2, 1) != 1 {
		t.Fatal("MinTime broken")
	}
}
