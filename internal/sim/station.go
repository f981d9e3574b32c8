package sim

// Station models a device (or a channel inside a device) as a set of
// identical servers fed by a single FIFO queue, using next-free-time
// bookkeeping: a job arriving at time t starts on the earliest-free server
// no sooner than t and completes start+service later.
//
// This is the classic analytic queueing shortcut for trace-driven storage
// simulation: the full request stream is processed in arrival order, and
// each layer returns the completion time for a request given its arrival
// time. Background work (cleaner I/O) occupies servers the same way, so
// foreground requests naturally queue behind it.
//
// A server keeps only its next-free time, so the FIFO cannot backfill: a
// job submitted for a future time holds its server from the current
// next-free time until that job completes, and nothing submitted later
// can use the gap before it starts. Background loops therefore issue a
// whole pass at the pass start and never chain an item on the previous
// item's completion: chained, a pass of n items would hold every server
// it touches for the whole chain instead of for its own share.
type Station struct {
	name string
	free []Time // next free time per server

	// Accumulated statistics.
	jobs     int64
	busy     Time // total service time issued
	lastDone Time // completion time of the latest job
}

// NewStation returns a station with the given number of parallel servers.
// servers must be >= 1.
func NewStation(name string, servers int) *Station {
	if servers < 1 {
		panic("sim: station needs at least one server")
	}
	return &Station{name: name, free: make([]Time, servers)}
}

// Name returns the station's name.
func (s *Station) Name() string { return s.name }

// Servers returns the number of parallel servers.
func (s *Station) Servers() int { return len(s.free) }

// Submit enqueues a job arriving at time t with the given service time and
// returns its completion time.
func (s *Station) Submit(t, service Time) Time {
	// Pick the server that frees up earliest.
	best := 0
	for i := 1; i < len(s.free); i++ {
		if s.free[i] < s.free[best] {
			best = i
		}
	}
	start := t
	if s.free[best] > start {
		start = s.free[best]
	}
	done := start + service
	s.free[best] = done
	s.jobs++
	s.busy += service
	if done > s.lastDone {
		s.lastDone = done
	}
	return done
}

// SubmitAt is Submit for a specific server index; used when a device maps
// addresses to fixed internal channels.
func (s *Station) SubmitAt(server int, t, service Time) Time {
	start := t
	if s.free[server] > start {
		start = s.free[server]
	}
	done := start + service
	s.free[server] = done
	s.jobs++
	s.busy += service
	if done > s.lastDone {
		s.lastDone = done
	}
	return done
}

// FreeAt returns the earliest time any server is free.
func (s *Station) FreeAt() Time {
	best := s.free[0]
	for _, f := range s.free[1:] {
		if f < best {
			best = f
		}
	}
	return best
}

// LastCompletion returns the completion time of the latest-finishing job
// submitted so far.
func (s *Station) LastCompletion() Time { return s.lastDone }

// Jobs returns the number of jobs submitted.
func (s *Station) Jobs() int64 { return s.jobs }

// BusyTime returns the total service time issued across all servers.
func (s *Station) BusyTime() Time { return s.busy }

// Utilization returns busy time divided by (servers × horizon).
func (s *Station) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.busy) / (float64(horizon) * float64(len(s.free)))
}

// Reset clears queues and statistics.
func (s *Station) Reset() {
	for i := range s.free {
		s.free[i] = 0
	}
	s.jobs, s.busy, s.lastDone = 0, 0, 0
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
