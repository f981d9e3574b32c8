package sim

// Station models a device (or a channel inside a device) as a set of
// identical servers, using next-free-time bookkeeping: a job arriving at
// time t starts on a server no sooner than t and completes start+service
// later.
//
// This is the classic analytic queueing shortcut for trace-driven storage
// simulation: the request stream is processed in host order, and each
// layer returns the completion time for a request given its arrival time.
// Background work (cleaner I/O) occupies servers the same way, so
// foreground requests naturally queue behind it.
//
// Host order is not arrival order: a read-modify-write submits its write
// phase for the future time its reads complete, and a request submitted
// after it may arrive earlier. The queue is work-conserving, like the
// block layer it stands in for: a job submitted for a start past its
// server's next-free time leaves an idle gap before it, and each server
// remembers up to maxGaps such gaps. A later job goes into the earliest
// gap it fits in whole, starting at the later of its arrival and the gap
// start, and splits the gap around itself; a job that fits no gap goes at
// the tail, after the server's next-free time. When a server would hold
// more gaps than that, the earliest is forgotten. So no two jobs overlap
// on a server, no job starts before its arrival, and no job completes
// later than under a plain FIFO of next-free times; a stream whose
// arrivals never decrease gets exactly the FIFO's completions, because
// every gap closes before the next arrival.
//
// Only maxGaps gaps are kept, so a chain of future submissions still
// holds its servers: background loops issue a whole pass at the pass
// start rather than chaining an item on the previous item's completion.
type Station struct {
	name    string
	servers []server
	idle    []gaps // each server's idle gaps, apart from its hot fields
	busy    Time   // total service time issued
}

// maxGaps bounds the idle gaps a server remembers.
const maxGaps = 4

// server holds what every job placed on a server reads.
type server struct {
	free Time // next-free time
	last Time // end of the latest idle gap, 0 when there is none
}

// gap is an idle interval [start, end) before a server's next-free time.
type gap struct{ start, end Time }

// gaps is one server's idle gaps, disjoint and sorted by start, in a
// fixed ring so placing a job never allocates and opening a gap moves
// none.
type gaps struct {
	g    [maxGaps]gap
	head int // ring index of the earliest gap
	n    int
}

// at returns the i-th earliest gap.
func (v *gaps) at(i int) *gap { return &v.g[(v.head+i)%maxGaps] }

// NewStation returns a station with the given number of parallel servers.
// servers must be >= 1.
func NewStation(name string, servers int) *Station {
	if servers < 1 {
		panic("sim: station needs at least one server")
	}
	return &Station{name: name, servers: make([]server, servers), idle: make([]gaps, servers)}
}

// Name returns the station's name.
func (s *Station) Name() string { return s.name }

// BusyTime returns the total service time issued across all servers.
func (s *Station) BusyTime() Time { return s.busy }

// Drained returns the time every server has finished all the work
// submitted to it: the latest next-free time.
func (s *Station) Drained() Time {
	var t Time
	for _, v := range s.servers {
		t = MaxTime(t, v.free)
	}
	return t
}

// Submit enqueues a job arriving at time t with the given service time on
// the server that completes it earliest (the lowest index on a tie) and
// returns its completion time.
func (s *Station) Submit(t, service Time) Time {
	best, bestDone, bestGap := 0, Time(0), -1
	for i := range s.servers {
		g := s.gapFor(i, t, service)
		done := MaxTime(t, s.servers[i].free) + service
		if g >= 0 {
			done = MaxTime(t, s.idle[i].at(g).start) + service
		}
		if i == 0 || done < bestDone {
			best, bestDone, bestGap = i, done, g
		}
	}
	s.busy += service
	if bestGap >= 0 {
		return s.fill(best, bestGap, t, service)
	}
	return s.append(best, t, service)
}

// SubmitAt is Submit for a specific server index; used when a device maps
// addresses to fixed internal channels.
func (s *Station) SubmitAt(server int, t, service Time) Time {
	s.busy += service
	if g := s.gapFor(server, t, service); g >= 0 {
		return s.fill(server, g, t, service)
	}
	return s.append(server, t, service)
}

// Fits reports whether a job arriving at t with the given service time
// fits one of the server's idle gaps.
func (s *Station) Fits(server int, t, service Time) bool {
	return s.gapFor(server, t, service) >= 0
}

// Backfill places a job arriving at t in the earliest idle gap of the
// server that holds it whole and returns its completion time. ok is false,
// and nothing is placed, when no gap does.
func (s *Station) Backfill(server int, t, service Time) (done Time, ok bool) {
	g := s.gapFor(server, t, service)
	if g < 0 {
		return 0, false
	}
	s.busy += service
	return s.fill(server, g, t, service), true
}

// Append places a job arriving at t at the server's tail, after its
// next-free time, whatever gaps lie before it, and returns its completion
// time.
func (s *Station) Append(server int, t, service Time) Time {
	s.busy += service
	return s.append(server, t, service)
}

// gapFor returns the earliest gap of the server that a job arriving at t
// fits in whole, or -1.
func (s *Station) gapFor(server int, t, service Time) int {
	// The gaps are disjoint and sorted, so the last one ends last: a job
	// that cannot finish by then fits none, which is the common case.
	if t+service > s.servers[server].last {
		return -1
	}
	v := &s.idle[server]
	for i := 0; i < v.n; i++ {
		if g := v.at(i); MaxTime(t, g.start)+service <= g.end {
			return i
		}
	}
	return -1
}

// append puts a job at the server's tail, opening a gap when it arrives
// after the server's next-free time, and returns its completion time.
func (s *Station) append(server int, t, service Time) Time {
	v := &s.servers[server]
	if t > v.free {
		s.open(server, gap{v.free, t})
		v.free = t
	}
	v.free += service
	return v.free
}

// open records the gap a tail job leaves before it. It starts at the
// server's next-free time, after every gap already held, so it goes last,
// over the earliest when the ring is full.
func (s *Station) open(server int, g gap) {
	v := &s.idle[server]
	if v.n == maxGaps {
		v.head = (v.head + 1) % maxGaps
		v.n--
	}
	*v.at(v.n) = g
	v.n++
	s.servers[server].last = g.end
}

// fill puts a job in gap k of the server and returns its completion time.
// The gap is split around the job: the pieces on either side that are not
// empty take its place, and when that makes one gap too many the earliest
// is forgotten.
func (s *Station) fill(server, k int, t, service Time) Time {
	v := &s.idle[server]
	old := *v.at(k)
	start := MaxTime(t, old.start)
	done := start + service
	var out [maxGaps + 1]gap
	m := 0
	for i := 0; i < v.n; i++ {
		if i != k {
			out[m] = *v.at(i)
			m++
			continue
		}
		if start > old.start {
			out[m] = gap{old.start, start}
			m++
		}
		if done < old.end {
			out[m] = gap{done, old.end}
			m++
		}
	}
	v.head = 0
	v.n = copy(v.g[:], out[max(0, m-maxGaps):m])
	s.servers[server].last = 0
	if v.n > 0 {
		s.servers[server].last = v.g[v.n-1].end
	}
	return done
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
