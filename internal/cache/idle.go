package cache

import "kddcache/internal/sim"

// IdleGap is the arrival gap that hosts one background repair: about one
// parity read-modify-write on the 7,200 RPM members of §IV-B (a seek,
// half a revolution to the row, then a full revolution back to rewrite
// it). The rule reads only arrival times, never the array's, so which
// repair runs before which request does not depend on the backend: KDD's
// cache state evolves identically over both array engines.
const IdleGap = 20 * sim.Millisecond

// IdleQueue is a cleaner batch planned ahead of need and issued in the
// engine's idle time (§III-D: the cleaner also runs "when the system is
// idle"), the vacationing-server discipline Thomasian's RAID tutorial
// describes for rebuild: a request that arrives at least IdleGap after
// the previous one releases one item, issued when the engine's own work
// has drained (and not before the plan), so a foreground request waits
// behind at most the one repair already started. What the queue does not
// issue by the time the engine's synchronous cleaner trigger fires, the
// cleaner issues at once (the backstop). Items are the engine's own keys
// (a row's victim LBA, a dirty page's LBA), in issue order; an item whose
// work has been done another way by the time it is popped is the
// engine's to skip.
type IdleQueue struct {
	items   []int64
	next    int      // first item not yet popped
	planned sim.Time // when the batch was planned
	arrived sim.Time // the previous request's arrival
	busy    sim.Time // latest completion of the engine's own work
}

// Pending reports whether planned items remain.
func (q *IdleQueue) Pending() bool { return q.next < len(q.items) }

// Plan starts a new batch planned at t, to be filled with Add. Items
// still pending are dropped.
func (q *IdleQueue) Plan(t sim.Time) {
	q.items, q.next, q.planned = q.items[:0], 0, t
}

// Queued returns the items not yet popped, in issue order: a view valid
// until the queue next changes.
func (q *IdleQueue) Queued() []int64 { return q.items[q.next:] }

// Planned returns when the current batch was planned.
func (q *IdleQueue) Planned() sim.Time { return q.planned }

// Add appends one item to the batch.
func (q *IdleQueue) Add(item int64) { q.items = append(q.items, item) }

// Pop takes the next pending item.
func (q *IdleQueue) Pop() (int64, bool) {
	if q.next >= len(q.items) {
		return 0, false
	}
	q.next++
	return q.items[q.next-1], true
}

// Busy records engine work (a request or a repair) running until done.
func (q *IdleQueue) Busy(done sim.Time) { q.busy = sim.MaxTime(q.busy, done) }

// Arrive registers a request arriving at t. It reports whether the gap
// since the latest earlier arrival releases an item (a closed loop's
// threads submit out of time order), and the time to issue it at: once
// the engine's own work has drained, and not before the plan.
func (q *IdleQueue) Arrive(t sim.Time) (at sim.Time, ok bool) {
	gap := t - q.arrived
	q.arrived = sim.MaxTime(q.arrived, t)
	if gap < IdleGap || !q.Pending() {
		return 0, false
	}
	return sim.MaxTime(q.busy, q.planned), true
}
