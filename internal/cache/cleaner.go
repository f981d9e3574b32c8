package cache

import "kddcache/internal/sim"

// IdleGap is the arrival gap that hosts one background repair: about one
// parity read-modify-write on the 7,200 RPM members of §IV-B (a seek,
// half a revolution to the row, then a full revolution back to rewrite
// it). The rule reads only arrival times, never the array's, so which
// repair runs before which request does not depend on the backend: KDD's
// cache state evolves identically over both array engines.
const IdleGap = 20 * sim.Millisecond

// Cleaner is a policy's background cleaner (§III-D: it runs past a
// threshold "or when the system is idle"). The policy supplies what to
// repair and how; the Cleaner decides when.
//
// Idle time follows the vacationing-server discipline Thomasian's RAID
// tutorial describes for rebuild: Plan queues a batch ahead of need, and
// a request that arrives at least IdleGap after the latest earlier one
// releases one queued item, issued when the policy's own work has
// drained (and not before the plan), so a foreground request waits
// behind at most the one repair already started. A synchronous Pass
// first issues whatever is still queued (the backstop), then plans and
// repairs batches until the plan comes back empty, every repair issued
// at the pass start.
//
// Items are the policy's own keys (a row's victim LBA, a dirty page's
// LBA), in issue order. plan appends the next batch to dst, or nothing
// when the pass is done; repair reports false, doing nothing, for an item
// whose work was done another way since the plan.
type Cleaner struct {
	items   []int64  // the idle queue
	next    int      // first queued item not yet issued
	batch   []int64  // a pass's own plan
	planned sim.Time // when the queue was planned
	arrived sim.Time // the latest request arrival
	busy    sim.Time // latest completion of the policy's own work
	runs    *int64   // the policy's CleanerRuns counter

	plan   func(dst []int64, force bool) []int64
	repair func(t sim.Time, item int64) (done sim.Time, ok bool, err error)
}

// NewCleaner returns a cleaner over the policy's plan, which plans at
// most batch items at a time, and repair. It counts each planned queue
// and each pass that planned work in runs.
func NewCleaner(runs *int64, batch int, plan func(dst []int64, force bool) []int64,
	repair func(t sim.Time, item int64) (sim.Time, bool, error)) Cleaner {
	return Cleaner{
		items: make([]int64, 0, batch), batch: make([]int64, 0, batch),
		runs: runs, plan: plan, repair: repair,
	}
}

// Pending reports whether queued items remain.
func (c *Cleaner) Pending() bool { return c.next < len(c.items) }

// Queued returns the queued items not yet issued, in issue order: a view
// valid until the queue next changes.
func (c *Cleaner) Queued() []int64 { return c.items[c.next:] }

// Planned returns when the queue was planned.
func (c *Cleaner) Planned() sim.Time { return c.planned }

// Plan queues the policy's next batch at t, dropping any item still
// queued. The policy's trigger decides when.
func (c *Cleaner) Plan(t sim.Time) {
	c.items, c.next, c.planned = c.plan(c.items[:0], false), 0, t
	if len(c.items) > 0 {
		*c.runs++
	}
}

// Busy records the policy's own work (a request or a repair) running
// until done.
func (c *Cleaner) Busy(done sim.Time) { c.busy = sim.MaxTime(c.busy, done) }

// Arrive registers a request arriving at t. A gap of at least IdleGap
// since the latest earlier arrival (a closed loop's threads submit out of
// time order) releases the next queued item that still needs repair,
// issued once the policy's own work has drained and not before the plan.
func (c *Cleaner) Arrive(t sim.Time) error {
	gap := t - c.arrived
	c.arrived = sim.MaxTime(c.arrived, t)
	if gap < IdleGap {
		return nil
	}
	at := sim.MaxTime(c.busy, c.planned)
	for c.Pending() {
		c.next++
		done, ok, err := c.repair(at, c.items[c.next-1])
		if ok || err != nil {
			c.Busy(done)
			return err
		}
	}
	return nil
}

// Pass is one synchronous cleaning pass at t: it issues every queued
// item, then repairs planned batches (force passes the policy's plan its
// drain-everything flag) until the plan comes back empty, every repair
// issued at t. It returns the latest completion.
func (c *Cleaner) Pass(t sim.Time, force bool) (done sim.Time, err error) {
	defer func() { c.Busy(done) }()
	done = t
	for c.Pending() {
		c.next++
		d, _, err := c.repair(t, c.items[c.next-1])
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, d)
	}
	ran := false
	for c.batch = c.plan(c.batch[:0], force); len(c.batch) > 0; c.batch = c.plan(c.batch[:0], force) {
		ran = true
		for _, item := range c.batch {
			d, _, err := c.repair(t, item)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, d)
		}
	}
	if ran {
		*c.runs++
	}
	return done, nil
}
