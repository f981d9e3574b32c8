package cache

import (
	"cmp"
	"slices"

	"kddcache/internal/sim"
)

// lru is what LeavO and WB share: a Cleaner over the oldest dirty (Old)
// pages, its thresholds, and the request entry that feeds it arrivals.
type lru struct {
	base
	cleaner Cleaner
	// batch is how many Old pages one cleaner batch takes; high and low
	// are the Old fractions of capacity above which a write runs a pass
	// and down to which the pass cleans.
	batch       int
	high, low   float64
	read, write func(t sim.Time, lba int64, buf []byte) (sim.Time, error)
	sweep       []sweepItem // plan's scratch
	peers       []int64     // plan's row scratch
}

// init builds the LRU cleaner in place over b: read and write serve a
// request, repair cleans one page by its LBA and reports false, doing
// nothing, when the page was cleaned another way since the plan.
func (p *lru) init(b base, batch int, high, low float64,
	read, write func(t sim.Time, lba int64, buf []byte) (sim.Time, error),
	repair func(t sim.Time, lba int64) (sim.Time, bool, error)) {
	p.base, p.batch, p.high, p.low, p.read, p.write = b, batch, high, low, read, write
	p.cleaner = NewCleaner(&p.st.CleanerRuns, batch, p.plan, repair)
}

// Read implements Policy.
func (p *lru) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return p.serve(t, lba, buf, p.read)
}

// Write implements Policy.
func (p *lru) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return p.serve(t, lba, buf, p.write)
}

// serve is every request's entry: the arrival may release a queued page
// first, and the request's completion is the cleaner's busy horizon.
func (p *lru) serve(t sim.Time, lba int64, buf []byte,
	op func(t sim.Time, lba int64, buf []byte) (sim.Time, error)) (sim.Time, error) {
	if err := p.cleaner.Arrive(t); err != nil {
		return t, err
	}
	done, err := op(t, lba, buf)
	p.cleaner.Busy(done)
	return done, err
}

// mark returns the Old-page count at fraction f of capacity.
func (p *lru) mark(f float64) int64 { return int64(f * float64(p.frame.Pages())) }

// trigger runs after a write that dirtied a page: past the high-water
// mark it runs a pass at t; within one batch of it, with nothing queued,
// it queues the next batch for idle-time cleaning, as KDD plans when its
// free pool is within one batch of running dry.
func (p *lru) trigger(t sim.Time) error {
	old, high := p.frame.Count(Old), p.mark(p.high)
	if old > high {
		_, err := p.cleaner.Pass(t, false)
		return err
	}
	if old > high-int64(p.batch) && !p.cleaner.Pending() {
		p.cleaner.Plan(t)
	}
	return nil
}

// Clean implements Policy: a cleaner pass (Cleaner.Pass).
func (p *lru) Clean(t sim.Time, force bool) (sim.Time, error) { return p.cleaner.Pass(t, force) }

// Flush implements Policy: clean every Old page.
func (p *lru) Flush(t sim.Time) (sim.Time, error) { return p.cleaner.Pass(t, true) }

// sweepItem is one cleaner victim in issue order: its LBA and the first
// LBA of its parity row (RowPeers(lba)[0]).
type sweepItem struct{ row, lba int64 }

// plan is the cleaner's plan: the next batch's LRU victims in issue
// order, appended to dst. A row-at-a-time walk with the stop rule
// "Count(Old) ≤ low" cleans exactly the first Count(Old)−low live
// victims, since each retires one Old page; the batch issues them by
// ascending member row (RowPeers(lba)[0]), then LBA, so each member
// serves its share of the batch as one ascending pass, as KDD's cleaner
// does.
func (p *lru) plan(dst []int64, force bool) []int64 {
	old, low := p.frame.Count(Old), p.mark(p.low)
	if force {
		low = 0
	}
	if old <= low {
		return dst
	}
	victims := p.frame.OldestSlots(Old, p.batch)
	s := p.sweep[:0]
	for _, v := range victims[:min(len(victims), int(old-low))] {
		lba := p.frame.Slot(v).RaidLBA
		p.peers = AppendRowPeers(p.backend, p.peers[:0], lba)
		s = append(s, sweepItem{row: p.peers[0], lba: lba})
	}
	slices.SortFunc(s, func(x, y sweepItem) int {
		if c := cmp.Compare(x.row, y.row); c != 0 {
			return c
		}
		return cmp.Compare(x.lba, y.lba)
	})
	for _, v := range s {
		dst = append(dst, v.lba)
	}
	p.sweep = s
	return dst
}
