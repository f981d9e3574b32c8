package cache_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// scripted is a policy for the Cleaner: plan hands out the next batch of
// a script, and repair takes svc per item, skips the items marked stale
// and logs the rest with their issue times.
type scripted struct {
	batches [][]int64
	stale   map[int64]bool
	fail    int64 // an item whose repair fails
	svc     sim.Time
	log     []issued
	runs    int64
}

type issued struct {
	item int64
	at   sim.Time
}

func (s *scripted) cleaner() cache.Cleaner {
	plan := func(dst []int64, _ bool) []int64 {
		if len(s.batches) == 0 {
			return dst
		}
		b := s.batches[0]
		s.batches = s.batches[1:]
		return append(dst, b...)
	}
	repair := func(t sim.Time, item int64) (sim.Time, bool, error) {
		if item == s.fail {
			return t, false, errors.New("repair failed")
		}
		if s.stale[item] {
			return t, false, nil
		}
		s.log = append(s.log, issued{item, t})
		return t + s.svc, true, nil
	}
	return cache.NewCleaner(&s.runs, 4, plan, repair)
}

// expect checks the repairs issued since the last call.
func (s *scripted) expect(t *testing.T, step string, want ...issued) {
	t.Helper()
	if !slices.Equal(s.log, want) {
		t.Fatalf("%s: issued %v, want %v", step, s.log, want)
	}
	s.log = nil
}

// TestCleanerIdleRule walks the idle queue through the release rule: a
// gap just below IdleGap releases nothing and one of exactly IdleGap
// releases one item, issued at the later of the busy horizon and the
// plan; an arrival earlier than the latest one releases nothing and
// leaves the arrival mark where it was; a stale item is skipped and the
// next one released in the same gap; a re-plan drops what is queued.
func TestCleanerIdleRule(t *testing.T) {
	const ms = sim.Millisecond
	s := &scripted{svc: 15 * ms, stale: map[int64]bool{}}
	c := s.cleaner()

	if err := c.Arrive(10 * ms); err != nil || c.Pending() {
		t.Fatalf("empty queue: Arrive = %v, pending %v", err, c.Pending())
	}
	s.batches = [][]int64{{1, 2, 3}}
	c.Plan(5 * ms)
	if !slices.Equal(c.Queued(), []int64{1, 2, 3}) || c.Planned() != 5*ms || s.runs != 1 {
		t.Fatalf("plan: queued %v at %v, %d runs", c.Queued(), c.Planned(), s.runs)
	}
	c.Busy(30 * ms)

	now := 10*ms + cache.IdleGap - 1
	if err := c.Arrive(now); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "gap below IdleGap")
	now += cache.IdleGap
	if err := c.Arrive(now); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "gap of IdleGap", issued{1, 30 * ms}) // busy is later than the plan

	// Out of order: 5 ms before the latest arrival. A mark moved back
	// would make the next arrival's gap IdleGap+4 ms.
	if err := c.Arrive(now - 5*ms); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "negative gap")
	if err := c.Arrive(now + cache.IdleGap - 1); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "gap below IdleGap from the latest arrival")
	now += cache.IdleGap - 1

	s.stale[2] = true
	now += cache.IdleGap
	if err := c.Arrive(now); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "stale item", issued{3, 45 * ms}) // busy: item 1's completion
	if c.Pending() {
		t.Fatalf("queue still holds %v", c.Queued())
	}

	// A re-plan drops the pending items; a later plan time wins over an
	// earlier busy horizon.
	s.batches = [][]int64{{4, 5, 6}, {7, 8}}
	c.Plan(now)
	c.Plan(now + ms)
	if !slices.Equal(c.Queued(), []int64{7, 8}) || s.runs != 3 {
		t.Fatalf("re-plan: queued %v, %d runs", c.Queued(), s.runs)
	}
	if err := c.Arrive(now + cache.IdleGap); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "issue at the plan", issued{7, now + ms})

	// An empty plan queues nothing and counts no run.
	c.Plan(now)
	if c.Pending() || s.runs != 3 {
		t.Fatalf("empty plan: queued %v, %d runs", c.Queued(), s.runs)
	}
}

// TestCleanerPass checks the synchronous pass: it issues every queued
// item at its start (the backstop), then its own batches, also at its
// start, until the plan comes back empty; it returns the latest
// completion, which becomes the busy horizon, and counts one run however
// many batches it planned, and none when it only drained the queue.
func TestCleanerPass(t *testing.T) {
	const ms = sim.Millisecond
	s := &scripted{svc: 10 * ms, stale: map[int64]bool{}}
	c := s.cleaner()
	s.batches = [][]int64{{1, 2}}
	c.Plan(0)
	s.batches = [][]int64{{3}, {4, 5}}
	done, err := c.Pass(100*ms, false)
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(100 * ms)
	s.expect(t, "pass", issued{1, at}, issued{2, at}, issued{3, at}, issued{4, at}, issued{5, at})
	if done != at+10*ms || c.Pending() || s.runs != 2 {
		t.Fatalf("pass: done %v, queued %v, %d runs; want %v, none, 2", done, c.Queued(), s.runs, at+10*ms)
	}

	// The pass raised the busy horizon to its completion.
	s.batches = [][]int64{{6}, {7}}
	c.Plan(0)
	if err := c.Arrive(at + cache.IdleGap); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "release after the pass", issued{6, done})

	// A pass that only drains the queue counts no run.
	c.Plan(0)
	if _, err := c.Pass(at, true); err != nil {
		t.Fatal(err)
	}
	s.expect(t, "drain only", issued{7, at})
	if s.runs != 4 {
		t.Fatalf("%d runs, want the 3 plans and the one pass that planned", s.runs)
	}

	// A failed repair stops the pass.
	s.fail = 9
	s.batches = [][]int64{{8, 9, 10}}
	if _, err := c.Pass(at, false); err == nil {
		t.Fatal("pass hid a failed repair")
	}
	s.expect(t, "failed pass", issued{8, at})
}

// BenchmarkLRUCleanPass measures the host cost of LeavO's and WB's
// cleaners on a timing-mode stack: each iteration dirties the cache with
// 512 random writes over 1 024 cached pages (untimed), below both
// policies' high-water marks, and times one forced pass, which plans and
// cleans every dirty page. It reports ns and allocations per cleaned
// page; -benchmem's figures are per pass.
func BenchmarkLRUCleanPass(b *testing.B) {
	const (
		cachePages = 4096
		footprint  = 1024
		writes     = 512
	)
	for _, tc := range []struct {
		name  string
		build func(ssd blockdev.Device, b cache.Backend, cachePages, dataStart int64, ways int) cache.Policy
	}{
		{"LeavO", func(ssd blockdev.Device, b cache.Backend, n, d int64, w int) cache.Policy {
			return mustLeavO(ssd, b, n, d, w)
		}},
		{"WB", func(ssd blockdev.Device, b cache.Backend, n, d int64, w int) cache.Policy {
			return cache.NewWB(ssd, b, n, d, w)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				members = append(members, blockdev.NewNullDevice("d", 1<<16))
			}
			a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 4}, members)
			if err != nil {
				b.Fatal(err)
			}
			p := tc.build(blockdev.NewNullDevice("ssd", 64+cachePages), a, cachePages, 64, 64)
			for lba := int64(0); lba < footprint; lba++ { // cache every page
				if _, err := p.Write(0, lba, nil); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := p.Flush(0); err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(1)
			var pages, mallocs uint64
			var m0, m1 runtime.MemStats
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < writes; j++ {
					if _, err := p.Write(0, int64(rng.Intn(footprint)), nil); err != nil {
						b.Fatal(err)
					}
				}
				before := p.Stats().Reclaims
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				if _, err := p.Clean(0, true); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				pages += uint64(p.Stats().Reclaims - before)
			}
			if pages == 0 {
				b.Fatal("no page cleaned")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
			b.ReportMetric(float64(mallocs)/float64(pages), "allocs/page")
		})
	}
}
