package shard

import (
	"cmp"
	"slices"
	"testing"

	"kddcache/internal/sim"
)

// TestSweepMatchesStableReference holds the sweep-key sort to the order
// it stands for: the ops left after the coalescer, sorted stably by
// (arrival run, LBA) with the comparator reading the ops themselves.
// Batches are random in size, in where their arrival runs break (At
// zero shares a run with At equal to the batch time) and in which ops
// are superseded, and their LBAs repeat a lot.
func TestSweepMatchesStableReference(t *testing.T) {
	rng := sim.NewRNG(0x5EE9)
	b := batch{later: map[int64]bool{}}
	const t0 = sim.Millisecond
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		ops := make([]Op, n)
		var at sim.Time
		for i := range ops {
			if rng.Intn(8) == 0 {
				at = sim.Time(rng.Intn(4)) * sim.Millisecond
			}
			ops[i] = Op{Kind: OpKind(rng.Intn(2)), LBA: int64(rng.Intn(n/4 + 1)), At: at}
		}
		b.reset(t0, ops)
		for i := range ops {
			b.skip[i] = rng.Intn(10) == 0
		}

		var want []int
		wave := make([]int, n)
		for i := range ops {
			arrive := func(j int) sim.Time { return cmp.Or(ops[j].At, t0) }
			if i > 0 {
				wave[i] = wave[i-1]
				if arrive(i) != arrive(i-1) {
					wave[i]++
				}
			}
			if !b.skip[i] {
				want = append(want, i)
			}
		}
		slices.SortStableFunc(want, func(x, y int) int {
			return cmp.Or(cmp.Compare(wave[x], wave[y]), cmp.Compare(ops[x].LBA, ops[y].LBA))
		})

		coalesced := b.plan()
		var got []int
		for _, k := range b.sweep {
			got = append(got, int(k.idx))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d ops): sweep order\n%v\nwant the stable reference\n%v", trial, n, got, want)
		}
		skipped := 0
		for i := range ops {
			if b.skip[i] {
				skipped++
				if r := b.res[i]; !r.Coalesced || r.Done != t0 || r.Err != nil {
					t.Fatalf("trial %d: superseded op %d has result %+v", trial, i, r)
				}
			}
		}
		if coalesced != int64(skipped) {
			t.Fatalf("trial %d: plan counted %d coalesced writes, want %d", trial, coalesced, skipped)
		}
	}
}
