package shard_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
)

// This file is the cross-shard determinism battery (the plane's central
// contract): one seed produces BYTE-identical
// output — the full operation log, the span trace, the stats table, and
// the state fingerprint — at every shard count, and independently of the
// test binary's -parallel level (the subtests all run t.Parallel, so
// `go test -parallel N` interleaves them). CI runs this under -race at
// -parallel 1, 4 and 16.

// detRun executes the canonical seeded workload at the given shard count
// and returns every observable byte: a log line per op result, the JSONL
// trace fingerprint, the quiesced stats table, and the plane digest.
// permute submits each batch in a shuffled order that keeps every LBA's
// ops in their relative order; results are logged in canonical order.
func detRun(t *testing.T, shards int, coalesce, permute bool) []byte {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), prigDiskPages))
	}
	arr, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: prigChunk}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDataDevice("ssd", prigMetaPages+prigCachePages+64)
	ob := obs.New()
	p, err := shard.New(shard.Config{
		SSD:        ssd,
		Backend:    arr,
		CachePages: prigCachePages,
		Ways:       prigWays,
		MetaPages:  prigMetaPages,
		Codec:      func(int) delta.Codec { return delta.ZRLE{} },
		Shards:     shards,
		Coalesce:   coalesce,
		Tracer:     ob.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var out bytes.Buffer
	rng := sim.NewRNG(0x5EED)
	prng := sim.NewRNG(0x9E3)
	mut := delta.NewMutator(11, 0.25)
	pages := make(map[int64][]byte)
	for b := 0; b < 25; b++ {
		ops := make([]shard.Op, 0, 32)
		for i := 0; i < 32; i++ {
			lba := int64(rng.Intn(prigFootprint))
			if rng.Float64() < 0.6 {
				page := make([]byte, blockdev.PageSize)
				if prev, ok := pages[lba]; ok {
					copy(page, prev)
					mut.Mutate(page)
				} else {
					mut.FillRandom(page)
				}
				pages[lba] = page
				ops = append(ops, shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: page})
			} else {
				ops = append(ops, shard.Op{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)})
			}
		}
		order := make([]int, len(ops))
		for i := range order {
			order[i] = i
		}
		if permute {
			order = permuteKeepingLBAOrder(prng, ops)
		}
		sent := make([]shard.Op, len(ops))
		for j, i := range order {
			sent[j] = ops[i]
		}
		res := make([]shard.Result, len(ops))
		for j, r := range p.RunBatch(0, sent) {
			res[order[j]] = r
		}
		for i, r := range res {
			fmt.Fprintf(&out, "b%d op%d kind=%d lba=%d done=%d err=%v coalesced=%v\n",
				b, i, ops[i].Kind, ops[i].LBA, r.Done, r.Err, r.Coalesced)
		}
	}
	done, err := p.Quiesce(0)
	if err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	fmt.Fprintf(&out, "quiesce done=%d\n", done)
	fmt.Fprintf(&out, "digest=%#x\n", p.StateDigest())
	traceDig := obs.NewDigest()
	ob.Ring().Trees(traceDig.Tree)
	fmt.Fprintf(&out, "trace spans=%d fp=%#x\n", traceDig.Spans(), traceDig.Sum64())
	fmt.Fprintf(&out, "coalesced=%d\n", p.CoalescedWrites())
	out.WriteString(p.Stats().String())
	return out.Bytes()
}

var (
	detBaselineOnce sync.Once
	detBaseline     map[bool][]byte
)

// baseline computes the shards=1 reference output once per -parallel
// level's worth of subtests (coalescing on and off).
func baseline(t *testing.T) map[bool][]byte {
	detBaselineOnce.Do(func() {
		detBaseline = map[bool][]byte{
			false: detRun(t, 1, false, false),
			true:  detRun(t, 1, true, false),
		}
	})
	return detBaseline
}

// TestDeterministicByteIdentical proves the contract at shard counts
// 2, 4 and 8, with coalescing both off and on.
func TestDeterministicByteIdentical(t *testing.T) {
	t.Parallel()
	base := baseline(t)
	for _, shards := range []int{2, 4, 8} {
		for _, coalesce := range []bool{false, true} {
			shards, coalesce := shards, coalesce
			t.Run(fmt.Sprintf("shards=%d/coalesce=%v", shards, coalesce), func(t *testing.T) {
				t.Parallel()
				got := detRun(t, shards, coalesce, false)
				want := base[coalesce]
				if !bytes.Equal(got, want) {
					t.Fatalf("output diverged from shards=1 (%d vs %d bytes)\nfirst divergence: %s",
						len(got), len(want), firstDiff(got, want))
				}
			})
		}
	}
}

// TestDeterministicRepeatable proves a re-run of the same configuration
// is byte-identical to itself (no hidden global state).
func TestDeterministicRepeatable(t *testing.T) {
	t.Parallel()
	a := detRun(t, 4, true, false)
	b := detRun(t, 4, true, false)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-config reruns diverged: %s", firstDiff(a, b))
	}
}

// TestDeterministicPermutedBatches proves what the plane's LBA sweep
// guarantees: a batch submitted in any order that keeps each LBA's ops in
// their relative order produces byte-identical output — per-op results,
// span trace, stats and digest — to the canonical order, at shard counts
// 1, 2, 4 and 8.
func TestDeterministicPermutedBatches(t *testing.T) {
	t.Parallel()
	base := baseline(t)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, coalesce := range []bool{false, true} {
			shards, coalesce := shards, coalesce
			t.Run(fmt.Sprintf("shards=%d/coalesce=%v", shards, coalesce), func(t *testing.T) {
				t.Parallel()
				got := detRun(t, shards, coalesce, true)
				want := base[coalesce]
				if !bytes.Equal(got, want) {
					t.Fatalf("permuted batches diverged from the canonical order (%d vs %d bytes)\nfirst divergence: %s",
						len(got), len(want), firstDiff(got, want))
				}
			})
		}
	}
}

// permuteKeepingLBAOrder returns a random order of ops' indices in which
// each LBA's ops keep their relative order: a shuffle whose slots are
// then dealt back to each LBA's ops in input order.
func permuteKeepingLBAOrder(rng *sim.RNG, ops []shard.Op) []int {
	order := make([]int, len(ops))
	byLBA := make(map[int64][]int)
	for i, op := range ops {
		order[i] = i
		byLBA[op.LBA] = append(byLBA[op.LBA], i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for j, i := range order {
		lba := ops[i].LBA
		order[j], byLBA[lba] = byLBA[lba][0], byLBA[lba][1:]
	}
	return order
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(la), len(lb))
}

// TestTracerInEveryMode: the tracer is attached whatever the goroutine
// option and the shard count say. A plane with the option on, at four
// shards, writes byte for byte the span JSONL of one with it off at one
// shard — the lanes' and the log's spans — and leaves no span open and
// no structural error, the fault rig's no-leaked-span check.
func TestTracerInEveryMode(t *testing.T) {
	t.Parallel()
	trace := func(shards int, goroutines bool) []byte {
		ob := obs.New()
		r := newPRig(t, shards, func(c *shard.Config) {
			c.Goroutines = goroutines
			c.Coalesce = true
			c.Tracer = ob.Tracer
		})
		for b := 0; b < 20; b++ {
			ops, _ := r.batch(32)
			start := sim.Time(b) * 10 * sim.Millisecond
			for i := range ops {
				ops[i].At = start + sim.Time(i)*100*sim.Microsecond
			}
			for i, res := range r.p.RunBatch(start, ops) {
				if res.Err != nil {
					t.Fatalf("shards=%d goroutines=%v: batch %d op %d: %v", shards, goroutines, b, i, res.Err)
				}
			}
		}
		if _, err := r.p.Quiesce(sim.Second); err != nil {
			t.Fatal(err)
		}
		if n := ob.Tracer.OpenSpans(); n != 0 {
			t.Fatalf("shards=%d goroutines=%v: %d spans leaked open", shards, goroutines, n)
		}
		if err := ob.Tracer.Err(); err != nil {
			t.Fatalf("shards=%d goroutines=%v: trace integrity: %v", shards, goroutines, err)
		}
		return ob.TraceJSONL()
	}
	want := trace(1, false)
	if !bytes.Contains(want, []byte(`"write"`)) {
		t.Fatalf("trace holds no write span (%d bytes)", len(want))
	}
	if got := trace(4, true); !bytes.Equal(got, want) {
		t.Fatalf("goroutine-option trace diverged (%d vs %d bytes)\nfirst divergence: %s", len(got), len(want), firstDiff(got, want))
	}
}
