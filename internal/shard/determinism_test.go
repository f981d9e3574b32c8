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
// contract): in deterministic mode, one seed produces BYTE-identical
// output — the full operation log, the span trace, the stats table, and
// the state fingerprint — at every shard count, and independently of the
// test binary's -parallel level (the subtests all run t.Parallel, so
// `go test -parallel N` interleaves them). CI runs this under -race at
// -parallel 1, 4 and 16.

// detRun executes the canonical seeded workload at the given shard count
// and returns every observable byte: a log line per op result, the JSONL
// trace fingerprint, the quiesced stats table, and the plane digest.
func detRun(t *testing.T, shards int, coalesce bool) []byte {
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
		MetaStart:  0,
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
		for i, r := range p.RunBatch(0, ops) {
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
			false: detRun(t, 1, false),
			true:  detRun(t, 1, true),
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
				got := detRun(t, shards, coalesce)
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
	a := detRun(t, 4, true)
	b := detRun(t, 4, true)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-config reruns diverged: %s", firstDiff(a, b))
	}
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
