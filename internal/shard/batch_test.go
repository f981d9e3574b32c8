package shard_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
)

// poolDropsPuts is set by race_test.go when the race detector is on.
var poolDropsPuts bool

// warmBatch builds the 256-op batch TestRunBatchAllocs and
// BenchmarkRunBatch replay: per four ops, a write superseded by the third
// op (so coalescing has work to do), a read of the next LBA, the
// superseding write and a read of it.
func warmBatch(r *prig) []shard.Op {
	var ops []shard.Op
	for i := 0; i < 64; i++ {
		lba := int64(i * 7 % prigFootprint)
		first, second := make([]byte, blockdev.PageSize), make([]byte, blockdev.PageSize)
		r.mut.FillRandom(first)
		copy(second, first)
		r.mut.Mutate(second)
		ops = append(ops,
			shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: first},
			shard.Op{Kind: shard.OpRead, LBA: lba + 1, Buf: make([]byte, blockdev.PageSize)},
			shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: second},
			shard.Op{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)})
	}
	return ops
}

// TestRunBatchAllocs is the executable form of "the batch is scratch the
// plane owns": a warm 256-op batch — read hits, write hits, and writes
// superseded within the batch — costs the plane no allocation, at any
// shard count and with the goroutine option on or off. It was about 240
// while every op was a closure and a channel send and the result, skip
// and drop arrays were built per batch, and shards+4 while a worker pool
// ran the batch. The batch is replayed unchanged, so the lanes themselves
// settle into allocating nothing (each rewrite coalesces in NVRAM
// staging, nothing packs, nothing is cleaned) and what is counted is the
// plane.
func TestRunBatchAllocs(t *testing.T) {
	for _, goroutines := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			r := newPRig(t, shards, func(c *shard.Config) {
				c.Goroutines = goroutines
				c.Coalesce = true
			})
			ops := warmBatch(r)
			run := func() {
				for i, res := range r.p.RunBatch(0, ops) {
					if res.Err != nil || res.Coalesced != (i%4 == 0) {
						t.Fatalf("goroutines=%v shards=%d: op %d: err %v, coalesced %v", goroutines, shards, i, res.Err, res.Coalesced)
					}
				}
			}
			run() // admits the pages
			run() // first write hits: pages go Old
			got := testing.AllocsPerRun(20, run)
			t.Logf("goroutines=%v shards=%d: %.1f allocs per 256-op batch", goroutines, shards, got)
			if got > 0 && !poolDropsPuts {
				t.Errorf("goroutines=%v shards=%d: %.1f allocs per 256-op batch, budget 0", goroutines, shards, got)
			}
		}
	}
}

// BenchmarkRunBatch times the plane's share of a warm batch, the one
// TestRunBatchAllocs counts: ns/op and allocs/op are per 256-op batch.
//
//	go test ./internal/shard -run '^$' -bench '^BenchmarkRunBatch$' -benchmem
func BenchmarkRunBatch(b *testing.B) {
	r := newPRig(b, 1, func(c *shard.Config) { c.Coalesce = true })
	ops := warmBatch(r)
	r.p.RunBatch(0, ops)
	r.p.RunBatch(0, ops)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.p.RunBatch(0, ops)
	}
}

// planeTrace records what a plane was asked to do, in the order it was
// asked: per lane, every codec call of the lane's engine (write hits
// encode, reads of Old pages and the cleaner apply); across the plane,
// one stream of those calls, the metadata pages committed and the
// batch ends.
type planeTrace struct {
	lanes  [shard.Lanes][]uint32
	events []uint8
}

const (
	evOp    = 1 // a codec call on any lane
	evMeta  = 2 // a metadata page committed to the log
	evBatch = 3 // RunBatch returned (appended by the driver)
)

// barrierAfterOps checks the batch-level barrier invariant on a trace:
// within each batch, every metadata page comes after all of the batch's
// codec calls. It returns the number of metadata pages the batches
// committed. What follows the last batch (a Quiesce: each lane's flush
// cleans and drains the shared log in turn) is not a batch.
func (tr *planeTrace) barrierAfterOps(t *testing.T, name string) int {
	t.Helper()
	batches := tr.events[:bytes.LastIndexByte(tr.events, evBatch)+1]
	pages, inBarrier := 0, false
	for i, e := range batches {
		switch e {
		case evMeta:
			inBarrier = true
			pages++
		case evBatch:
			inBarrier = false
		case evOp:
			if inBarrier {
				t.Fatalf("%s: event %d is a codec call after a metadata page of the same batch", name, i)
			}
		}
	}
	return pages
}

// recordingCodec is lane's ZRLE with its calls recorded.
type recordingCodec struct {
	delta.ZRLE
	tr   *planeTrace
	lane int
}

func (c recordingCodec) record(sum uint32) {
	c.tr.lanes[c.lane] = append(c.tr.lanes[c.lane], sum)
	c.tr.events = append(c.tr.events, evOp)
}

func (c recordingCodec) Encode(old, new []byte) delta.Delta {
	c.record(crc32.ChecksumIEEE(new))
	return c.ZRLE.Encode(old, new)
}

func (c recordingCodec) Apply(old []byte, d delta.Delta, out []byte) error {
	c.record(crc32.ChecksumIEEE(d.Bytes))
	return c.ZRLE.Apply(old, d, out)
}

// recordingSSD is the flash cache device with its metadata page writes
// recorded.
type recordingSSD struct {
	*ssd.Device
	tr *planeTrace
}

func (d recordingSSD) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if lba < prigMetaPages {
		d.tr.events = append(d.tr.events, evMeta)
	}
	return d.Device.WritePages(t, lba, count, buf)
}

// TestWorkerOrderMatchesDeterministic pins what the batch sweep must
// preserve on the null-disk rig: with the goroutine option on or off, at
// 1, 2 and 4 shards, every lane sees exactly the codec calls the
// one-shard run makes on it, in the same order, and within each batch
// the metadata barrier comes after all of the batch's ops.
// TestDigestEqualityAcrossShards holds the same order, barriers included,
// on the timing models.
func TestWorkerOrderMatchesDeterministic(t *testing.T) {
	trace := func(shards int, goroutines bool) *planeTrace {
		tr := new(planeTrace)
		r := newPRig(t, shards, func(c *shard.Config) {
			c.Goroutines = goroutines
			c.Coalesce = true
			c.SSD = recordingSSD{ssd.NewData("ssd", ssd.DefaultConfig(prigMetaPages+prigCachePages+64)), tr}
			c.Codec = func(lane int) delta.Codec { return recordingCodec{tr: tr, lane: lane} }
		})
		for b := 0; b < 24; b++ {
			ops, _ := r.batch(256)
			for i, res := range r.p.RunBatch(0, ops) {
				if res.Err != nil {
					t.Fatalf("batch %d op %d: %v", b, i, res.Err)
				}
			}
			tr.events = append(tr.events, evBatch)
		}
		return tr
	}
	want := trace(1, false)
	pages := 0
	for _, tc := range []struct {
		shards     int
		goroutines bool
	}{{1, false}, {4, false}, {2, true}, {4, true}} {
		name := fmt.Sprintf("shards=%d goroutines=%v", tc.shards, tc.goroutines)
		got := trace(tc.shards, tc.goroutines)
		for lane := range got.lanes {
			if !slices.Equal(got.lanes[lane], want.lanes[lane]) {
				t.Errorf("%s: lane %d saw %d codec calls in an order the deterministic run (%d calls) did not make",
					name, lane, len(got.lanes[lane]), len(want.lanes[lane]))
			}
		}
		pages += got.barrierAfterOps(t, name)
	}
	if pages == 0 {
		t.Fatal("no barrier committed a page: the workload is too short to say where barriers run")
	}
}

// memberOp is one member-disk I/O as the member saw it.
type memberOp struct {
	member int
	at     sim.Time
	row    int64
}

// loggingMember is a data-mode member disk that appends every read and
// write, in call order, to a log its array's members share, and takes
// one nanosecond per row plus one, so a completion time names the row.
type loggingMember struct {
	*blockdev.NullDevice
	i   int
	log *[]memberOp
}

func (d loggingMember) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	*d.log = append(*d.log, memberOp{d.i, t, lba})
	done, err := d.NullDevice.ReadPages(t, lba, count, buf)
	return done + 1 + sim.Time(lba), err
}

func (d loggingMember) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	*d.log = append(*d.log, memberOp{d.i, t, lba})
	done, err := d.NullDevice.WritePages(t, lba, count, buf)
	return done + 1 + sim.Time(lba), err
}

// TestBatchSweepsInLBAOrder pins the order a batch reaches the disks in.
// One batch at one arrival time holds cold reads, one per stripe, and
// four write → read pairs on one LBA, shuffled with each LBA's ops kept
// in order; a tail of reads with their own, rising arrival times and
// falling LBAs follows. Every member must see the co-arriving ops as one
// ascending sweep of its rows; each read of the shared LBA must see the
// write before it; the tail must run in input order; and each result
// must sit at its op's index.
func TestBatchSweepsInLBAOrder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		var log []memberOp
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			members = append(members, loggingMember{blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), prigDiskPages), i, &log})
		}
		arr, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: prigChunk}, members)
		if err != nil {
			t.Fatal(err)
		}
		r := newPRig(t, shards, func(c *shard.Config) { c.Backend = arr })
		stripe := arr.StripePages()
		row := func(lba int64) int64 { return lba/stripe*prigChunk + lba%prigChunk }

		const t0, gap = sim.Second, sim.Millisecond
		var sorted []shard.Op
		for k := int64(1); k <= 24; k++ {
			sorted = append(sorted, shard.Op{Kind: shard.OpRead, LBA: k*stripe + k%prigChunk, Buf: make([]byte, blockdev.PageSize)})
		}
		w := 30*stripe + 3
		var written, read [][]byte
		for k := 0; k < 4; k++ {
			page, buf := make([]byte, blockdev.PageSize), make([]byte, blockdev.PageSize)
			r.mut.FillRandom(page)
			written, read = append(written, page), append(read, buf)
			sorted = append(sorted,
				shard.Op{Kind: shard.OpWrite, LBA: w, Buf: page},
				shard.Op{Kind: shard.OpRead, LBA: w, Buf: buf})
		}
		var ops []shard.Op
		for _, i := range permuteKeepingLBAOrder(sim.NewRNG(0x5EEB), sorted) {
			ops = append(ops, sorted[i])
		}
		tail := len(ops)
		for k := int64(1); k <= 4; k++ {
			ops = append(ops, shard.Op{Kind: shard.OpRead, LBA: (40-k)*stripe + 5, Buf: make([]byte, blockdev.PageSize), At: t0 + sim.Time(k)*gap})
		}

		res := r.p.RunBatch(t0, ops)

		last := make(map[int]int64)
		swept := 0
		var tailAt []sim.Time
		for _, m := range log {
			if m.at >= t0+gap {
				tailAt = append(tailAt, m.at)
				continue
			}
			if prev, ok := last[m.member]; ok && m.row < prev {
				t.Fatalf("shards=%d: member %d went back from row %d to row %d within one arrival time", shards, m.member, prev, m.row)
			}
			last[m.member] = m.row
			swept++
		}
		if swept < 24 {
			t.Fatalf("shards=%d: %d member ops at the batch time, want at least one per cold read", shards, swept)
		}
		for k := range read {
			if string(read[k]) != string(written[k]) {
				t.Errorf("shards=%d: read %d of LBA %d did not return the write before it", shards, k, w)
			}
		}
		var wantAt []sim.Time
		for _, op := range ops[tail:] {
			wantAt = append(wantAt, op.At)
		}
		if !slices.Equal(tailAt, wantAt) {
			t.Errorf("shards=%d: ops with their own arrival times reached the members at %v, want input order %v", shards, tailAt, wantAt)
		}
		for i, op := range ops {
			if res[i].Err != nil {
				t.Fatalf("shards=%d: op %d: %v", shards, i, res[i].Err)
			}
			if op.Kind != shard.OpRead || op.LBA == w {
				continue
			}
			at := op.At
			if at == 0 {
				at = t0
			}
			if want := at + 1 + sim.Time(row(op.LBA)); res[i].Done != want {
				t.Errorf("shards=%d: result %d (read of LBA %d) done at %d, want %d", shards, i, op.LBA, res[i].Done, want)
			}
		}
	}
}
