package shard_test

import (
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

// laneTrace records, per lane, what the lane's engine was asked to do, in
// the order it was asked: every codec call (write hits encode, reads of
// Old pages and the cleaner apply) and every metadata page a barrier of
// that lane committed.
type laneTrace [shard.Lanes][]uint32

const (
	evBarrier = 1 // a tagged metadata page committed by this lane's barrier
	evBatch   = 2 // RunBatch returned (appended by the driver to every lane)
)

// recordingCodec is lane's ZRLE with its calls recorded.
type recordingCodec struct {
	delta.ZRLE
	seq *[]uint32
}

func (c recordingCodec) Encode(old, new []byte) delta.Delta {
	*c.seq = append(*c.seq, crc32.ChecksumIEEE(new)|1<<31)
	return c.ZRLE.Encode(old, new)
}

func (c recordingCodec) Apply(old []byte, d delta.Delta, out []byte) error {
	*c.seq = append(*c.seq, crc32.ChecksumIEEE(d.Bytes)|1<<31)
	return c.ZRLE.Apply(old, d, out)
}

// recordingSSD is the flash cache device with its shard-tagged metadata
// page writes recorded on the lane whose barrier issued them.
type recordingSSD struct {
	*ssd.Device
	tr *laneTrace
}

func (d recordingSSD) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if lba < prigMetaPages && buf[0] == 'K' && buf[1] == 'S' {
		d.tr[buf[8]] = append(d.tr[buf[8]], evBarrier)
	}
	return d.Device.WritePages(t, lba, count, buf)
}

// TestWorkerOrderMatchesDeterministic pins what the batch sweep must
// preserve on the null-disk rig: with the goroutine option on or off, at
// 1, 2 and 4 shards, every lane sees exactly the codec calls the
// one-shard run makes on it, in the same order, and within each batch a
// lane's barrier comes after all of the lane's ops.
// TestDigestEqualityAcrossShards holds the same order, barriers included,
// on the timing models.
func TestWorkerOrderMatchesDeterministic(t *testing.T) {
	trace := func(shards int, goroutines bool) *laneTrace {
		tr := new(laneTrace)
		r := newPRig(t, shards, func(c *shard.Config) {
			c.Goroutines = goroutines
			c.Coalesce = true
			c.SSD = recordingSSD{ssd.NewData("ssd", ssd.DefaultConfig(prigMetaPages+prigCachePages+64)), tr}
			c.Codec = func(lane int) delta.Codec { return recordingCodec{seq: &tr[lane]} }
		})
		for b := 0; b < 24; b++ {
			ops, _ := r.batch(256)
			for i, res := range r.p.RunBatch(0, ops) {
				if res.Err != nil {
					t.Fatalf("batch %d op %d: %v", b, i, res.Err)
				}
			}
			for lane := range tr {
				tr[lane] = append(tr[lane], evBatch)
			}
		}
		return tr
	}
	ops := func(seq []uint32) []uint32 {
		return slices.DeleteFunc(slices.Clone(seq), func(e uint32) bool { return e == evBarrier })
	}
	want := trace(1, false)
	barriers := 0
	for _, tc := range []struct {
		shards     int
		goroutines bool
	}{{1, false}, {4, false}, {2, true}, {4, true}} {
		name := fmt.Sprintf("shards=%d goroutines=%v", tc.shards, tc.goroutines)
		got := trace(tc.shards, tc.goroutines)
		for lane := range got {
			if !slices.Equal(ops(got[lane]), ops(want[lane])) {
				t.Errorf("%s: lane %d saw %d codec calls in an order the deterministic run (%d calls) did not make",
					name, lane, len(ops(got[lane])), len(ops(want[lane])))
			}
			inBarrier := false
			for i, e := range got[lane] {
				switch {
				case e == evBarrier:
					inBarrier = true
					barriers++
				case e == evBatch:
					inBarrier = false
				case inBarrier:
					t.Fatalf("%s: lane %d: event %d is an op after the lane's barrier of the same batch", name, lane, i)
				}
			}
		}
	}
	if barriers == 0 {
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
