package blockdev_test

import (
	"bytes"
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/lsraid"
	"kddcache/internal/nvram"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
	"kddcache/internal/stats"
)

// The recycled byte path's ownership rule (nvram.StagedDelta, PutPage,
// PutBuf) is only as good as every caller's reading of it, so this test
// makes a misreading visible: with PoisonRecycled on, a delta payload or
// stored page that anything still reads after its release holds 0xDB
// instead of plausible stale bytes, and the stream below — real pages,
// a shadow copy, every read checked byte for byte — then fails.

const (
	ownCache     = 512  // cache pages (64 per plane lane)
	ownFootprint = 2048 // four times the cache: eviction
	ownMeta      = 4    // metadata pages: the log wraps and collects
	ownMember    = 2048
	ownBatch     = 256
	ownBatches   = 48
)

// ownSubject is the stack under test: a bare engine or a plane.
type ownSubject interface {
	run(ops []shard.Op) []shard.Result
	staged() int                // deltas in NVRAM staging
	crash() (ownSubject, error) // power failure: rebuild from the same NVRAM
	finish() error              // invariants, then flush everything
	counters() (*stats.CacheStats, int64)
	close()
}

type ownEngine struct {
	k   *core.KDD
	cfg core.Config
}

func (e ownEngine) run(ops []shard.Op) []shard.Result {
	res := make([]shard.Result, len(ops))
	for i, op := range ops {
		res[i].Done, res[i].Err = e.k.Serve(0, op.LBA, op.Buf, op.Kind == shard.OpWrite, true)
	}
	return res
}

func (e ownEngine) staged() int { return e.k.Staging().Len() }

func (e ownEngine) crash() (ownSubject, error) {
	k, _, err := core.Restore(e.cfg, 0, e.k.Log().Counters(), e.k.Log().BufferedEntries(), e.k.Staging())
	return ownEngine{k, e.cfg}, err
}

func (e ownEngine) finish() error {
	if err := e.k.CheckInvariants(); err != nil {
		return err
	}
	_, err := e.k.Flush(0)
	return err
}

func (e ownEngine) counters() (*stats.CacheStats, int64) {
	return e.k.Stats(), e.k.Log().Stats().GCRuns
}

func (e ownEngine) close() {}

type ownPlane struct {
	p   *shard.Plane
	cfg shard.Config
}

func (p ownPlane) run(ops []shard.Op) []shard.Result { return p.p.RunBatch(0, ops) }

func (p ownPlane) staged() (n int) {
	for lane := 0; lane < shard.Lanes; lane++ {
		n += p.p.Lane(lane).Staging().Len()
	}
	return n
}

func (p ownPlane) crash() (ownSubject, error) {
	var stagings [shard.Lanes]*nvram.Staging
	for lane := range stagings {
		stagings[lane] = p.p.Lane(lane).Staging()
	}
	ctr, buffered := p.p.Log().Counters(), p.p.Log().BufferedEntries()
	p.p.Close()
	next, _, err := shard.Restore(p.cfg, 0, ctr, buffered, stagings)
	return ownPlane{next, p.cfg}, err
}

func (p ownPlane) finish() error {
	if err := p.p.CheckInvariants(); err != nil {
		return err
	}
	_, err := p.p.Quiesce(0)
	return err
}

func (p ownPlane) counters() (*stats.CacheStats, int64) {
	return p.p.Stats(), p.p.Log().Stats().GCRuns
}

func (p ownPlane) close() { p.p.Close() }

func TestOwnershipUnderPoison(t *testing.T) {
	blockdev.PoisonRecycled(t)
	for _, tc := range []struct {
		backend string
		shards  int // 0: bare engine
	}{{"raid", 0}, {"lsraid", 0}, {"raid", 2}, {"raid", 4}} {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.backend, tc.shards), func(t *testing.T) {
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				members = append(members, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), ownMember))
			}
			var arr raidiface.Array
			var err error
			if tc.backend == "lsraid" {
				arr, err = lsraid.New(lsraid.Config{ChunkPages: 8}, members)
			} else {
				arr, err = raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
			}
			if err != nil {
				t.Fatal(err)
			}
			flash := ssd.NewData("ssd", ssd.DefaultConfig(ownMeta+ownCache))
			var sub ownSubject
			if tc.shards == 0 {
				cfg := core.Config{SSD: flash, Backend: arr, CachePages: ownCache, Ways: 16,
					MetaPages: ownMeta, Codec: delta.ZRLE{}}
				k, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sub = ownEngine{k, cfg}
			} else {
				cfg := shard.Config{SSD: flash, Backend: arr, CachePages: ownCache, Ways: 16,
					MetaPages: ownMeta, Codec: func(int) delta.Codec { return delta.ZRLE{} },
					Shards: tc.shards, Coalesce: true}
				p, err := shard.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sub = ownPlane{p, cfg}
			}
			defer func() { sub.close() }()

			rng := sim.NewRNG(0x0DB)
			mut := delta.NewMutator(9, 0.2)
			shadow := make([][]byte, ownFootprint) // the last version written; versions are never modified
			zero := make([]byte, blockdev.PageSize)
			for b := 0; b < ownBatches; b++ {
				ops := make([]shard.Op, ownBatch)
				want := make([][]byte, ownBatch)
				for i := range ops {
					// Skewed like a Zipf head: a hot eighth takes most ops.
					u := rng.Float64()
					lba := int64(u * u * u * ownFootprint)
					if rng.Intn(10) < 6 {
						page := make([]byte, blockdev.PageSize)
						if shadow[lba] == nil || rng.Intn(8) == 0 {
							mut.FillRandom(page) // incompressible against the old copy: the raw fallback
						} else {
							copy(page, shadow[lba])
							mut.Mutate(page)
						}
						shadow[lba] = page
						ops[i] = shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: page}
						continue
					}
					want[i] = shadow[lba]
					if want[i] == nil {
						want[i] = zero
					}
					ops[i] = shard.Op{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)}
				}
				for i, res := range sub.run(ops) {
					if res.Err != nil {
						t.Fatalf("batch %d op %d (lba %d): %v", b, i, ops[i].LBA, res.Err)
					}
					if want[i] != nil && !bytes.Equal(ops[i].Buf, want[i]) {
						t.Fatalf("batch %d op %d: read of lba %d returned the wrong bytes (0xDB count %d)",
							b, i, ops[i].LBA, bytes.Count(ops[i].Buf, []byte{0xDB}))
					}
				}
				if b == ownBatches/2 {
					// Power failure between batches. The staged payloads are
					// NVRAM: the restored stack must find them intact.
					if sub.staged() == 0 {
						t.Fatal("nothing staged at the crash point: the restore would prove nothing")
					}
					arr.CrashRebuildState()
					if sub, err = sub.crash(); err != nil {
						t.Fatalf("restore: %v", err)
					}
				}
			}

			st, logGCs := sub.counters()
			trims := flash.Stats().Trims
			if st.DeltaCommits == 0 || st.CleanerRuns == 0 || st.Evictions == 0 || logGCs == 0 || trims == 0 {
				t.Fatalf("the stream missed a mechanism since the restore: DEZ commits %d, cleaner runs %d, evictions %d, log GC runs %d, SSD trims %d",
					st.DeltaCommits, st.CleanerRuns, st.Evictions, logGCs, trims)
			}
			if err := sub.finish(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, blockdev.PageSize)
			for lba, page := range shadow {
				if page == nil {
					continue
				}
				res := sub.run([]shard.Op{{Kind: shard.OpRead, LBA: int64(lba), Buf: buf}})
				if res[0].Err != nil || !bytes.Equal(buf, page) {
					t.Fatalf("read-back of lba %d: err %v, bytes equal %v", lba, res[0].Err, bytes.Equal(buf, page))
				}
				// And below the cache: KDD always dispatches data to the array.
				if _, err := arr.ReadPages(0, int64(lba), 1, buf); err != nil || !bytes.Equal(buf, page) {
					t.Fatalf("array read-back of lba %d: err %v, bytes equal %v", lba, err, bytes.Equal(buf, page))
				}
			}
		})
	}
}
