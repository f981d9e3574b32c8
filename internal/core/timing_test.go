package core_test

import (
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/hdd"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// latencyRig builds a KDD stack over fixed-latency null devices so the
// paper's latency arguments can be asserted exactly:
// disk ops cost 10ms, SSD ops 0.3ms.
func latencyRig(t *testing.T) (*core.KDD, *raid.Array) {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		d := blockdev.NewNullDevice("d", 65536)
		d.Latency = 10 * sim.Millisecond
		members = append(members, d)
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 16}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDevice("ssd", 8192)
	ssd.Latency = 300 * sim.Microsecond
	k, err := core.New(core.Config{
		SSD: ssd, Backend: a, CachePages: 4096, Ways: 64,
		MetaPages: 64,
		Codec:     delta.NewModelled(1, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, a
}

// TestWriteMissPaysSmallWritePenalty asserts the 4-I/O read-modify-write
// cost structure on a miss: two serialized disk phases = 20ms.
func TestWriteMissPaysSmallWritePenalty(t *testing.T) {
	k, _ := latencyRig(t)
	done, err := k.Write(0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done < 20*sim.Millisecond {
		t.Fatalf("write miss completed in %v; RMW needs 2 disk phases (20ms)", done)
	}
}

// TestWriteHitSkipsParity asserts the paper's headline latency win: a
// write hit is a single disk write (~10ms), not an RMW (~20ms), because
// the parity update is deferred.
func TestWriteHitSkipsParity(t *testing.T) {
	k, a := latencyRig(t)
	if _, err := k.Write(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	start := 1000 * sim.Millisecond
	done, err := k.Write(start, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := done - start
	if lat != 10*sim.Millisecond {
		t.Fatalf("write hit latency %v, want exactly one 10ms disk write", lat)
	}
	if a.StaleRows() != 1 {
		t.Fatal("parity not deferred")
	}
}

// TestReadHitServedFromFlash asserts read hits cost SSD latency, not disk
// latency.
func TestReadHitServedFromFlash(t *testing.T) {
	k, _ := latencyRig(t)
	if _, err := k.Write(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	start := 1000 * sim.Millisecond
	done, err := k.Read(start, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := done - start
	if lat >= sim.Millisecond {
		t.Fatalf("read hit latency %v; should be flash-speed", lat)
	}
}

// TestReadOldCombineCost asserts the old+delta combine adds only the
// documented "tens of microseconds" on top of the flash reads.
func TestReadOldCombineCost(t *testing.T) {
	k, _ := latencyRig(t)
	if _, err := k.Write(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(sim.Second, 100, nil); err != nil {
		t.Fatal(err)
	}
	start := 10 * sim.Second
	done, err := k.Read(start, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := done - start
	// One or two 300µs flash reads + 20µs combine.
	if lat > 700*sim.Microsecond {
		t.Fatalf("old-page read hit cost %v; combine should be cheap", lat)
	}
	if lat < 300*sim.Microsecond {
		t.Fatalf("old-page read hit cost %v; must include a flash read", lat)
	}
}

// TestCleanerBackgroundWorkDelaysForeground asserts cleaning shares the
// disk queues (HDD models queue, unlike null devices): a foreground
// request issued while a forced clean is in flight waits behind the
// parity repairs.
func TestCleanerBackgroundWorkDelaysForeground(t *testing.T) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, hdd.New("d", hdd.DefaultConfig(65536), uint64(i+1)))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 16}, members)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.New(core.Config{
		SSD: blockdev.NewNullDevice("ssd", 8192), Backend: a,
		CachePages: 4096, Ways: 64, MetaPages: 64,
		Codec: delta.NewModelled(1, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for lba := int64(0); lba < 50; lba++ {
		if now, err = k.Write(now, lba, nil); err != nil {
			t.Fatal(err)
		}
	}
	tEnd := now + sim.Second
	for lba := int64(0); lba < 50; lba++ {
		if _, err := k.Write(tEnd, lba, nil); err != nil {
			t.Fatal(err)
		}
	}
	busyBefore := sim.Time(0)
	for _, m := range members {
		busyBefore += m.(*hdd.Disk).BusyTime()
	}
	cleanDone, err := k.Clean(tEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if cleanDone <= tEnd {
		t.Fatal("forced clean did no work")
	}
	busyAfter := sim.Time(0)
	for _, m := range members {
		busyAfter += m.(*hdd.Disk).BusyTime()
	}
	// The parity repairs consumed real disk time on the shared queues,
	// which is what delays foreground requests issued meanwhile.
	if busyAfter-busyBefore < 50*sim.Millisecond {
		t.Fatalf("cleaner consumed only %v of disk time", busyAfter-busyBefore)
	}
	// And a foreground read issued at the same instant still completes
	// (sharing, not starvation).
	if _, err := k.Read(tEnd, 60000, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStagingBufferSizeControlsCommitCadence: a bigger NVRAM staging
// buffer packs the same deltas into the same number of DEZ pages but
// commits later.
func TestStagingBufferSizeControlsCommitCadence(t *testing.T) {
	commitsAt := func(stagingBytes int) int64 {
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			members = append(members, blockdev.NewNullDevice("d", 65536))
		}
		a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 16}, members)
		if err != nil {
			t.Fatal(err)
		}
		k, err := core.New(core.Config{
			SSD: blockdev.NewNullDevice("ssd", 8192), Backend: a,
			CachePages: 4096, Ways: 64, MetaPages: 64,
			Codec:        delta.NewModelled(1, 0.25),
			StagingBytes: stagingBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		for lba := int64(0); lba < 100; lba++ {
			if _, err := k.Write(0, lba, nil); err != nil {
				t.Fatal(err)
			}
		}
		for lba := int64(0); lba < 100; lba++ {
			if _, err := k.Write(0, lba, nil); err != nil {
				t.Fatal(err)
			}
		}
		return k.Stats().DeltaCommits
	}
	small := commitsAt(blockdev.PageSize)
	large := commitsAt(16 * blockdev.PageSize)
	if small == 0 || large == 0 {
		t.Fatalf("no commits: small=%d large=%d", small, large)
	}
	if large > small {
		t.Fatalf("larger staging buffer committed MORE pages (%d > %d)", large, small)
	}
}

// TestWriteHitMemberCost checks a write hit's member I/O on a healthy
// RAID-5 timing stack against its closed form: one member write and no
// member read before the hit returns, and, in the cleaning pass that
// repairs its row, a deferred share of one parity read plus one parity
// write (read-modify-write, the row's other pages uncached) or one
// parity write (reconstruct-write, every page of the row cached).
func TestWriteHitMemberCost(t *testing.T) {
	const (
		diskLat    = 10 * sim.Millisecond
		chunkPages = 16
		lba        = 100
	)
	for _, tc := range []struct {
		name    string
		fullRow bool
		share   []blockdev.Op
	}{
		{"rmw", false, []blockdev.Op{blockdev.OpRead, blockdev.OpWrite}},
		{"reconstruct", true, []blockdev.Op{blockdev.OpWrite}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memberLog := &opLog{}
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				d := blockdev.NewNullDevice("d", 65536)
				d.Latency = diskLat
				members = append(members, &loggingDev{NullDevice: d, id: i, log: memberLog})
			}
			a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: chunkPages}, members)
			if err != nil {
				t.Fatal(err)
			}
			ssd := blockdev.NewNullDevice("ssd", 8192)
			ssd.Latency = 300 * sim.Microsecond
			k, err := core.New(core.Config{
				SSD: ssd, Backend: a, CachePages: 4096, Ways: 64, MetaPages: 64,
				Codec: delta.NewModelled(1, 0.25),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every page of a row sits at the same member page.
			row := lba/a.StripePages()*chunkPages + lba%chunkPages
			fill := []int64{lba}
			if tc.fullRow {
				fill = a.RowPeers(lba)
			}
			now := sim.Time(0)
			for _, p := range fill { // write misses: cached Clean
				if _, err := k.Write(now, p, nil); err != nil {
					t.Fatal(err)
				}
				now += sim.Second
			}

			mark := len(memberLog.ops)
			done, err := k.Write(now, lba, nil)
			if err != nil {
				t.Fatal(err)
			}
			hit := memberLog.ops[mark:]
			if len(hit) != 1 || hit[0].kind != blockdev.OpWrite || hit[0].lba != row {
				t.Fatalf("write hit issued member ops %+v, want one write of member page %d", hit, row)
			}
			if done != now+diskLat {
				t.Fatalf("write hit returned after %v, want one member write (%v)", done-now, diskLat)
			}
			if a.StaleRows() != 1 {
				t.Fatalf("%d stale rows after the hit, want its own", a.StaleRows())
			}

			mark = len(memberLog.ops)
			if _, err := k.Clean(now+sim.Second, true); err != nil {
				t.Fatal(err)
			}
			pass := memberLog.ops[mark:]
			if len(pass) != len(tc.share) {
				t.Fatalf("pass issued member ops %+v, want %v on the parity member", pass, tc.share)
			}
			for i, op := range pass {
				if op.kind != tc.share[i] || op.dev != pass[0].dev || op.dev == hit[0].dev || op.lba != row {
					t.Fatalf("pass issued member ops %+v, want %v of member page %d on the parity member", pass, tc.share, row)
				}
			}
			if a.StaleRows() != 0 || k.Stats().ParityUpdates != 1 {
				t.Fatalf("after the pass: %d stale rows, %d parity updates; want 0 and 1", a.StaleRows(), k.Stats().ParityUpdates)
			}
		})
	}
}
