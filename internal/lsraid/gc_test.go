package lsraid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"kddcache/internal/blockdev"
	"kddcache/internal/hdd"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// liveSlot is one live page of a segment: its LBA and the L2P value
// naming its slot there (the packed physical page plus one).
type liveSlot struct {
	lba int64
	ph  int32
}

// liveSlots returns segment v's live pages in summary order.
func liveSlots(a *Array, v int) []liveSlot {
	var s []liveSlot
	for idx, lba := range a.segs[v].LBAs {
		if ph := int32(int64(v)*a.segPages) + int32(idx) + 1; a.l2p[lba] == ph {
			s = append(s, liveSlot{int64(lba), ph})
		}
	}
	return s
}

// churned returns a small data-mode log after random overwrites, with
// the version of every page written, and the full, committed, not open
// segment holding the most live pages — the collection these tests
// drive by hand, so its append spans several rows.
func churned(t *testing.T) (a *Array, version map[int64]int, tt sim.Time, victim int) {
	t.Helper()
	a = testArray(t, 4, 256, 8)
	version = make(map[int64]int)
	rng := sim.NewRNG(5)
	for op := 0; op < 3000; op++ {
		lba := int64(rng.Uint64n(uint64(a.Pages())))
		version[lba]++
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		tt = done
	}
	victim, most := -1, 0
	for s := 0; s < int(a.numSegs); s++ {
		m := &a.segs[s]
		if m.Seq != 0 && int32(s) != a.open && m.Rows == a.cfg.SegRows && int(a.live[s]) > most {
			victim, most = s, int(a.live[s])
		}
	}
	if most < 3*a.dc() {
		t.Fatalf("no segment with three rows of live pages (best %d)", most)
	}
	return a, version, tt, victim
}

// collectByHand runs one collection of v the way gc does, with the
// collector's re-entry guard set.
func collectByHand(a *Array, t sim.Time, v int) (sim.Time, error) {
	a.inGC = true
	defer func() { a.inGC = false }()
	return a.collect(t, v)
}

// checkContent reads every written page back against its last version,
// skipping lost pages, which must fail loudly.
func checkContent(t *testing.T, a *Array, version map[int64]int, tt sim.Time) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, v := range version {
		_, err := a.ReadPages(tt, lba, 1, buf)
		if a.lost.Has(lba) {
			if !errors.Is(err, raid.ErrUnrecoverable) {
				t.Fatalf("lost page %d read: %v, want ErrUnrecoverable", lba, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, pageOf(lba, v)) {
			t.Fatalf("read %d returned wrong bytes", lba)
		}
	}
}

// TestGCCopiesCountLandedCopies fails a member write in the middle of a
// collection's append: GCCopies must count exactly the victim pages
// whose mapping moved (committed elsewhere or staged in NVRAM), not the
// page whose staging the failed flush took back.
func TestGCCopiesCountLandedCopies(t *testing.T) {
	a, version, tt, v := churned(t)
	live := liveSlots(a, v)
	before := a.Stats()
	a.Injector(0).ArmCrash(1, 0, 0) // the second row the append flushes fails
	_, err := collectByHand(a, tt, v)
	if !errors.Is(err, blockdev.ErrCrashed) {
		t.Fatalf("collect: %v, want ErrCrashed", err)
	}
	a.Injector(0).ClearCrash()
	moved := int64(0)
	for _, s := range live {
		if a.l2p[s.lba] != s.ph {
			moved++
		}
	}
	if moved == 0 || moved == int64(len(live)) {
		t.Fatalf("%d of %d live pages moved: the failure did not land mid-collection", moved, len(live))
	}
	if got := a.Stats().GCCopies - before.GCCopies; got != moved {
		t.Fatalf("GCCopies rose by %d, but %d pages moved", got, moved)
	}
	if a.Stats().GCSegments != before.GCSegments || a.segs[v].Seq == 0 {
		t.Fatal("a failed collection freed its victim")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, version, tt)
	if _, err := collectByHand(a, tt, v); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := a.Stats().GCCopies - before.GCCopies; got != int64(len(live)) {
		t.Fatalf("after the retry GCCopies rose by %d, want %d", got, len(live))
	}
	checkContent(t, a, version, tt)
}

// TestSweepReadFailureMovesNothing fails a sweep read halfway through the
// victim — a live page on a row beyond tolerance (its own member and the
// row's parity both unreadable). The collection must move nothing: the
// pages swept so far go back to the pool, the victim stays allocated with
// every other page in place, the lost page stays loud, and the next
// collection of the same victim succeeds without it.
func TestSweepReadFailureMovesNothing(t *testing.T) {
	a, version, tt, v := churned(t)
	live := liveSlots(a, v)
	bad := live[len(live)/2]
	p := int64(bad.ph) - 1
	disk, row := a.Members.DataLocation(p)
	pDisk, _, _ := a.Members.ParityLocation(p)
	a.Injector(disk).InjectBadPage(row)
	a.Injector(pDisk).InjectBadPage(row)
	before, free, pending := a.Stats(), a.freeCount, a.PendingPages()

	_, err := collectByHand(a, tt, v)
	if !errors.Is(err, raid.ErrUnrecoverable) {
		t.Fatalf("collect: %v, want ErrUnrecoverable", err)
	}
	if len(a.sweep) != 0 {
		t.Fatalf("sweep list holds %d pages after the failure", len(a.sweep))
	}
	for i, e := range a.sweep[:cap(a.sweep)] {
		if e.data != nil {
			t.Fatalf("sweep slot %d still holds a page", i)
		}
	}
	for _, s := range live {
		if s == bad {
			continue
		}
		if a.l2p[s.lba] != s.ph {
			t.Fatalf("page %d moved although the sweep failed", s.lba)
		}
	}
	if a.segs[v].Seq == 0 || a.freeCount != free || a.PendingPages() != pending {
		t.Fatalf("victim freed or pages staged: seq=%d free=%d→%d pending=%d→%d",
			a.segs[v].Seq, free, a.freeCount, pending, a.PendingPages())
	}
	after := a.Stats()
	if after.GCCopies != before.GCCopies || after.GCSegments != before.GCSegments {
		t.Fatalf("GC counters moved: %+v → %+v", before, after)
	}
	if after.LostPages != before.LostPages+1 || !a.lost.Has(bad.lba) {
		t.Fatalf("page %d not declared lost (lost pages %d → %d)", bad.lba, before.LostPages, after.LostPages)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, version, tt)

	// The retry skips the lost page — it is no longer live — and
	// reads the rest of its row directly; the faults stay armed.
	if _, err := collectByHand(a, tt, v); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := a.Stats().GCCopies - before.GCCopies; got != int64(len(live)-1) {
		t.Fatalf("retry copied %d pages, want %d", got, len(live)-1)
	}
	if a.segs[v].Seq != 0 {
		t.Fatal("retry left the victim allocated")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkContent(t, a, version, tt)
}

// memberOp is one member I/O as the member saw it: when it was issued,
// where, and which way.
type memberOp struct {
	t     sim.Time
	disk  int
	page  int64
	write bool
}

// loggedDisk is a timed, byte-carrying member that logs every I/O.
type loggedDisk struct {
	*hdd.Disk
	disk int
	log  *[]memberOp
}

func (d *loggedDisk) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	*d.log = append(*d.log, memberOp{t: t, disk: d.disk, page: lba})
	return d.Disk.ReadPages(t, lba, count, buf)
}

func (d *loggedDisk) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	*d.log = append(*d.log, memberOp{t: t, disk: d.disk, page: lba, write: true})
	return d.Disk.WritePages(t, lba, count, buf)
}

// TestSweepIssueOrder is the sweep's I/O-shape property, over random
// fills with overwrite churn on timed members: every collection submits
// all its victim reads at its start time, one per live page in summary
// order — so each member reads its victim pages in ascending member-page
// order — and issues no member write before its last victim read.
func TestSweepIssueOrder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var log []memberOp
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				members = append(members, &loggedDisk{
					Disk: hdd.NewData(fmt.Sprintf("d%d", i), hdd.DefaultConfig(160), seed<<8|uint64(i)),
					disk: i, log: &log,
				})
			}
			a, err := New(Config{ChunkPages: 4, SegRows: 8, Seed: seed}, members)
			if err != nil {
				t.Fatal(err)
			}
			sweeps, reads, call := 0, 0, 0
			gcSweepHook = func(start sim.Time, v int, swept []pending) {
				sweeps++
				reads += len(swept)
				n := len(swept)
				if n > len(log) {
					t.Fatalf("sweep of %d pages, only %d member ops logged", n, len(log))
				}
				// Everything the write that runs this collection logged
				// before the sweep was issued before the collection
				// started: the collection issued nothing, write or read,
				// ahead of its sweep. (An earlier write's flush may still
				// have rows in flight, issued later in virtual time:
				// NVRAM holds two segments.)
				if call > len(log)-n {
					t.Fatalf("sweep of %d pages, only %d member ops logged by this write", n, len(log)-call)
				}
				for _, op := range log[call : len(log)-n] {
					if op.t >= start {
						t.Fatalf("segment %d: member op %+v issued at or after the collection's start %d, before its sweep", v, op, start)
					}
				}
				last := map[int]int64{}
				for i, op := range log[len(log)-n:] {
					disk, page := a.Members.DataLocation(int64(a.l2p[swept[i].lba]) - 1)
					if op.write || op.t != start || op.disk != disk || op.page != page {
						t.Fatalf("segment %d: sweep op %d is %+v, want a read of d%d page %d at %d", v, i, op, disk, page, start)
					}
					if p, ok := last[disk]; ok && page <= p {
						t.Fatalf("segment %d: d%d reads page %d after page %d", v, disk, page, p)
					}
					last[disk] = page
				}
			}
			defer func() { gcSweepHook = nil }()
			rng := sim.NewRNG(seed)
			version := make(map[int64]int)
			var tt sim.Time
			for op := 0; op < 3000; op++ {
				lba := int64(rng.Uint64n(uint64(a.Pages())))
				version[lba]++
				call = len(log)
				done, err := a.WritePages(tt, lba, 1, pageOf(lba, version[lba]))
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				tt = done
			}
			if sweeps < 20 || reads < 100 {
				t.Fatalf("%d sweeps read %d pages: the property is barely exercised", sweeps, reads)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkContent(t, a, version, tt)
		})
	}
}

// TestGCStallIsAnError drives one GC call over live counts that steer
// the victim picker to the fullest segments, re-corrupted after every
// sweep, so no collection frees a net segment. The call must give up
// after one victim per segment with a GCStallError wrapping ErrNoSpace,
// not loop for ever.
func TestGCStallIsAnError(t *testing.T) {
	a := testArray(t, 4, 64, 2)
	rng := sim.NewRNG(3)
	var tt sim.Time
	for a.freeCount > reserveSegs { // the next segment allocation must collect
		lba := int64(rng.Uint64n(uint64(a.Pages())))
		done, err := a.WritePages(tt, lba, 1, pageOf(lba, 1))
		if err != nil {
			t.Fatal(err)
		}
		tt = done
	}
	a.invertLive()
	gcSweepHook = func(sim.Time, int, []pending) { a.invertLive() }
	defer func() { gcSweepHook = nil }()
	errc := make(chan error, 1)
	go func() { _, err := a.gc(tt); errc <- err }()
	select {
	case err := <-errc:
		var stall GCStallError
		if !errors.As(err, &stall) || !errors.Is(err, ErrNoSpace) {
			t.Fatalf("gc error %v, want a GCStallError wrapping ErrNoSpace", err)
		}
		if stall.Victims != int(a.SegmentCount()) {
			t.Errorf("gave up after %d victims, want one per segment (%d)", stall.Victims, a.SegmentCount())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gc still collecting after 10 s")
	}
}
