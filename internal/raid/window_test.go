package raid_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/lsraid"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
)

// The rebuild window is one type embedded by both array engines; this
// suite drives its transitions through raidiface.Array on each of them
// (the parity engine at both of its redundant levels).

const (
	winDisks     = 4
	winDiskPages = 256
	winPages     = 96 // logical pages written: whole rows on every engine
)

type windowEngine struct {
	name   string
	parity int // member faults a row absorbs
	new    func(t *testing.T) raidiface.Array
	// breakStart arranges for the next window open on the returned member
	// to fail, and returns how to repair that; nil when the engine has no
	// pre-open step that could.
	breakStart func(t *testing.T, a raidiface.Array) (member int, heal func())
}

func winMembers() []blockdev.Device {
	var m []blockdev.Device
	for i := 0; i < winDisks; i++ {
		m = append(m, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), winDiskPages))
	}
	return m
}

func winRaid(level raid.Level) func(t *testing.T) raidiface.Array {
	return func(t *testing.T) raidiface.Array {
		a, err := raid.New(raid.Config{Level: level, ChunkPages: 4}, winMembers())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

var windowEngines = []windowEngine{
	// Single parity absorbs every failure of the pre-open resync as loss
	// (a stale row is either written off with the failed member's data or
	// dropped with its parity), so RAID-5 has no way to break a start.
	{name: "raid5", parity: 1, new: winRaid(raid.Level5)},
	{
		name:   "raid6",
		parity: 2,
		new:    winRaid(raid.Level6),
		// A stale row whose P lives on the member about to fail, and power
		// lost on the Q member: the pre-open resync can neither rewrite the
		// surviving parity nor write the row off with the failed member.
		breakStart: func(t *testing.T, a raidiface.Array) (int, func()) {
			const lba = 5
			if _, err := a.WriteNoParity(0, lba, 1, winPage(lba, 1)); err != nil {
				t.Fatal(err)
			}
			pDisk, qDisk, _ := a.ParityLocation(lba)
			a.Injector(qDisk).ArmCrash(0, 0, 0)
			return pDisk, a.Injector(qDisk).ClearCrash
		},
	},
	{
		name:   "lsraid",
		parity: 1,
		new: func(t *testing.T) raidiface.Array {
			a, err := lsraid.New(lsraid.Config{ChunkPages: 4, SegRows: 8, Seed: 1}, winMembers())
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	},
}

func winPage(lba int64, version int) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(int(lba)*31 + version*7 + i)
	}
	return p
}

func winFill(t *testing.T, a raidiface.Array) {
	t.Helper()
	for lba := int64(0); lba < winPages; lba++ {
		if _, err := a.WritePages(0, lba, 1, winPage(lba, 1)); err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
	}
}

// winVerify reads every page back with member `without` failed, which
// forces each read of a page on that member through the others — so a
// rebuilt member is proven byte-correct, not just present.
func winVerify(t *testing.T, a raidiface.Array, without int) {
	t.Helper()
	a.FailDisk(without)
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < winPages; lba++ {
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, winPage(lba, 1)) {
			t.Fatalf("lba %d wrong after rebuild", lba)
		}
	}
}

func fresh() blockdev.Device { return blockdev.NewNullDataDevice("fresh", winDiskPages) }

// winDrain steps the open window until it closes; every engine must close
// it, whatever the sweep met on the way.
func winDrain(t *testing.T, a raidiface.Array) {
	t.Helper()
	for i := 0; a.RebuildActive(); i++ {
		if i > winDiskPages {
			t.Fatal("rebuild window never closed")
		}
		if _, _, _, err := a.RebuildStep(0, 64); err != nil {
			t.Fatalf("rebuild step: %v", err)
		}
	}
	if s := a.Stats(); s.RebuildsCompleted != 1 {
		t.Fatalf("completed %d rebuilds, want 1", s.RebuildsCompleted)
	}
}

// winLoss checks the loss a fault beyond tolerance leaves: every page
// whose member page is gone (gone reports it by location, taken before
// the fault) reads back loudly as ErrUnrecoverable and is accounted in
// LostPages; every other page reads back byte for byte.
func winLoss(t *testing.T, a raidiface.Array, where map[int64][2]int64, gone func(disk int, row int64) bool) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	lost := 0
	for lba := int64(0); lba < winPages; lba++ {
		_, err := a.ReadPages(0, lba, 1, buf)
		if gone(int(where[lba][0]), where[lba][1]) {
			if !errors.Is(err, raid.ErrUnrecoverable) {
				t.Fatalf("lost page %d read: %v, want ErrUnrecoverable", lba, err)
			}
			lost++
			continue
		}
		if err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, winPage(lba, 1)) {
			t.Fatalf("lba %d wrong", lba)
		}
	}
	if (lost > 0) != (a.Stats().LostPages > 0) {
		t.Fatalf("%d pages read back lost, LostPages %d", lost, a.Stats().LostPages)
	}
}

// winWhere records where every written page lives.
func winWhere(a raidiface.Array) map[int64][2]int64 {
	where := make(map[int64][2]int64, winPages)
	for lba := int64(0); lba < winPages; lba++ {
		d, row := a.DataLocation(lba)
		where[lba] = [2]int64{int64(d), row}
	}
	return where
}

func noWindow(t *testing.T, a raidiface.Array, when string) {
	t.Helper()
	if disk, row, active := a.RebuildTarget(); active || a.RebuildActive() || disk != 0 || row != 0 {
		t.Fatalf("%s: window open on (%d, %d)", when, disk, row)
	}
}

func TestRebuildWindow(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e windowEngine, a raidiface.Array)
	}{
		{"start on a healthy member", func(t *testing.T, e windowEngine, a raidiface.Array) {
			if _, err := a.StartRebuild(0, 2, fresh()); !errors.Is(err, raid.ErrNotDegraded) {
				t.Fatalf("StartRebuild: %v, want ErrNotDegraded", err)
			}
			if _, err := a.ReplaceDisk(0, 2, fresh()); !errors.Is(err, raid.ErrNotDegraded) {
				t.Fatalf("ReplaceDisk: %v, want ErrNotDegraded", err)
			}
			if err := a.AddSpare(fresh()); err != nil {
				t.Fatal(err)
			}
			if _, started, err := a.StartSpareRebuild(0); started || err != nil {
				t.Fatalf("spare attach with nothing failed: started=%v err=%v", started, err)
			}
			if a.SpareCount() != 1 || a.Stats().RebuildsStarted != 0 {
				t.Fatalf("spares %d, rebuilds started %d", a.SpareCount(), a.Stats().RebuildsStarted)
			}
			noWindow(t, a, "after refused starts")
		}},
		{"double start", func(t *testing.T, e windowEngine, a raidiface.Array) {
			a.FailDisk(1)
			if _, err := a.StartRebuild(0, 1, fresh()); err != nil {
				t.Fatal(err)
			}
			a.FailDisk(2)
			if _, err := a.StartRebuild(0, 2, fresh()); err == nil || errors.Is(err, raid.ErrNotDegraded) {
				t.Fatalf("second window opened beside the first: %v", err)
			}
			if err := a.AddSpare(fresh()); err != nil {
				t.Fatal(err)
			}
			if _, started, err := a.StartSpareRebuild(0); started || err != nil {
				t.Fatalf("spare attach beside an open window: started=%v err=%v", started, err)
			}
			if disk, row, active := a.RebuildTarget(); !active || disk != 1 || row != 0 {
				t.Fatalf("window (%d, %d, %v), want member 1 at row 0", disk, row, active)
			}
			if a.SpareCount() != 1 || a.Stats().RebuildsStarted != 1 || len(a.FailedDisks()) != 1 {
				t.Fatalf("spares %d, started %d, failed %v", a.SpareCount(), a.Stats().RebuildsStarted, a.FailedDisks())
			}
		}},
		{"size mismatch", func(t *testing.T, e windowEngine, a raidiface.Array) {
			small := blockdev.NewNullDataDevice("small", winDiskPages/2)
			if err := a.AddSpare(small); !errors.Is(err, raid.ErrBadGeometry) {
				t.Fatalf("undersized spare: %v, want ErrBadGeometry", err)
			}
			a.FailDisk(2)
			if _, err := a.StartRebuild(0, 2, small); !errors.Is(err, raid.ErrBadGeometry) {
				t.Fatalf("undersized replacement: %v, want ErrBadGeometry", err)
			}
			if a.SpareCount() != 0 || len(a.FailedDisks()) != 1 {
				t.Fatalf("spares %d, failed %v", a.SpareCount(), a.FailedDisks())
			}
			noWindow(t, a, "after a refused replacement")
		}},
		{"spare re-queued when the start fails", func(t *testing.T, e windowEngine, a raidiface.Array) {
			if e.breakStart == nil {
				t.Skip("no pre-open step: once a spare is parked its attach cannot fail")
			}
			member, heal := e.breakStart(t, a)
			first, second := fresh(), fresh()
			if err := a.AddSpare(first); err != nil {
				t.Fatal(err)
			}
			if err := a.AddSpare(second); err != nil {
				t.Fatal(err)
			}
			a.FailDisk(member)
			if _, started, err := a.StartSpareRebuild(0); started || err == nil {
				t.Fatalf("broken start: started=%v err=%v", started, err)
			}
			if a.SpareCount() != 2 || len(a.FailedDisks()) != 1 || a.Stats().SpareAttaches != 0 {
				t.Fatalf("spares %d, failed %v, attaches %d", a.SpareCount(), a.FailedDisks(), a.Stats().SpareAttaches)
			}
			noWindow(t, a, "after a failed start")
			heal()
			if _, started, err := a.StartSpareRebuild(0); !started || err != nil {
				t.Fatalf("healed start: started=%v err=%v", started, err)
			}
			if a.SpareCount() != 1 || a.Member(member) != first {
				t.Fatal("the re-queued spare lost its place at the head of the queue")
			}
		}},
		{"resume onto a since-failed member", func(t *testing.T, e windowEngine, a raidiface.Array) {
			a.FailDisk(3)
			if err := a.ResumeRebuild(3, 10); err != nil {
				t.Fatal(err)
			}
			noWindow(t, a, "after resuming onto a failed member")
		}},
		{"resume at or after the end", func(t *testing.T, e windowEngine, a raidiface.Array) {
			a.FailDisk(1)
			if _, err := a.StartRebuild(0, 1, fresh()); err != nil {
				t.Fatal(err)
			}
			if _, n, complete, err := a.RebuildStep(0, 40); err != nil || complete || n != 40 {
				t.Fatalf("step: n=%d complete=%v err=%v", n, complete, err)
			}
			a.CrashRebuildState()
			noWindow(t, a, "after the crash")
			for _, bad := range []struct {
				disk int
				row  int64
			}{{-1, 0}, {winDisks, 0}, {1, -5}, {1, winDiskPages + 1}} {
				if err := a.ResumeRebuild(bad.disk, bad.row); !errors.Is(err, raid.ErrBadGeometry) {
					t.Fatalf("checkpoint (%d, %d): %v, want ErrBadGeometry", bad.disk, bad.row, err)
				}
			}
			if err := a.ResumeRebuild(1, winDiskPages); err != nil {
				t.Fatal(err)
			}
			noWindow(t, a, "after resuming at the end")
			// An older checkpoint than reality, resumed twice as a double
			// Restore does, finishes the job.
			for i := 0; i < 2; i++ {
				if err := a.ResumeRebuild(1, 33); err != nil {
					t.Fatal(err)
				}
			}
			if disk, row, active := a.RebuildTarget(); !active || disk != 1 || row != 33 {
				t.Fatalf("resumed window (%d, %d, %v)", disk, row, active)
			}
			for a.RebuildActive() {
				if _, _, _, err := a.RebuildStep(0, 64); err != nil {
					t.Fatal(err)
				}
			}
			if s := a.Stats(); s.RebuildsStarted != 1 || s.RebuildsCompleted != 1 || !a.Healthy() {
				t.Fatalf("started %d, completed %d, healthy %v", s.RebuildsStarted, s.RebuildsCompleted, a.Healthy())
			}
			winVerify(t, a, 3)
		}},
		{"target dies mid-window", func(t *testing.T, e windowEngine, a raidiface.Array) {
			if err := a.AddSpare(fresh()); err != nil {
				t.Fatal(err)
			}
			a.FailDisk(1)
			if _, err := a.StartRebuild(0, 1, fresh()); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := a.RebuildStep(0, 8); err != nil {
				t.Fatal(err)
			}
			a.FailDisk(1)
			noWindow(t, a, "after the target died")
			if s := a.Stats(); s.RebuildsAborted != 1 || s.RebuildsCompleted != 0 {
				t.Fatalf("aborted %d, completed %d", s.RebuildsAborted, s.RebuildsCompleted)
			}
			if _, n, complete, err := a.RebuildStep(0, 8); n != 0 || !complete || err != nil {
				t.Fatalf("step with no window: n=%d complete=%v err=%v", n, complete, err)
			}
			// The next attach starts over from row 0.
			if _, started, err := a.StartSpareRebuild(0); !started || err != nil {
				t.Fatalf("attach after the abort: started=%v err=%v", started, err)
			}
			if disk, row, active := a.RebuildTarget(); !active || disk != 1 || row != 0 {
				t.Fatalf("window (%d, %d, %v), want member 1 at row 0", disk, row, active)
			}
		}},
		{"latent survivor page in the window", func(t *testing.T, e windowEngine, a raidiface.Array) {
			// A latent page on a survivor, in a row the sweep has yet to
			// reach: one erasure past single parity, within RAID-6's.
			where := winWhere(a)
			survivor, row := a.DataLocation(5)
			target := (survivor + 1) % winDisks
			a.FailDisk(target)
			if _, err := a.StartRebuild(0, target, fresh()); err != nil {
				t.Fatal(err)
			}
			a.Injector(survivor).InjectBadPage(row)
			winDrain(t, a)
			winLoss(t, a, where, func(d int, r int64) bool {
				return e.parity == 1 && r == row && (d == target || d == survivor)
			})
			if e.parity == 1 && a.Stats().LostPages == 0 {
				t.Fatal("a row beyond tolerance lost nothing")
			}
		}},
		{"second failure mid-window", func(t *testing.T, e windowEngine, a raidiface.Array) {
			// Every row the sweep has yet to reach has two holes: beyond
			// single parity, the rows' pages on both members are lost and
			// the sweep carries on; RAID-6 absorbs it.
			where := winWhere(a)
			a.FailDisk(1)
			if _, err := a.StartRebuild(0, 1, fresh()); err != nil {
				t.Fatal(err)
			}
			a.FailDisk(2)
			winDrain(t, a)
			winLoss(t, a, where, func(d int, _ int64) bool { return e.parity == 1 && (d == 1 || d == 2) })
			if e.parity == 1 && a.Stats().LostPages == 0 {
				t.Fatal("second-fault loss not accounted")
			}
		}},
		{"member fails on its own", func(t *testing.T, e windowEngine, a raidiface.Array) {
			// FailAfterOps: no one calls FailDisk, the member just stops
			// answering. Whatever the I/O that meets it returns, the
			// failure state must agree with itself afterwards.
			// Survivable is on both engines, not on the seam.
			survivable := a.(interface{ Survivable() bool }).Survivable
			agree := func(when string, aborted int64) {
				t.Helper()
				if fd := a.FailedDisks(); fmt.Sprint(fd) != "[2]" || a.Healthy() || !survivable() || a.RebuildActive() {
					t.Fatalf("%s: failed %v, healthy %v, survivable %v, rebuilding %v",
						when, fd, a.Healthy(), survivable(), a.RebuildActive())
				}
				if s := a.Stats(); s.RebuildsAborted != aborted {
					t.Fatalf("%s: aborted %d rebuilds, want %d", when, s.RebuildsAborted, aborted)
				}
			}
			inj := a.Injector(2)
			inj.FailAfterOps = inj.Ops() // its next operation fails
			buf := make([]byte, blockdev.PageSize)
			for lba := int64(0); lba < winPages; lba++ {
				if _, err := a.ReadPages(0, lba, 1, buf); err == nil && !bytes.Equal(buf, winPage(lba, 1)) {
					t.Fatalf("lba %d wrong", lba)
				}
			}
			agree("after reads", 0)
			// The same for a rebuild target: the window is abandoned.
			inj.FailAfterOps = 0
			if _, err := a.StartRebuild(0, 2, fresh()); err != nil {
				t.Fatal(err)
			}
			inj.FailAfterOps = 1 // one write onto the replacement lands
			for i := 0; i < 4 && a.RebuildActive(); i++ {
				a.RebuildStep(0, 16) //nolint:errcheck // the target dies under the step
			}
			agree("after the target died", 1)
			winVerify(t, a, 2)
		}},
		{"ReplaceDisk to completion", func(t *testing.T, e windowEngine, a raidiface.Array) {
			a.FailDisk(2)
			if _, err := a.ReplaceDisk(0, 2, fresh()); err != nil {
				t.Fatal(err)
			}
			noWindow(t, a, "after ReplaceDisk")
			s := a.Stats()
			if !a.Healthy() || s.RebuildsStarted != 1 || s.RebuildsCompleted != 1 || s.RebuildRows != winDiskPages {
				t.Fatalf("healthy %v, stats %+v", a.Healthy(), s)
			}
			// Every row is swept; only the rows the engine reconstructs are
			// written (all of them on the parity engine, the committed ones
			// on the log).
			if s.RebuildBytes != s.RebuildWrite*blockdev.PageSize || s.RebuildWrite == 0 || s.RebuildWrite > winDiskPages {
				t.Fatalf("rebuild bytes %d for %d target writes", s.RebuildBytes, s.RebuildWrite)
			}
			winVerify(t, a, 0)
		}},
	}
	for _, e := range windowEngines {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				a := e.new(t)
				winFill(t, a)
				c.run(t, e, a)
			})
		}
	}
}
