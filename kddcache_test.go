package kddcache

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/harness"
	"kddcache/internal/hdd"
	"kddcache/internal/lsraid"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

func newDataSystem(t *testing.T, p Policy) *System {
	t.Helper()
	sys, err := New(Options{
		Policy:     p,
		CachePages: 1024,
		DiskPages:  16384,
		DataMode:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemReadYourWrites(t *testing.T) {
	for _, p := range []Policy{Nossd, WT, WA, LeavO, KDD, WB, NVB, PLog} {
		sys := newDataSystem(t, p)
		page := make([]byte, PageSize)
		for i := range page {
			page[i] = byte(i)
		}
		if _, err := sys.Write(50, page); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		page[0] = 0xFF
		if _, err := sys.Write(50, page); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got := make([]byte, PageSize)
		if _, err := sys.Read(50, got); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("%s: read-your-writes violated", p)
		}
	}
}

// TestNewRejectsBadOptions: options no stack can be built from are a
// returned harness.ErrOptions, never a panic inside the codec or the
// cache frame.
func TestNewRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"delta mean above 1", Options{DeltaMean: 1.5}, "delta mean 1.5 outside (0,1]"},
		{"negative delta mean", Options{DeltaMean: -0.1}, "delta mean -0.1 outside (0,1]"},
		{"WT below one set", Options{Policy: WT, CachePages: 100}, "cache of 100 pages below one set"},
		{"LeavO below one set", Options{Policy: LeavO, CachePages: 100}, "cache of 100 pages below one set"},
		{"WB negative cache", Options{Policy: WB, CachePages: -5}, "cache of -5 pages below one set"},
		{"KDD below one set", Options{Policy: KDD, CachePages: 100}, "cache of 100 pages below one set"},
		{"unknown policy", Options{Policy: "LRU"}, `unknown policy "LRU"`},
		{"unknown backend", Options{Backend: "raid7"}, `unknown backend "raid7"`},
		{"RAID-1", Options{Level: raid.Level(1)}, "no RAID-1 array"},
		{"RAID-3", Options{Level: raid.Level(3)}, "no RAID-3 array"},
		{"RAID-6 on lsraid", Options{Backend: "lsraid", Level: raid.Level6}, "the lsraid backend is single-parity: no RAID-6"},
		{"PLog on lsraid", Options{Policy: PLog, Backend: "lsraid"}, "the lsraid backend owes no parity for PLog to log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.o)
			if sys != nil || !errors.Is(err, harness.ErrOptions) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) = %v, %v; want an ErrOptions containing %q", tc.o, sys, err, tc.want)
			}
		})
	}
}

func TestSystemLatencyReported(t *testing.T) {
	sys, err := New(Options{Policy: KDD, CachePages: 1024, DiskPages: 16384, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := sys.Write(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("timing-mode write latency = %v", lat)
	}
	if sys.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestSystemFlushAndStaleRows(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := make([]byte, PageSize)
	sysWrite := func(lba int64) {
		if _, err := sys.Write(lba, page); err != nil {
			t.Fatal(err)
		}
	}
	sysWrite(5)
	sysWrite(5)
	if sys.StaleParityRows() == 0 {
		t.Fatal("write hit should defer parity")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if sys.StaleParityRows() != 0 {
		t.Fatal("flush left stale rows")
	}
}

// A write hit leaves page A's row parity stale, and the member page of a
// never-written peer B in that row goes bad. The array alone cannot
// reconstruct B (raid.ErrStaleParity), but A's delta is still cached:
// KDD folds it into the row's parity and serves the request.
func TestSystemRepairsStaleRowOnUnreadablePeer(t *testing.T) {
	for _, write := range []bool{false, true} {
		t.Run(map[bool]string{false: "read", true: "write"}[write], func(t *testing.T) {
			sys := newDataSystem(t, KDD)
			const a = 8
			for _, v := range []byte{1, 2} {
				if _, err := sys.Write(a, bytes.Repeat([]byte{v}, PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			if sys.StaleParityRows() != 1 {
				t.Fatalf("%d stale rows after a write hit, want 1", sys.StaleParityRows())
			}
			arr := sys.st.Array
			b := arr.RowPeers(a)[0]
			if b == a {
				b = arr.RowPeers(a)[1]
			}
			disk, page := arr.DataLocation(b)
			arr.Injector(disk).InjectBadPage(page)

			want := make([]byte, PageSize)
			if write {
				want = bytes.Repeat([]byte{3}, PageSize)
				if _, err := sys.Write(b, want); err != nil {
					t.Fatalf("write of the unreadable peer: %v", err)
				}
			}
			got := bytes.Repeat([]byte{0xFF}, PageSize)
			if _, err := sys.Read(b, got); err != nil {
				t.Fatalf("read of the unreadable peer: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("peer %d read back %#x..., want %#x...", b, got[0], want[0])
			}
			if h := sys.Stats().RowsHealed; h != 1 {
				t.Fatalf("RowsHealed = %d, want 1", h)
			}
			if sys.StaleParityRows() != 0 {
				t.Fatal("the repaired row is still stale")
			}
			assertClassifiedOnce(t, sys)
		})
	}
}

// assertClassifiedOnce fails unless every request the system served was
// counted as exactly one hit or one miss.
func assertClassifiedOnce(t *testing.T, sys *System) {
	t.Helper()
	st := sys.Stats()
	if st.ReadHits+st.ReadMisses != st.Reads || st.WriteHits+st.WriteMiss != st.Writes {
		t.Fatalf("a re-issued request classified twice: %d reads = %d hits + %d misses, %d writes = %d hits + %d misses",
			st.Reads, st.ReadHits, st.ReadMisses, st.Writes, st.WriteHits, st.WriteMiss)
	}
}

// A read that finds the cache device dead is re-issued against the array
// and counted once, as the miss that served it.
func TestSystemFailoverCountsRequestOnce(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := bytes.Repeat([]byte{7}, PageSize)
	if _, err := sys.Write(3, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if _, err := sys.Read(3, got); err != nil {
		t.Fatal(err)
	}
	sys.FailSSD()
	if _, err := sys.Read(3, got); err != nil {
		t.Fatalf("read across SSD failure: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("data lost across SSD failure")
	}
	if st := sys.Stats(); st.Reads != 2 || st.ReadHits != 1 || st.ReadMisses != 1 || st.PassReads != 1 {
		t.Fatalf("reads %d, hits %d, misses %d, pass-through %d; want 2, 1, 1, 1",
			st.Reads, st.ReadHits, st.ReadMisses, st.PassReads)
	}
	assertClassifiedOnce(t, sys)
}

func TestSystemCrashAndRecover(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := bytes.Repeat([]byte{7}, PageSize)
	if _, err := sys.Write(9, page); err != nil {
		t.Fatal(err)
	}
	page[0] = 1
	if _, err := sys.Write(9, page); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if _, err := sys.Read(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("data lost across crash")
	}
	// Non-KDD policies reject recovery.
	if err := newDataSystem(t, WT).CrashAndRecover(); err != ErrNotKDD {
		t.Fatalf("err = %v, want ErrNotKDD", err)
	}
}

// TestSystemCrashAndRecoverBackends: CrashAndRecover is a real power
// failure on both array backends — the array forgets its volatile state
// (rebuild watermark; the log's L2P map) and recovery rebuilds everything
// from flash and NVRAM — first at rest, then with a member rebuild in
// flight, which must resume from its NVRAM checkpoint and run to
// completion with every page intact.
func TestSystemCrashAndRecoverBackends(t *testing.T) {
	for _, backend := range []string{"kdd", "lsraid"} {
		t.Run(backend, func(t *testing.T) {
			sys, err := New(Options{Policy: KDD, Backend: backend,
				CachePages: 1024, DiskPages: 4096, DataMode: true})
			if err != nil {
				t.Fatal(err)
			}
			const pages = 300
			want := make([][]byte, pages)
			write := func(lba int64, fill byte) {
				t.Helper()
				p := bytes.Repeat([]byte{fill}, PageSize)
				p[0] = byte(lba)
				if _, err := sys.Write(lba, p); err != nil {
					t.Fatal(err)
				}
				want[lba] = p
			}
			verify := func(when string) {
				t.Helper()
				got := make([]byte, PageSize)
				for lba := int64(0); lba < pages; lba++ {
					if _, err := sys.Read(lba, got); err != nil {
						t.Fatalf("%s: read %d: %v", when, lba, err)
					}
					if !bytes.Equal(got, want[lba]) {
						t.Fatalf("%s: lba %d holds wrong data", when, lba)
					}
				}
				if err := sys.st.Policy.(*core.KDD).CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if la, ok := sys.st.Array.(*lsraid.Array); ok {
					if err := la.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
			}
			for lba := int64(0); lba < pages; lba++ {
				write(lba, 1)
			}
			for lba := int64(0); lba < pages; lba += 2 {
				write(lba, 2) // write hits: staged deltas, stale parity
			}
			if err := sys.CrashAndRecover(); err != nil {
				t.Fatal(err)
			}
			verify("after a crash at rest")

			// Member 1 dies with a hot spare parked: the engine attaches it
			// and paces the rebuild behind foreground requests.
			arr := sys.st.Array
			if err := arr.AddSpare(blockdev.NewNullDataDevice("spare", arr.Member(0).Pages())); err != nil {
				t.Fatal(err)
			}
			sys.FailDisk(1)
			for lba := int64(0); lba < 40; lba++ {
				write(lba, 3)
			}
			disk, row, active := arr.RebuildTarget()
			if !active || disk != 1 || row == 0 || row >= arr.Member(0).Pages() {
				t.Fatalf("setup: rebuild target (%d, %d, %v), want member 1 mid-window", disk, row, active)
			}
			if err := sys.CrashAndRecover(); err != nil {
				t.Fatal(err)
			}
			if d, r, a := arr.RebuildTarget(); !a || d != disk || r != row {
				t.Fatalf("rebuild resumed at (%d, %d, %v), checkpoint was (%d, %d, true)", d, r, a, disk, row)
			}
			verify("inside the resumed rebuild window")
			for i := 0; !arr.Healthy(); i++ {
				if i > 20*int(arr.Member(0).Pages()) {
					t.Fatal("resumed rebuild never completed")
				}
				write(int64(i%pages), 4)
			}
			if rs := sys.RAIDStats(); rs.RebuildsCompleted != 1 || rs.LostPages != 0 {
				t.Fatalf("rebuilds completed %d, lost pages %d", rs.RebuildsCompleted, rs.LostPages)
			}
			if err := sys.Flush(); err != nil {
				t.Fatal(err)
			}
			verify("after the rebuild")
		})
	}
}

func TestSystemDiskFailureFlow(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := bytes.Repeat([]byte{3}, PageSize)
	for lba := int64(0); lba < 64; lba++ {
		if _, err := sys.Write(lba, page); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Write(lba, page); err != nil {
			t.Fatal(err)
		}
	}
	sys.FailDisk(1)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RepairDisk(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	for lba := int64(0); lba < 64; lba++ {
		if _, err := sys.Read(lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("lba %d lost after rebuild", lba)
		}
	}
}

// rebuildFill is how many pages the replace-member tests write: 64, or on
// the log-structured backend a whole segment, which its row buffer
// flushes at once, so the rebuild has committed rows to reconstruct.
func rebuildFill(sys *System) int64 {
	if ls, ok := sys.st.Array.(*lsraid.Array); ok {
		return ls.SegmentPages()
	}
	return 64
}

// A replaced member must match the live members' size and device mode on
// both backends: lsraid's members are larger than Options.DiskPages
// (reserve segments plus GC headroom), and a timed stack's replacement is
// a timed disk.
func TestReplaceMemberBothBackends(t *testing.T) {
	for _, backend := range []string{"kdd", "lsraid"} {
		for _, c := range []struct {
			name string
			run  func(t *testing.T)
		}{
			{"RepairDisk data mode", func(t *testing.T) {
				sys, err := New(Options{Backend: backend, CachePages: 1024, DiskPages: 4096, DataMode: true})
				if err != nil {
					t.Fatal(err)
				}
				n := rebuildFill(sys)
				page := bytes.Repeat([]byte{3}, PageSize)
				for lba := int64(0); lba < n; lba++ {
					if _, err := sys.Write(lba, page); err != nil {
						t.Fatal(err)
					}
				}
				sys.FailDisk(1)
				if err := sys.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := sys.RepairDisk(1); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, PageSize)
				for lba := int64(0); lba < n; lba++ {
					if _, err := sys.Read(lba, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, page) {
						t.Fatalf("lba %d lost after rebuild", lba)
					}
				}
			}},
			{"RepairDisk under Timing", func(t *testing.T) {
				sys, err := New(Options{Backend: backend, CachePages: 1024, DiskPages: 4096, Timing: true})
				if err != nil {
					t.Fatal(err)
				}
				for lba := int64(0); lba < rebuildFill(sys); lba++ {
					if _, err := sys.Write(lba, nil); err != nil {
						t.Fatal(err)
					}
				}
				sys.FailDisk(1)
				if err := sys.Flush(); err != nil {
					t.Fatal(err)
				}
				before := sys.Now()
				if err := sys.RepairDisk(1); err != nil {
					t.Fatal(err)
				}
				if _, ok := sys.st.Array.Member(1).(*hdd.Disk); !ok {
					t.Fatalf("replacement of a timed member is a %T", sys.st.Array.Member(1))
				}
				if sys.Now() == before {
					t.Fatal("rebuilding onto a timed member took no virtual time")
				}
			}},
			{"degraded and rebuild-impact", func(t *testing.T) {
				t.Parallel()
				for _, exp := range []string{"degraded", "rebuild-impact"} {
					if _, err := Experiment(exp, ExperimentEnv{Scale: 0.002, Backend: backend}); err != nil {
						t.Fatalf("%s: %v", exp, err)
					}
				}
			}},
		} {
			t.Run(backend+"/"+c.name, c.run)
		}
	}
}

func TestSystemResyncAfterSSDLoss(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := bytes.Repeat([]byte{9}, PageSize)
	if _, err := sys.Write(3, page); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Write(3, page); err != nil {
		t.Fatal(err)
	}
	if err := sys.ResyncAfterSSDLoss(); err != nil {
		t.Fatal(err)
	}
	if sys.StaleParityRows() != 0 {
		t.Fatal("resync incomplete")
	}
}

// Parity logging queues its parity-update images until a flush. A resync
// after an SSD loss makes the logged rows' parity current, so the flush
// that follows must not fold those images in again: a disk lost afterwards
// is rebuilt from that parity, and every page must read back intact.
func TestSystemPLogFlushAfterResync(t *testing.T) {
	sys := newDataSystem(t, PLog)
	pages := map[int64][]byte{}
	write := func(lba int64, v byte) {
		pages[lba] = bytes.Repeat([]byte{v}, PageSize)
		if _, err := sys.Write(lba, pages[lba]); err != nil {
			t.Fatal(err)
		}
	}
	for lba := int64(0); lba < 64; lba++ {
		write(lba, byte(lba+1))
	}
	write(3, 0xEE)
	if err := sys.ResyncAfterSSDLoss(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	sys.FailDisk(0)
	buf := make([]byte, PageSize)
	for lba, want := range pages {
		if _, err := sys.Read(lba, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("LBA %d reads back wrong after the resync, flush and disk loss", lba)
		}
	}
}

func TestSystemStats(t *testing.T) {
	sys := newDataSystem(t, WT)
	page := make([]byte, PageSize)
	if _, err := sys.Write(1, page); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Writes != 1 {
		t.Fatalf("stats writes = %d", st.Writes)
	}
	if sys.RAIDStats().DataWrites == 0 {
		t.Fatal("raid stats empty")
	}
	if sys.Pages() <= 0 {
		t.Fatal("capacity missing")
	}
}

// TestSystemAdvanceTriggersIdleClean dirties the cache past the cleaner's
// low-water mark, below its high-water mark and with the free pool far
// from dry, so no write runs or queues a pass: the idle period Advance
// models must run one, reclaiming Old pages.
func TestSystemAdvanceTriggersIdleClean(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := make([]byte, PageSize)
	for pass := byte(0); pass < 2; pass++ {
		page[0] = pass
		for lba := int64(0); lba < 350; lba++ {
			if _, err := sys.Write(lba, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := sys.Stats()
	if before.CleanerRuns != 0 || before.Reclaims != 0 {
		t.Fatalf("writes ran the cleaner (%d runs, %d reclaims)", before.CleanerRuns, before.Reclaims)
	}
	if err := sys.Advance(sim.Second); err != nil {
		t.Fatal(err)
	}
	if after := sys.Stats(); after.CleanerRuns <= before.CleanerRuns || after.Reclaims <= before.Reclaims {
		t.Fatalf("idle Advance: cleaner runs %d -> %d, reclaims %d -> %d; want both to rise",
			before.CleanerRuns, after.CleanerRuns, before.Reclaims, after.Reclaims)
	}
}

func TestSystemSSDFailoverFlow(t *testing.T) {
	sys := newDataSystem(t, KDD)
	page := bytes.Repeat([]byte{5}, PageSize)
	for lba := int64(0); lba < 32; lba++ {
		if _, err := sys.Write(lba, page); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Write(lba, page); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := sys.CacheHealth(); err != nil || h != core.HealthNormal {
		t.Fatalf("health = %v, %v; want normal", h, err)
	}
	sys.FailSSD()
	got := make([]byte, PageSize)
	if _, err := sys.Read(7, got); err != nil {
		t.Fatalf("read across SSD failure: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("data lost across SSD failure")
	}
	if h, _ := sys.CacheHealth(); h != core.HealthBypass {
		t.Fatalf("health = %v after fail-stop, want bypass", h)
	}
	if err := sys.ReattachSSD(); err != nil {
		t.Fatal(err)
	}
	// The fresh device re-enters service through the rebuilding state
	// while the metadata log is re-initialised and the cache re-warms.
	if h, _ := sys.CacheHealth(); h == core.HealthBypass {
		t.Fatal("still in bypass after reattach")
	}
	if _, err := sys.Write(7, page); err != nil {
		t.Fatalf("write after reattach: %v", err)
	}
	// Non-KDD policies surface both probes as unsupported.
	wt := newDataSystem(t, WT)
	if _, err := wt.CacheHealth(); err != ErrNotKDD {
		t.Fatalf("CacheHealth on WT = %v, want ErrNotKDD", err)
	}
	if err := wt.ReattachSSD(); err != ErrNotKDD {
		t.Fatalf("ReattachSSD on WT = %v, want ErrNotKDD", err)
	}
}

func TestSystemQoSBoundary(t *testing.T) {
	sys := newDataSystem(t, KDD)
	if err := sys.SetQoS("not a spec"); err == nil {
		t.Fatal("malformed tenant spec accepted")
	}
	// abuser: 1 kIOPS with burst 1 — back-to-back requests at one
	// virtual instant are over budget immediately.
	if err := sys.SetQoS("gold:100000:4,abuser:1000:1:1"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)

	if _, err := sys.WriteTenant(0, 0, 3, page); err != nil {
		t.Fatalf("in-budget gold write: %v", err)
	}
	// Unknown tenant indices are untagged traffic: never throttled.
	if _, err := sys.WriteTenant(42, 0, 4, page); err != nil {
		t.Fatalf("untagged write: %v", err)
	}

	// Deadline enforcement runs first, at the System boundary.
	if err := sys.Advance(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReadTenant(1, 1, 3, page); !errors.Is(err, qos.ErrDeadlineExceeded) {
		t.Fatalf("past-deadline read returned %v", err)
	}

	// Flood the abuser across accounting windows: first throttled with
	// retry hints, then demoted to shedding, finally to the bypass rung.
	var sawThrottle, sawShed bool
	for w := 0; w < 8; w++ {
		for i := int64(0); i < 12; i++ {
			_, err := sys.WriteTenant(1, 0, 100+i, page)
			var rej *qos.Reject
			switch {
			case err == nil:
			case errors.As(err, &rej) && rej.Verdict == qos.VerdictThrottle:
				sawThrottle = true
				if !errors.Is(err, qos.ErrThrottled) || rej.RetryAfter <= sys.Now() {
					t.Fatalf("throttle without a usable retry hint: %v", err)
				}
			case errors.As(err, &rej) && rej.Verdict == qos.VerdictShed:
				sawShed = true
				if !errors.Is(err, qos.ErrShed) {
					t.Fatalf("shed rejection not ErrShed: %v", err)
				}
			default:
				t.Fatalf("window %d: %v", w, err)
			}
		}
		if err := sys.Advance(6 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !sawThrottle || !sawShed {
		t.Fatalf("ladder never engaged: throttle=%v shed=%v", sawThrottle, sawShed)
	}
	rung, err := sys.QoSRung(1)
	if err != nil {
		t.Fatal(err)
	}
	if rung != qos.RungBypass {
		t.Fatalf("abuser on rung %d after sustained overload, want bypass (%d)", rung, qos.RungBypass)
	}
	if _, err := sys.QoSRung(9); err == nil {
		t.Fatal("out-of-range tenant rung accepted")
	}

	// On the bypass rung an in-budget request is served around the
	// cache: reads with no fill, writes write-through.
	if _, err := sys.WriteTenant(1, 0, 200, page); err != nil {
		t.Fatalf("bypass write: %v", err)
	}
	if err := sys.Advance(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if _, err := sys.ReadTenant(1, 0, 200, got); err != nil {
		t.Fatalf("bypass read: %v", err)
	}
	cs := sys.QoSCounters()
	if len(cs) != 2 {
		t.Fatalf("got %d tenant counters, want 2", len(cs))
	}
	if cs[1].Bypassed == 0 || cs[1].Throttled == 0 || cs[1].Shed == 0 || cs[1].Deadline == 0 {
		t.Fatalf("abuser tallies missing a stage: %+v", cs[1])
	}
	if cs[0].Admitted != cs[0].Offered {
		t.Fatalf("gold tenant degraded: %+v", cs[0])
	}

	// Detaching ends admission control, not deadlines: a deadline is a
	// property of the request, enforced with or without a controller.
	if err := sys.SetQoS(""); err != nil {
		t.Fatal(err)
	}
	if sys.QoSCounters() != nil {
		t.Fatal("counters survive detach")
	}
	if _, err := sys.WriteTenant(1, 0, 5, page); err != nil {
		t.Fatalf("write without a deadline after detach: %v", err)
	}
	if _, err := sys.WriteTenant(1, 1, 5, page); !errors.Is(err, qos.ErrDeadlineExceeded) {
		t.Fatalf("past-deadline write after detach returned %v, want ErrDeadlineExceeded", err)
	}
}

// TestQoSStateSurvivesCrashAndRecover: the admission controller is host
// state, not part of the storage stack a power failure wipes — a tenant
// already demoted to the bypass rung comes back with the same tallies on
// the same rung, and its next in-budget request is still served around
// the cache.
func TestQoSStateSurvivesCrashAndRecover(t *testing.T) {
	sys := newDataSystem(t, KDD)
	if err := sys.SetQoS("gold:100000:4,abuser:1000:1:1"); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for w := 0; w < 8; w++ {
		for i := int64(0); i < 12; i++ {
			var rej *qos.Reject
			if _, err := sys.WriteTenant(1, 0, 100+i, page); err != nil && !errors.As(err, &rej) {
				t.Fatal(err)
			}
		}
		if err := sys.Advance(6 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	rung, err := sys.QoSRung(1)
	if err != nil || rung != qos.RungBypass {
		t.Fatalf("setup: abuser on rung %d (%v), want bypass", rung, err)
	}
	before := sys.QoSCounters()

	if err := sys.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}

	after := sys.QoSCounters()
	if len(after) != len(before) {
		t.Fatalf("%d tenants after recovery, %d before", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("tenant %d tallies changed across recovery: %+v, were %+v", i, after[i], before[i])
		}
	}
	if rung, err := sys.QoSRung(1); err != nil || rung != qos.RungBypass {
		t.Fatalf("abuser on rung %d (%v) after recovery, want bypass", rung, err)
	}
	allocs := sys.Stats().WriteAllocs
	if _, err := sys.WriteTenant(1, 0, 900, page); err != nil {
		t.Fatalf("in-budget write after recovery: %v", err)
	}
	if got := sys.QoSCounters()[1].Bypassed; got != before[1].Bypassed+1 {
		t.Fatalf("Bypassed = %d after recovery, want %d", got, before[1].Bypassed+1)
	}
	if sys.Stats().WriteAllocs != allocs {
		t.Fatal("bypass-rung write miss after recovery allocated a cache page")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	out, err := Experiment("table1", ExperimentEnv{Scale: 0.002, Backend: "kdd"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "Fin1") {
		t.Fatalf("table1 output malformed:\n%s", out.Text)
	}
	// One run carries both the table and, where the experiment has them,
	// the series a CSV export writes.
	noisy, err := Experiment("noisy-neighbor", ExperimentEnv{Scale: 0.002, Backend: "kdd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aggressor", "isolated", "unprotected"} {
		if !strings.Contains(noisy.Text, want) {
			t.Fatalf("noisy-neighbor output missing %q:\n%s", want, noisy.Text)
		}
	}
	if noisy.XName != "armIdx" || len(noisy.Series) == 0 {
		t.Fatalf("noisy-neighbor run has x axis %q and %d series", noisy.XName, len(noisy.Series))
	}
	if _, err := Experiment("nope", ExperimentEnv{Scale: 1}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Workloads()) != 4 {
		t.Fatal("workloads facade wrong")
	}
}

// TestExperimentRejectsBadEnv: an Env no experiment can run in is an
// ErrOptions from every registered experiment before any job starts —
// never a panic inside the pool, never a run on an unknown backend.
func TestExperimentRejectsBadEnv(t *testing.T) {
	bad := map[string]ExperimentEnv{
		"scale 0":       {Scale: 0},
		"scale -1":      {Scale: -1},
		"scale NaN":     {Scale: math.NaN()},
		"scale +Inf":    {Scale: math.Inf(1)},
		"backend bogus": {Scale: 0.001, Backend: "bogus"},
	}
	for name := range Experiments {
		for what, env := range bad {
			if _, err := Experiment(name, env); !errors.Is(err, harness.ErrOptions) {
				t.Errorf("%s with %s: err %v, want harness.ErrOptions", name, what, err)
			}
		}
	}
}
