package harness

// The differential battery: the SAME seeded trace is replayed through
// two full KDD cache stacks that differ only in the array backend — the
// paper's parity RAID with delayed parity ("kdd") versus the
// log-structured backend ("lsraid") — and the two executions must be
// indistinguishable at the cache boundary: every read returns
// byte-identical data, and the cache engine's recovered-metadata digest
// matches at every flush barrier. Three trace families (uniform, SPC,
// MSR) cover all parser front ends, and the whole battery runs under
// FanOut at widths 1, 4, and 16 so the race detector sees the
// concurrent-replay shape CI uses.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// diffGeometry is deliberately small: footprint and cache sized so the
// replay exercises eviction, DEZ packing, cleaning, and (on the lsraid
// side) segment GC within a few thousand requests.
func diffStack(t *testing.T, backend string, seed uint64) *Stack {
	t.Helper()
	st, err := Build(StackOpts{
		Policy:     PolicyKDD,
		Backend:    backend,
		DataMode:   true,
		Disks:      5,
		DiskPages:  2048,
		ChunkPages: 4,
		CachePages: 512,
		Ways:       16,
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("build %s stack: %v", backend, err)
	}
	return st
}

// diffTrace materialises one family's trace. All three families derive
// from seeded Table I synthetic workloads, then round-trip through the
// family's on-disk format and parser, so the battery drives the exact
// request streams the replay tools would.
func diffTrace(t *testing.T, family string, seed uint64) *trace.Trace {
	t.Helper()
	spec := workload.Fin1.Scale(0.0006)
	spec.Seed = seed
	tr := workload.Synthesize(spec)
	switch family {
	case "uniform":
		var buf bytes.Buffer
		if err := trace.WriteUniform(&buf, tr); err != nil {
			t.Fatal(err)
		}
		out, err := trace.ParseUniform("uniform", &buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	case "spc":
		var sb strings.Builder
		for _, r := range tr.Requests {
			op := "W"
			if r.Op == trace.Read {
				op = "R"
			}
			fmt.Fprintf(&sb, "0,%d,%d,%s,%.6f\n",
				r.LBA*(blockdev.PageSize/512), int64(r.Pages)*blockdev.PageSize,
				op, r.Time.Seconds())
		}
		out, err := trace.ParseSPC("spc", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	case "msr":
		var sb strings.Builder
		for _, r := range tr.Requests {
			op := "Write"
			if r.Op == trace.Read {
				op = "Read"
			}
			// Timestamp in Windows 100ns ticks, offset and size in bytes.
			fmt.Fprintf(&sb, "%d,host,0,%s,%d,%d,0\n",
				int64(r.Time)/100, op,
				r.LBA*blockdev.PageSize, int64(r.Pages)*blockdev.PageSize)
		}
		out, err := trace.ParseMSR("msr", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	default:
		t.Fatalf("unknown family %q", family)
		return nil
	}
}

// diffPage derives the deterministic content for a write: a pure
// function of (lba, op ordinal) so both stacks are fed identical bytes.
func diffPage(lba int64, ord int) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := 0; i < len(p); i += 8 {
		v := uint64(lba)*0x9E3779B97F4A7C15 + uint64(ord)*0x2545F4914F6CDD1D + uint64(i)
		p[i] = byte(v)
		p[i+1] = byte(v >> 8)
		p[i+2] = byte(v >> 16)
		p[i+3] = byte(v >> 24)
	}
	return p
}

// runDifferential replays one family through a kdd and an lsraid stack
// in lockstep and fails on the first observable divergence.
func runDifferential(t *testing.T, family string, seed uint64) {
	kdd := diffStack(t, "kdd", seed)
	ls := diffStack(t, "lsraid", seed)
	if kp, lp := kdd.Array.Pages(), ls.Array.Pages(); kp != lp {
		t.Fatalf("logical capacity mismatch: kdd %d vs lsraid %d", kp, lp)
	}
	tr := diffTrace(t, family, seed)
	logical := kdd.Array.Pages()
	kcore, ok := kdd.Policy.(*core.KDD)
	if !ok {
		t.Fatalf("kdd stack policy is %T", kdd.Policy)
	}
	lcore, ok := ls.Policy.(*core.KDD)
	if !ok {
		t.Fatalf("lsraid stack policy is %T", ls.Policy)
	}
	kbuf := make([]byte, blockdev.PageSize)
	lbuf := make([]byte, blockdev.PageSize)
	ord, reads, flushes := 0, 0, 0
	for i, r := range tr.Requests {
		for p := int64(0); p < int64(r.Pages); p++ {
			lba := (r.LBA + p) % logical
			ord++
			if r.Op == trace.Write {
				data := diffPage(lba, ord)
				if _, err := kdd.Policy.Write(r.Time, lba, data); err != nil {
					t.Fatalf("%s op %d: kdd write %d: %v", family, i, lba, err)
				}
				if _, err := ls.Policy.Write(r.Time, lba, data); err != nil {
					t.Fatalf("%s op %d: lsraid write %d: %v", family, i, lba, err)
				}
			} else {
				if _, err := kdd.Policy.Read(r.Time, lba, kbuf); err != nil {
					t.Fatalf("%s op %d: kdd read %d: %v", family, i, lba, err)
				}
				if _, err := ls.Policy.Read(r.Time, lba, lbuf); err != nil {
					t.Fatalf("%s op %d: lsraid read %d: %v", family, i, lba, err)
				}
				if !bytes.Equal(kbuf, lbuf) {
					t.Fatalf("%s op %d: read %d diverged between backends", family, i, lba)
				}
				reads++
			}
		}
		// Flush barrier every 500 requests: drain ALL delayed state on
		// both sides and compare the engines' recovered-metadata digests.
		if i%500 == 499 {
			if _, err := kdd.Policy.Flush(r.Time); err != nil {
				t.Fatalf("%s op %d: kdd flush: %v", family, i, err)
			}
			if _, err := ls.Policy.Flush(r.Time); err != nil {
				t.Fatalf("%s op %d: lsraid flush: %v", family, i, err)
			}
			if kd, ld := kcore.StateDigest(), lcore.StateDigest(); kd != ld {
				t.Fatalf("%s op %d: state digest diverged at flush barrier: %016x vs %016x", family, i, kd, ld)
			}
			if n := kdd.Array.StaleRows(); n != 0 {
				t.Fatalf("%s op %d: kdd has %d stale rows after flush", family, i, n)
			}
			if n := ls.Array.StaleRows(); n != 0 {
				t.Fatalf("%s op %d: lsraid has %d stale rows after flush", family, i, n)
			}
			flushes++
		}
	}
	if reads == 0 || flushes == 0 {
		t.Fatalf("%s: battery too small: %d reads, %d flush barriers", family, reads, flushes)
	}
	// Final barrier plus a full-footprint sweep through the cache.
	if _, err := kdd.Policy.Flush(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Policy.Flush(0); err != nil {
		t.Fatal(err)
	}
	if kd, ld := kcore.StateDigest(), lcore.StateDigest(); kd != ld {
		t.Fatalf("%s: final state digest diverged: %016x vs %016x", family, kd, ld)
	}
	maxLBA := tr.MaxLBA()
	if maxLBA >= logical {
		maxLBA = logical - 1
	}
	for lba := int64(0); lba <= maxLBA; lba++ {
		if _, err := kdd.Policy.Read(0, lba, kbuf); err != nil {
			t.Fatalf("%s sweep: kdd read %d: %v", family, lba, err)
		}
		if _, err := ls.Policy.Read(0, lba, lbuf); err != nil {
			t.Fatalf("%s sweep: lsraid read %d: %v", family, lba, err)
		}
		if !bytes.Equal(kbuf, lbuf) {
			t.Fatalf("%s sweep: lba %d diverged", family, lba)
		}
	}
}

// TestDifferentialBackends runs the three-family battery at FanOut
// widths 1, 4, and 16. Each job is self-contained (its own pair of
// stacks), so any width must produce the same verdict; 16 exceeds the
// job count, exercising the pool's saturation path under -race.
func TestDifferentialBackends(t *testing.T) {
	families := []string{"uniform", "spc", "msr"}
	seeds := []uint64{11, 23}
	type job struct {
		family string
		seed   uint64
	}
	var jobs []job
	for _, f := range families {
		for _, s := range seeds {
			jobs = append(jobs, job{f, s})
		}
	}
	for _, width := range []int{1, 4, 16} {
		width := width
		t.Run(fmt.Sprintf("parallel%d", width), func(t *testing.T) {
			if testing.Short() && width == 4 {
				t.Skip("short mode: widths 1 and 16 bracket the pool shapes")
			}
			_, err := FanOut(width, len(jobs), func(i int) (struct{}, error) {
				runDifferential(t, jobs[i].family, jobs[i].seed)
				return struct{}{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
