package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kddcache/internal/obs"
	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// tinyTracedStack replays a small fixed mixed workload through a traced
// KDD timing stack. Everything about it is deterministic (arithmetic
// LBA sequence, fixed seed), so its trace and metrics bytes can be
// pinned by golden files.
func tinyTracedStack(t *testing.T) (*Stack, *obs.Obs) {
	t.Helper()
	ob := obs.New()
	st, err := Build(StackOpts{
		Policy: PolicyKDD, DeltaMean: 0.25,
		CachePages: 512, DiskPages: 65536, Timing: true, Seed: 7,
		Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "tiny"}
	at := sim.Time(0)
	for i := 0; i < 240; i++ {
		op := trace.Write
		if i%3 == 0 {
			op = trace.Read
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Time: at, Op: op, LBA: int64((i * 61 % 500) * 8), Pages: int32(1 + i%4),
		})
		at += sim.Millisecond / 2
	}
	r, err := RunTrace(st, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Policy.Flush(r.Duration); err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(ob.Tracer); err != nil {
		t.Fatal(err)
	}
	return st, ob
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/harness -run Golden -update` to create it", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs from golden at line %d:\n got: %s\nwant: %s\n(run with -update to regenerate)",
					name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs from golden in length: got %d bytes, want %d (run with -update to regenerate)",
			name, len(got), len(want))
	}
}

// TestObsGoldenArtifacts pins the exact JSONL trace and Prometheus text
// of the tiny traced run, as ExportObs writes them for kddsim (untimed
// and -timed) — the wire formats are part of the contract.
func TestObsGoldenArtifacts(t *testing.T) {
	st, _ := tinyTracedStack(t)
	dir := t.TempDir()
	tracePath, promPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom")
	if err := st.ExportObs(tracePath, promPath, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, golden string }{
		{tracePath, "tiny.golden.jsonl"}, {promPath, "tiny.golden.prom"},
	} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, f.golden, got)
	}
}

// TestTraceProperties checks structural invariants over every span of a
// real decoded trace: IDs unique and increasing in emit order, parents
// emitted before children within the same tree, Req naming the tree's
// root, root begins non-decreasing across trees, and End never before
// Begin.
func TestTraceProperties(t *testing.T) {
	_, ob := tinyTracedStack(t)
	recs, err := obs.ReadTrace(bytes.NewReader(ob.TraceJSONL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	seen := make(map[uint64]bool, len(recs))
	inTree := make(map[uint64]obs.Record) // id -> record, current tree only
	var root obs.Record
	var lastRootBegin sim.Time
	var lastID uint64
	for i, r := range recs {
		if seen[r.ID] {
			t.Fatalf("record %d: duplicate id %d", i, r.ID)
		}
		seen[r.ID] = true
		if r.ID <= lastID {
			t.Fatalf("record %d: id %d not increasing (prev %d)", i, r.ID, lastID)
		}
		lastID = r.ID
		if r.End < r.Begin {
			t.Fatalf("record %d (id %d, %s): End %d < Begin %d", i, r.ID, r.Phase, r.End, r.Begin)
		}
		if r.Parent == 0 {
			if r.Req != r.ID {
				t.Fatalf("root %d: Req = %d, want own id", r.ID, r.Req)
			}
			if r.Begin < lastRootBegin {
				t.Fatalf("root %d begins at %d, before previous root at %d", r.ID, r.Begin, lastRootBegin)
			}
			lastRootBegin = r.Begin
			root = r
			inTree = map[uint64]obs.Record{r.ID: r}
			continue
		}
		if r.Req != root.ID {
			t.Fatalf("span %d: Req = %d, want enclosing root %d", r.ID, r.Req, root.ID)
		}
		par, ok := inTree[r.Parent]
		if !ok {
			t.Fatalf("span %d: parent %d not emitted earlier in its tree", r.ID, r.Parent)
		}
		if r.Begin < par.Begin {
			t.Fatalf("span %d begins at %d, before its parent %d at %d", r.ID, r.Begin, par.ID, par.Begin)
		}
		inTree[r.ID] = r
	}
	// The run must have produced all three root kinds.
	roots := map[string]bool{}
	for _, r := range recs {
		if r.Parent == 0 {
			roots[r.Phase.String()] = true
		}
	}
	for _, want := range []string{"read", "write", "flush"} {
		if !roots[want] {
			t.Errorf("no %q root span in trace (roots seen: %v)", want, roots)
		}
	}
}

// TestPhaseArtifactsDeterministic is the observability determinism
// contract: the phases experiment's trace and metrics bytes must be
// identical at any worker-pool width and across same-seed reruns.
func TestPhaseArtifactsDeterministic(t *testing.T) {
	t.Parallel()
	const scale = 0.0005

	tr1, pm1, err := PhaseArtifacts(Env{Scale: scale, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr1) == 0 || len(pm1) == 0 {
		t.Fatalf("empty artifacts: trace=%d prom=%d bytes", len(tr1), len(pm1))
	}
	for _, w := range []int{4, 16} {
		trw, pmw, err := PhaseArtifacts(Env{Scale: scale, Parallel: w})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr1, trw) {
			t.Fatalf("trace bytes differ between -parallel 1 and %d", w)
		}
		if !bytes.Equal(pm1, pmw) {
			t.Fatalf("metrics bytes differ between -parallel 1 and %d", w)
		}
	}
	tr2, pm2, err := PhaseArtifacts(Env{Scale: scale, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1, tr2) || !bytes.Equal(pm1, pm2) {
		t.Fatal("same-seed rerun produced different artifact bytes")
	}
}

// TestPhaseBreakdownRenders sanity-checks the human-readable table.
func TestPhaseBreakdownRenders(t *testing.T) {
	out, err := PhaseBreakdown(Env{Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fin1", "all workloads", "raid_write", "share"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("phase table missing %q:\n%s", want, out.Text)
		}
	}
}
