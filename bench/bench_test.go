package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/trace"
)

// quickConfig is `-quick -trace 1` with two reps: one untraced, the stub
// and the traced one.
func quickConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, size: 0.01, reps: 2, quick: true, traced: true,
		shards: planeShards(), goPlane: true, corruptAt: -1,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
}

func mustRun(t *testing.T, w workloadDef, cfg runConfig) (result, []*rep) {
	t.Helper()
	res, _, reps, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d checks and ops failed", w.name, res.Failed, res.Attempted)
	}
	return res, reps
}

// TestQuickRunsRepeat runs every workload twice, traced. Each run already
// holds its traced (decorated, hand-assembled) stack to its untraced
// (harness.Build) one — equal virtual metrics, counters and StateDigest —
// and the seam counts to the program's counters; this adds that two runs
// of one seed agree exactly, and that the accounting identities hold.
func TestQuickRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := quickConfig(t)
			first, a := mustRun(t, w, cfg)
			_, b := mustRun(t, w, cfg)
			var diff rep
			sameSystem(w, cfg, a[0], b[0], "run vs run, untraced", &diff)
			cfg.goPlane = false // the traced reps are deterministic on every workload
			sameSystem(w, cfg, a[len(a)-1], b[len(b)-1], "run vs run, traced", &diff)
			if diff.failed != 0 {
				t.Fatalf("two runs of seed %d disagree", cfg.seed)
			}

			var shares float64
			for name, m := range first.Metrics {
				if strings.HasSuffix(name, ".self_share") {
					shares += m.Value
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("self shares sum to %v, want 1", shares)
			}
			if len(first.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, %d defined", len(first.Metrics), len(perLayer))
			}
			checkSpanTrees(t, a[len(a)-1].tr.spans)
			if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
				t.Errorf("sampled spans not written: %v", err)
			}
		})
	}
}

// checkSpanTrees verifies every sampled request tree: children nest inside
// their parent, siblings do not overlap, and self times sum to the root's
// duration.
func checkSpanTrees(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans sampled")
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if p.Req != s.Req || s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d [%d,%d] escapes parent %d [%d,%d]", s.ID, s.Start, s.End, p.ID, p.Start, p.End)
			}
			if sib := children[s.Parent]; len(sib) > 0 && s.Start < sib[len(sib)-1].End {
				t.Fatalf("span %d overlaps its sibling %d", s.ID, sib[len(sib)-1].ID)
			}
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	var self func(s span) int64
	self = func(s span) int64 {
		own := s.End - s.Start
		var below int64
		for _, c := range children[s.ID] {
			own -= c.End - c.Start
			below += self(c)
		}
		if own < 0 {
			t.Fatalf("span %d has negative self time", s.ID)
		}
		return own + below
	}
	for _, root := range children[-1] {
		if got := self(root); got != root.End-root.Start {
			t.Fatalf("request %d: self times sum to %d, root lasted %d", root.Req, got, root.End-root.Start)
		}
	}
}

// TestDeterministicPlaneMatchesTraced closes the gap the goroutine
// scheduler leaves: with the untraced plane on the deterministic scheduler
// too, the decorated stack must match it on every counter and virtual
// metric, not just the lane-local ones.
func TestDeterministicPlaneMatchesTraced(t *testing.T) {
	w, _ := findWorkload("zipf_plane_fit")
	cfg := quickConfig(t)
	cfg.goPlane = false
	mustRun(t, w, cfg)
}

// TestFin1ArmsAgree: everything above the Array seam is the same system on
// the two Fin1 workloads.
func TestFin1ArmsAgree(t *testing.T) {
	cfg := quickConfig(t)
	cfg.traced = false
	var got [2]result
	for i, name := range []string{"fin1_raid", "fin1_lsraid"} {
		w, _ := findWorkload(name)
		got[i], _ = mustRun(t, w, cfg)
	}
	for _, m := range []string{"hit_ratio", "ssd_write_pages_per_kop"} {
		if a, b := got[0].Metrics[m].Value, got[1].Metrics[m].Value; a != b || a == 0 {
			t.Errorf("%s: fin1_raid %v, fin1_lsraid %v", m, a, b)
		}
	}
}

// TestCorruptReadBackFails corrupts one read-back on each data workload:
// the run must count it, print correct=false and exit non-zero.
func TestCorruptReadBackFails(t *testing.T) {
	for _, name := range []string{"zipf_lsraid_data", "zipf_plane_fit"} {
		w, _ := findWorkload(name)
		var at int64 = -1
		for i, q := range w.synthesize(0.01, 1).Requests {
			if q.Op == trace.Read && i > 100 {
				at = int64(i)
				break
			}
		}
		args := []string{"-quick", "-reps", "1", "-workload", name}
		var out bytes.Buffer
		if code := run(args, &out, at); code != 1 {
			t.Errorf("%s: exit code %d with a corrupted read-back, want 1", name, code)
		}
		if res := lastLine(t, &out); res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		out.Reset()
		if code := run(args, &out, -1); code != 0 {
			t.Errorf("%s: exit code %d on a clean run", name, code)
		}
		if res := lastLine(t, &out); !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: clean run reported %+v", name, res)
		}
	}
}

// lastLine parses the result line, refusing keys the contract does not
// name.
func lastLine(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

// TestDecoratorsForwardOptionalInterfaces: core, metalog, raid and lsraid
// sniff devices for Store() and TrimPages; a decorator that hid them would
// silently change the system under test.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(1)
	data := traceSSD(blockdev.NewFaultInjector(blockdev.NewNullDataDevice("d", 16), 1), tr, 4)
	if data.Store() == nil {
		t.Error("decorator hides a data-mode device's store")
	}
	if traceMember(blockdev.NewNullDevice("t", 16), tr).Store() != nil {
		t.Error("decorator invents a store on a timing-mode device")
	}
	page := bytes.Repeat([]byte{7}, pageSize)
	if _, err := data.WritePages(0, 9, 1, page); err != nil {
		t.Fatal(err)
	}
	if _, err := data.TrimPages(0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := data.ReadPages(0, 9, 1, page); err != nil || page[0] != 0 {
		t.Errorf("trim not forwarded: read %d after trim, err %v", page[0], err)
	}
	if got := tr.agg[seamSSDData][mTrim].calls; got != 1 {
		t.Errorf("trim counted %d times on the data partition", got)
	}
	if _, err := data.WritePages(0, 1, 1, page); err != nil || tr.agg[seamSSDMeta][mWrite].units != 1 {
		t.Errorf("metadata-partition write not split out: %v", err)
	}
}

// TestManifest keeps BENCHMARK.json and the program in step.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d + %d metrics, program %d + %d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := m.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %d: manifest %+v, program %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := m.PerLayer[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per_layer %d: manifest %+v, program %+v", i, e, d)
		}
	}
}
