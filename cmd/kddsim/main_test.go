package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"kddcache/internal/harness"
	"kddcache/internal/workload"
)

// runOK runs kddsim and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("kddsim %s: exit %d, stderr %q", strings.Join(args, " "), code, errb.String())
	}
	return out.String()
}

var meanRe = regexp.MustCompile(`(?m)^response    : mean ([0-9.]+) ms`)

// meanMs returns the printed mean response time, as printed.
func meanMs(t *testing.T, out string) string {
	t.Helper()
	m := meanRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no response line in:\n%s", out)
	}
	return m[1]
}

// kddSeries returns the KDD curve of a figure on the kdd backend.
func kddSeries(t *testing.T, fig func(harness.Env) (harness.Output, error), scale float64) []float64 {
	t.Helper()
	out, err := fig(harness.Env{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range out.Series {
		if s.Label == "KDD" {
			return s.Y
		}
	}
	t.Fatal("no KDD series")
	return nil
}

// TestEmitTracePinned: -emit-trace writes the synthesized workload byte
// for byte as the uniform trace the figures replay, pinned by hash.
func TestEmitTracePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hm0.trace")
	runOK(t, "-workload", "Hm0", "-scale", "0.002", "-emit-trace", path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0c9bae20943257900262717e3dc5868196c36d72864fd255b9791d2a6ac9ba84"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Fatalf("emitted trace sha256 %s, want %s", got, want)
	}
}

// TestTimedIsFig9Cell: -timed builds Fig. 9's cell, so its KDD mean
// equals the figure's for every Table I workload.
func TestTimedIsFig9Cell(t *testing.T) {
	const scale = 0.002
	want := kddSeries(t, harness.Fig9, scale)
	for i, spec := range workload.TableI() {
		out := runOK(t, "-timed", "-workload", spec.Name, "-cachefrac", "0.25", "-scale", fmt.Sprint(scale))
		if got := meanMs(t, out); got != fmt.Sprintf("%.3f", want[i]) {
			t.Errorf("%s: -timed mean %s ms, Fig. 9 cell %.3f ms", spec.Name, got, want[i])
		}
	}
}

// TestClosedLoopIsFig10Cell: -closed-loop runs Fig. 10's cell at every
// read rate of the sweep.
func TestClosedLoopIsFig10Cell(t *testing.T) {
	const scale = 0.02
	want := kddSeries(t, harness.Fig10, scale)
	for i, rr := range []string{"0", "0.25", "0.5", "0.75"} {
		out := runOK(t, "-closed-loop", "-readrate", rr, "-scale", fmt.Sprint(scale))
		if got := meanMs(t, out); got != fmt.Sprintf("%.3f", want[i]) {
			t.Errorf("read rate %s: -closed-loop mean %s ms, Fig. 10 cell %.3f ms", rr, got, want[i])
		}
	}
	// -locality reaches the closed loop's KDD codec.
	at50 := meanMs(t, runOK(t, "-closed-loop", "-locality", "0.5", "-scale", fmt.Sprint(scale)))
	if at50 == fmt.Sprintf("%.3f", want[1]) {
		t.Errorf("-closed-loop -locality 0.5 mean %s ms, same as at 0.25", at50)
	}
}

// TestUsageErrors: every option no run can be built from exits 2 with a
// one-line diagnostic, and none of them panics.
func TestUsageErrors(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.trace")
	runOK(t, "-workload", "Fin2", "-scale", "0.001", "-emit-trace", trace)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale must be > 0"},
		{[]string{"-scale", "-1", "-experiment", "fig9"}, "-scale must be > 0"},
		{[]string{"-locality", "1.5"}, "delta mean 1.5 outside (0,1]"},
		{[]string{"-locality", "-0.1", "-timed"}, "delta mean -0.1 outside (0,1]"},
		{[]string{"-closed-loop", "-locality", "1.5"}, "delta mean 1.5 outside (0,1]"},
		{[]string{"-closed-loop", "-readrate", "2"}, "-readrate must be in [0,1]"},
		{[]string{"-closed-loop", "-readrate", "-0.5"}, "-readrate must be in [0,1]"},
		{[]string{"-readrate", "0.5"}, "-readrate needs -closed-loop"},
		{[]string{"-closed-loop", "-workload", "Hm0"}, "-workload does not apply to -closed-loop"},
		{[]string{"-timed", "-closed-loop"}, "-timed does not apply to -closed-loop"},
		{[]string{"-experiment", "fig9", "-timed"}, "-timed does not apply to -experiment"},
		{[]string{"-experiment", "fig9", "-workload", "Hm0"}, "-workload does not apply to -experiment"},
		{[]string{"-emit-trace", trace, "-policy", "WT"}, "-policy does not apply to -emit-trace"},
		{[]string{"-emit-trace", trace, "-kill-ssd-at", "5"}, "-kill-ssd-at does not apply to -emit-trace"},
		{[]string{"-list", "-backend", "lsraid"}, "-backend does not apply to -list"},
		{[]string{"-parallel", "2"}, "-parallel does not apply to a single run"},
		{[]string{"-replay", trace, "-workload", "Hm0"}, "-workload does not apply to -replay"},
		{[]string{"-replay", trace, "-scale", "0.1"}, "-scale does not apply to -replay"},
		{[]string{"-format", "spc"}, "-format needs -replay"},
		{[]string{"-deadline-ms", "2"}, "-deadline-ms needs -tenants"},
		{[]string{"-csv", "out.csv"}, "-csv needs -experiment"},
		{[]string{"-experiment", "fig99"}, `unknown experiment "fig99"`},
		{[]string{"-backend", "raid7"}, `unknown backend "raid7"`},
		{[]string{"-experiment", "table1", "-backend", "raid7"}, `unknown backend "raid7"`},
		{[]string{"-workload", "Fin3"}, `unknown workload "Fin3"`},
		{[]string{"-replay", trace, "-format", "csv"}, `unknown -format "csv"`},
		{[]string{"-policy", "LRU"}, `unknown policy "LRU"`},
		{[]string{"-closed-loop", "-policy", "LRU"}, `unknown policy "LRU"`},
		{[]string{"-policy", "PLog", "-backend", "lsraid"}, "the lsraid backend owes no parity for PLog to log"},
		{[]string{"-tenants", "gold"}, "qos:"},
		{[]string{"-scale", "0.001", "-tenants", "gold:2000:4,bronze:500:1"}, `tenant "bronze" (index 1) tags no request`},
		{[]string{"fig9"}, `unexpected argument "fig9"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		// The temp dir differs per run; name the trace by its base so the
		// subtest names stay the same from run to run.
		name := strings.ReplaceAll(strings.Join(tc.args, " "), trace, filepath.Base(trace))
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb)
			if code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and %q", code, out.String(), errb.String(), tc.want)
			}
			if tc.want != "flag provided but not defined" && strings.Count(errb.String(), "\n") != 1 {
				t.Fatalf("diagnostic is not one line: %q", errb.String())
			}
		})
	}
}

// TestFaultFlagError: a fault flag that fails mid-replay is the error
// reported, ahead of the replay failure it leads to, and the run exits 1.
// WT cannot re-attach, and its replay then fails on the killed SSD.
func TestFaultFlagError(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-policy", "WT", "-scale", "0.001", "-kill-ssd-at", "5", "-reattach-at", "5"}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "reattach requires the KDD policy") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and the reattach error", code, errb.String())
	}
}
