// Command harnessbench measures the experiment harness's serial vs
// parallel wall clock, verifies the outputs are byte-identical at both
// widths (the determinism contract of the fan-out runner), and bounds
// the observability overhead of the span tracer. Each run APPENDS one
// entry to a trajectory file (BENCH_harness.json by default) so the
// perf history across PRs is reviewable in one place; CI archives it.
//
// GOMAXPROCS is raised to at least the pool width before timing: a
// parallel-vs-serial comparison on one scheduler thread measures
// nothing, and an overhead comparison starved of cores overstates the
// tracer's cost (the committed pre-fix entry shows exactly that:
// parallel=4 on gomaxprocs=1 reported a fictitious 70% overhead).
//
// With -gate the run also acts as a CI perf gate on absolute budgets: it
// fails if any experiment's parallel output diverges from serial, if
// tracing costs more than -max-ns-per-span host nanoseconds per span
// emitted, or if the noisy-neighbor experiment's victim p99 ratio exceeds
// -max-victim-ratio. Nothing is compared against earlier entries.
//
//	harnessbench -scale 0.01 -o BENCH_harness.json
//	harnessbench -scale 0.01 -o BENCH_harness.json -gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"kddcache/internal/check"
	"kddcache/internal/harness"
)

// experimentResult is one serial-vs-parallel comparison.
type experimentResult struct {
	Name        string  `json:"name"`
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"identical"`
}

// obsOverheadResult compares a traced vs untraced timing run. The gated
// number is NsPerSpan, the tracer's absolute cost: (traced - untraced) /
// spans emitted, taken at ObsScale — the experiment scale doubled until
// the untraced replay ran for minObsSec, so the difference is not a few
// milliseconds of scheduler noise. OverheadPct is recorded, not gated: it
// rises whenever the replay under the tracer gets faster.
type obsOverheadResult struct {
	UntracedSec float64 `json:"untraced_sec"`
	TracedSec   float64 `json:"traced_sec"`
	OverheadPct float64 `json:"overhead_pct"`
	ObsScale    float64 `json:"obs_scale,omitempty"`
	Spans       uint64  `json:"spans,omitempty"`
	NsPerSpan   float64 `json:"ns_per_span,omitempty"`
}

// minObsSec is how long the untraced arm of the obs comparison must run
// before its difference to the traced arm is trusted.
const minObsSec = 0.5

// noisyResult summarizes the multi-tenant QoS experiment: how far the
// victims' p99 moves when an aggressor floods at 10x its budget, with
// and without the admission controller. The protected ratio is the
// isolation gate input; it is virtual-time deterministic and needs no
// trajectory baseline.
type noisyResult struct {
	Sec              float64 `json:"sec"`
	VictimP99Ratio   float64 `json:"victim_p99_ratio"`
	UnprotectedRatio float64 `json:"unprotected_ratio"`
}

// lsraidResult summarizes the backend head-to-head: small-write mean/p99
// and member write amplification for the parity backend versus the
// log-structured backend under the same cache and trace. Virtual-time
// deterministic, so it needs no trajectory baseline.
type lsraidResult struct {
	Sec         float64 `json:"sec"`
	KddP99Ms    float64 `json:"kdd_p99_ms"`
	LsP99Ms     float64 `json:"lsraid_p99_ms"`
	KddWriteAmp float64 `json:"kdd_write_amp"`
	LsWriteAmp  float64 `json:"lsraid_write_amp"`
}

// benchEntry is one trajectory point: a full harnessbench run.
type benchEntry struct {
	Time        string             `json:"time,omitempty"`
	Scale       float64            `json:"scale"`
	Parallel    int                `json:"parallel"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Experiments []experimentResult `json:"experiments"`
	ObsOverhead *obsOverheadResult `json:"obs_overhead,omitempty"`
	Noisy       *noisyResult       `json:"noisy,omitempty"`
	LSRaid      *lsraidResult      `json:"lsraid,omitempty"`
}

// benchFile is the BENCH_harness.json schema: a perf trajectory, newest
// entry last. Entries stay raw JSON so that rewriting the file keeps every
// past entry as it was written, fields this version no longer declares
// included.
type benchFile struct {
	Entries []json.RawMessage `json:"entries"`
}

func main() {
	var (
		scale     = flag.Float64("scale", 0.01, "experiment scale factor")
		out       = flag.String("o", "BENCH_harness.json", "trajectory JSON file (appended to)")
		parallel  = flag.Int("parallel", 0, "parallel pool width to compare against serial (0 = GOMAXPROCS)")
		schedules = flag.Int("chaos-schedules", 8, "chaos schedules for the chaos comparison")
		ops       = flag.Int("chaos-ops", 300, "ops per chaos schedule")
		gate      = flag.Bool("gate", false, "fail when a measurement exceeds its absolute budget (-max-ns-per-span, -max-victim-ratio)")
		// Measured 41–72 ns per span on the 2-vCPU box (3.2 M spans over a
		// 0.63 s untraced replay at scale 0.08); the budget is twice that.
		maxSpanNs = flag.Float64("max-ns-per-span", 150, "with -gate: max allowed tracing cost, (traced - untraced) / spans emitted, in ns")
		maxVictim = flag.Float64("max-victim-ratio", 2.0, "with -gate: max allowed victim p99 ratio (protected vs isolated) from the noisy-neighbor experiment")
		keep      = flag.Int("keep", 50, "trajectory entries to retain (oldest dropped first; 0 = unlimited)")
	)
	flag.Parse()

	width := *parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	// A meaningful parallel arm needs at least `width` scheduler
	// threads; a meaningful overhead arm needs the run not to be
	// core-starved. Raise GOMAXPROCS rather than silently timing a
	// serialized "parallel" run.
	if runtime.GOMAXPROCS(0) < width {
		runtime.GOMAXPROCS(width)
	}
	entry := benchEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Scale:      *scale,
		Parallel:   width,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// The noisy-neighbor run keeps its structured result around: the
	// victim-p99 isolation ratio feeds its own trajectory section and
	// the -max-victim-ratio gate (the ratio is deterministic, so it does
	// not matter which arm's result survives).
	var noisy *harness.NoisyResult
	var noisySec float64

	runs := []struct {
		name string
		run  func(par int) (string, error)
	}{
		{"fig6", func(par int) (string, error) {
			out, err := harness.Fig6(harness.Env{Scale: *scale, Parallel: par})
			return out.Text, err
		}},
		{"fig5", func(par int) (string, error) {
			out, err := harness.Fig5(harness.Env{Scale: *scale, Parallel: par})
			return out.Text, err
		}},
		{"chaos", func(par int) (string, error) {
			r, err := check.Chaos(check.ChaosOpts{
				Schedules: *schedules, Ops: *ops, Parallel: par,
			})
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"chaos-rebuild", func(par int) (string, error) {
			r, err := check.Chaos(check.ChaosOpts{
				Schedules: *schedules, Ops: *ops, Parallel: par,
				Kind: "disk-kill,rebuild-crash,double-kill",
			})
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"rebuild-impact", func(par int) (string, error) {
			out, err := harness.RebuildImpact(harness.Env{Scale: *scale, Parallel: par})
			return out.Text, err
		}},
		{"phases", func(par int) (string, error) {
			out, err := harness.PhaseBreakdown(harness.Env{Scale: *scale, Parallel: par})
			return out.Text, err
		}},
		{"noisy", func(par int) (string, error) {
			start := time.Now()
			r, err := harness.NoisyNeighborSweep(harness.Env{Scale: *scale, Parallel: par})
			if err != nil {
				return "", err
			}
			noisy, noisySec = &r, time.Since(start).Seconds()
			return r.Table, nil
		}},
	}

	allIdentical := true
	for _, ex := range runs {
		serialOut, serialSec, err := timed(ex.run, 1)
		if err != nil {
			fatal(fmt.Errorf("%s serial: %w", ex.name, err))
		}
		parOut, parSec, err := timed(ex.run, width)
		if err != nil {
			fatal(fmt.Errorf("%s parallel: %w", ex.name, err))
		}
		r := experimentResult{
			Name:        ex.name,
			SerialSec:   serialSec,
			ParallelSec: parSec,
			Speedup:     serialSec / parSec,
			Identical:   serialOut == parOut,
		}
		allIdentical = allIdentical && r.Identical
		fmt.Printf("%-8s serial %6.2fs  parallel(%d) %6.2fs  speedup %.2fx  identical=%v\n",
			r.Name, r.SerialSec, width, r.ParallelSec, r.Speedup, r.Identical)
		entry.Experiments = append(entry.Experiments, r)
	}

	// Observability overhead: interleaved best-of-five traced vs
	// untraced timing runs. Interleaving (rather than all of one arm
	// then all of the other) keeps slow drift — page cache, thermal,
	// noisy neighbors — from landing entirely on one arm, and taking
	// the minimum of several rounds discards scheduling hiccups.
	obsScale := *scale
	for timeOverhead(obsScale, false).sec < minObsSec && obsScale < 64*(*scale) {
		obsScale *= 2
	}
	var untraced, traced obsArm
	for i := 0; i < 5; i++ {
		u := timeOverhead(obsScale, false)
		tr := timeOverhead(obsScale, true)
		if i == 0 || u.sec < untraced.sec {
			untraced = u
		}
		if i == 0 || tr.sec < traced.sec {
			traced = tr
		}
	}
	entry.ObsOverhead = &obsOverheadResult{
		UntracedSec: untraced.sec,
		TracedSec:   traced.sec,
		OverheadPct: 100 * (traced.sec - untraced.sec) / untraced.sec,
		ObsScale:    obsScale,
		Spans:       traced.spans,
		NsPerSpan:   1e9 * (traced.sec - untraced.sec) / float64(traced.spans),
	}
	fmt.Printf("obs      untraced %5.2fs  traced %5.2fs  overhead %+.1f%%  %d spans at scale %g  %.1f ns/span\n",
		untraced.sec, traced.sec, entry.ObsOverhead.OverheadPct, traced.spans, obsScale, entry.ObsOverhead.NsPerSpan)

	if noisy != nil {
		entry.Noisy = &noisyResult{
			Sec:              noisySec,
			VictimP99Ratio:   noisy.VictimP99Ratio,
			UnprotectedRatio: noisy.UnprotectedRatio,
		}
		fmt.Printf("noisy    %5.2fs  victim p99 ratio %.2fx (protected)  %.2fx (unprotected)\n",
			noisySec, noisy.VictimP99Ratio, noisy.UnprotectedRatio)
	}

	// Backend head-to-head: parity RAID vs the log-structured backend
	// on the small-write worst case.
	lsStart := time.Now()
	ls, err := harness.LSRaidCompareSweep(harness.Env{Scale: *scale, Parallel: width})
	if err != nil {
		fatal(fmt.Errorf("lsraid-compare: %w", err))
	}
	entry.LSRaid = &lsraidResult{
		Sec:         time.Since(lsStart).Seconds(),
		KddP99Ms:    ls.KddP99Ms,
		LsP99Ms:     ls.LsP99Ms,
		KddWriteAmp: ls.KddWriteAmp,
		LsWriteAmp:  ls.LsWriteAmp,
	}
	fmt.Printf("lsraid   %5.2fs  p99 %.2fms vs %.2fms (kdd vs lsraid)  write amp %.2f vs %.2f\n",
		entry.LSRaid.Sec, ls.KddP99Ms, ls.LsP99Ms, ls.KddWriteAmp, ls.LsWriteAmp)

	prev := readEntries(*out)
	var gateErrs []error
	if *gate {
		gateErrs = checkGate(entry, *maxSpanNs, *maxVictim)
	}

	raw, err := json.Marshal(entry)
	if err != nil {
		fatal(err)
	}
	all := append(prev, raw)
	if *keep > 0 && len(all) > *keep {
		all = all[len(all)-*keep:]
	}
	writeEntries(*out, all)
	fmt.Printf("wrote %s (%d entries)\n", *out, len(all))

	if !allIdentical {
		fatal(fmt.Errorf("parallel output differs from serial output"))
	}
	for _, err := range gateErrs {
		fmt.Fprintln(os.Stderr, "harnessbench: GATE:", err)
	}
	if len(gateErrs) > 0 {
		os.Exit(1)
	}
}

// obsArm is one timed run of the obs-overhead comparison.
type obsArm struct {
	sec   float64
	spans uint64 // spans emitted (0 untraced)
}

// timeOverhead runs one arm of the obs-overhead comparison.
func timeOverhead(scale float64, traced bool) obsArm {
	start := time.Now()
	spans, err := harness.ObsOverheadRun(scale, traced)
	if err != nil {
		fatal(fmt.Errorf("obs overhead (traced=%v): %w", traced, err))
	}
	return obsArm{sec: time.Since(start).Seconds(), spans: spans}
}

// readEntries loads the existing trajectory's entries, undecoded. A
// missing or unreadable file is an empty trajectory, never an error: the
// bench must be runnable from a clean checkout.
func readEntries(path string) []json.RawMessage {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	// Each entry must still decode as one, or the file is not a
	// trajectory; what is kept is the entry as written.
	var f benchFile
	err = json.Unmarshal(data, &f)
	for _, raw := range f.Entries {
		if err == nil {
			err = json.Unmarshal(raw, new(benchEntry))
		}
	}
	if err == nil && f.Entries != nil {
		return f.Entries
	}
	fmt.Fprintf(os.Stderr, "harnessbench: %s is not a trajectory file; starting fresh\n", path)
	return nil
}

func writeEntries(path string, entries []json.RawMessage) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Entries: entries}); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// checkGate applies the absolute perf-gate budgets to the fresh entry.
func checkGate(cur benchEntry, maxSpanNs, maxVictim float64) []error {
	var errs []error
	if o := cur.ObsOverhead; o != nil && o.NsPerSpan > maxSpanNs {
		errs = append(errs, fmt.Errorf("tracing costs %.1f ns per span (%d spans, %.2fs traced vs %.2fs untraced), budget %.1f ns",
			o.NsPerSpan, o.Spans, o.TracedSec, o.UntracedSec, maxSpanNs))
	}
	if n := cur.Noisy; n != nil {
		if n.VictimP99Ratio > maxVictim {
			errs = append(errs, fmt.Errorf("noisy-neighbor victim p99 ratio %.2fx exceeds the %.2fx isolation budget",
				n.VictimP99Ratio, maxVictim))
		}
		if n.UnprotectedRatio <= n.VictimP99Ratio {
			errs = append(errs, fmt.Errorf("noisy-neighbor unprotected ratio %.2fx not worse than protected %.2fx; the QoS layer bought nothing",
				n.UnprotectedRatio, n.VictimP99Ratio))
		}
	}
	return errs
}

// timed runs f at the given pool width and returns its output and seconds.
func timed(f func(par int) (string, error), par int) (string, float64, error) {
	start := time.Now()
	out, err := f(par)
	return out, time.Since(start).Seconds(), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harnessbench:", err)
	os.Exit(1)
}
