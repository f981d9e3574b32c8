// Command kddbench is the repository's benchmark. For one workload it
// builds the stack from public constructors, replays the workload untraced
// for the end-to-end metrics (--trace 0) or additionally through timing
// decorators at the layer seams for the per-layer ledger (--trace 1),
// checks the program's outputs, and prints every metric by name with its
// unit; the last line of standard output is the machine-readable result.
// See README.md for the metric glossary and the noise protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed      uint64
	size      float64 // op-count factor: 1 at --seconds 10
	reps      int     // untraced reps with --trace 0 (--trace 1 runs one fewer, then stub and traced)
	quick     bool
	traced    bool
	shards    int    // P: plane workers
	goPlane   bool   // untraced plane reps use the goroutine scheduler (tests may turn it off)
	spans     string // sampled-span JSONL path (traced runs)
	corruptAt int64  // tests: corrupt this op's read-back; -1 = never
}

// result is the machine-readable last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// planeShards is P: the largest power of two ≤ min(nproc, 4).
func planeShards() int {
	p := 1
	for p*2 <= min(runtime.NumCPU(), 4) {
		p *= 2
	}
	return p
}

// commit is the VCS revision stamped into the binary, when there is one
// (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// lanesOnly keeps the counters that are a function of per-lane operation
// order alone. Under the goroutine scheduler the lanes interleave on the
// shared metadata log, SSD and disks, so page packing in the log, FTL
// state and every virtual time vary from run to run; these do not.
func lanesOnly(c counters) counters {
	c.cache.MetaWrites, c.cache.MetaGCWrites = 0, 0
	return counters{cache: c.cache, array: c.array, hddReads: c.hddReads, hddWrites: c.hddWrites,
		members: c.members, staleRows: c.staleRows, coalesced: c.coalesced}
}

// sameSystem checks that two reps of one workload and seed ran the same
// system on the same inputs: virtual metrics, the program's counters and
// the end-state digest agree exactly.
func sameSystem(w workloadDef, cfg runConfig, a, b *rep, what string, into *rep) {
	ca, cb, va, vb := a.ctr, b.ctr, a.virt, b.virt
	if w.kind == kindPlane && cfg.goPlane {
		ca, cb, va, vb = lanesOnly(ca), lanesOnly(cb), virtual{}, virtual{}
	}
	into.check(va == vb, "%s: %s: virtual metrics differ: %+v vs %+v", w.name, what, va, vb)
	into.check(ca == cb, "%s: %s: counters differ:\n%+v\n%+v", w.name, what, ca, cb)
	into.check(a.digest == b.digest, "%s: %s: state digests differ: %#x vs %#x", w.name, what, a.digest, b.digest)
}

// ledgerChecks holds the traced rep to the program's own accounting: what
// the decorators counted at each seam must equal the public counters.
func ledgerChecks(w workloadDef, t *rep) {
	tr, c := t.tr, &t.ctr
	eq := func(what string, seam, program int64) {
		t.check(seam == program, "%s: %s: seam counted %d, program %d", w.name, what, seam, program)
	}
	meta, data := tr.agg[seamSSDMeta][mWrite].units, tr.agg[seamSSDData][mWrite].units
	eq("SSD page writes vs ssd.Stats().HostWrites", meta+data, c.flash.HostWrites)
	eq("SSD data-partition page writes vs fills+allocs+delta commits",
		data, c.cache.ReadFills+c.cache.WriteAllocs+c.cache.DeltaCommits)
	eq("SSD metadata-partition page writes vs log pages written", meta, c.log.PagesWritten)
	eq("member ops vs hdd Reads+Writes", tr.seamTotal(seamMember).calls, c.hddReads+c.hddWrites)
	if w.kind != kindPlane {
		eq("root reads vs CacheStats.Reads", tr.agg[seamRoot][mRead].calls, c.cache.Reads)
		eq("root writes vs CacheStats.Writes", tr.agg[seamRoot][mWrite].calls, c.cache.Writes)
	}
	var self int64
	for s := seam(0); s < numSeams; s++ {
		self += tr.seamTotal(s).self
	}
	eq("sum of self times vs root time", self, tr.seamTotal(seamRoot).ns)
	t.check(len(tr.stack) == 0, "%s: %d spans left open", w.name, len(tr.stack))
}

// runWorkload measures one workload and returns its result, the metric
// order to print it in, and the reps (for the environment block).
func runWorkload(w workloadDef, cfg runConfig) (result, []metricDef, []*rep, error) {
	untracedReps := cfg.reps
	if cfg.traced && untracedReps > 1 {
		untracedReps--
	}
	var untraced, all []*rep
	for i := 0; i < untracedReps; i++ {
		r, err := runRep(w, cfg, modeUntraced)
		if err != nil {
			return result{}, nil, nil, err
		}
		untraced = append(untraced, r)
	}
	all = append(all, untraced...)
	last := untraced[len(untraced)-1]
	for _, r := range untraced[:len(untraced)-1] {
		sameSystem(w, cfg, r, last, "rep vs rep", last)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if cfg.traced {
		stub, err := runRep(w, cfg, modeStub)
		if err != nil {
			return result{}, nil, nil, err
		}
		t, err := runRep(w, cfg, modeTraced)
		if err != nil {
			return result{}, nil, nil, err
		}
		all = append(all, stub, t)
		if t.failed == 0 && last.failed == 0 {
			sameSystem(w, cfg, last, t, "untraced vs traced", t)
			ledgerChecks(w, t)
		}
		if err := t.tr.writeSpans(cfg.spans); err != nil {
			return result{}, nil, nil, fmt.Errorf("write spans: %w", err)
		}
		defs, values = perLayer, perLayerValues(w, untraced, stub, t)
	} else {
		values = endToEndValues(untraced)
	}

	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, defs, all, nil
}

// report prints the environment block, every metric by name with its
// unit, and the result line.
func report(out io.Writer, w workloadDef, cfg runConfig, res result, defs []metricDef, reps []*rep) error {
	walls := make([]string, len(reps))
	for i, r := range reps {
		walls[i] = fmt.Sprintf("%.3f", r.wallS)
	}
	fmt.Fprintf(out, "# kddbench workload=%s seed=%d size=%.3g traced=%v\n", w.name, cfg.seed, cfg.size, cfg.traced)
	fmt.Fprintf(out, "# env commit=%s go=%s nproc=%d gomaxprocs=%d P=%d reps=%d rep_wall_s=[%s]\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.shards, cfg.reps,
		strings.Join(walls, " "))
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "%-34s %16.6f %s\n", "fail_share", float64(res.Failed)/float64(res.Attempted), "fraction")
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, -1)) }

// run is main with its inputs spelled out; corruptAt is the tests' way to
// make one read-back wrong (-1: never). It returns the exit code.
func run(args []string, out io.Writer, corruptAt int64) int {
	fs := flag.NewFlagSet("kddbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "derives every trace, stack and payload seed")
		seconds = fs.Float64("seconds", 10, "measured time per run on the reference box; op counts scale with it")
		traced  = fs.Int("trace", 0, "0: untraced reps, end-to-end metrics; 1: adds the stub and traced reps, per-layer metrics")
		reps    = fs.Int("reps", 5, "fresh-stack replays per run")
		quick   = fs.Bool("quick", false, "about 1 % of the op counts, no calibration spin")
		spans   = fs.String("spans", "", "sampled-span JSONL path (default .bench_build/spans-<workload>.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reps < 1 || *seconds <= 0 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "kddbench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workloadDef{w}
	}
	cfg := runConfig{seed: *seed, size: *seconds / 10, reps: *reps, quick: *quick,
		traced: *traced == 1, shards: planeShards(), goPlane: true, corruptAt: corruptAt}
	if cfg.quick {
		cfg.size = 0.01
	}
	code := 0
	for _, w := range todo {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = ".bench_build/spans-" + w.name + ".jsonl"
		}
		res, defs, all, err := runWorkload(w, cfg)
		if err == nil {
			err = report(out, w, cfg, res, defs, all)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kddbench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
