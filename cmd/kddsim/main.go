// Command kddsim is the simulator's one front door. A single run builds
// exactly the stack of one figure cell, through the same harness calls
// the figures make:
//
//   - by default, a Figs. 5–8 cell (§IV-A): the workload through a chosen
//     caching policy over a null-latency RAID-5, reporting hit ratios and
//     SSD write traffic;
//   - with -timed, a Fig. 9 cell (§IV-B2): the same geometry on the HDD
//     and flash timing models, replayed open-loop at the workload's
//     ReplayIOPS rate, reporting response times;
//   - with -closed-loop, a Figs. 10/11 cell (§IV-B3): the FIO-style
//     Zipfian benchmark at -readrate on 16 back-to-back threads.
//
// A run that kills or replaces a member takes the rebuild-impact cell's
// wider members. -experiment regenerates a whole figure or table, and
// -emit-trace writes the workload (or the -replay file, in any format)
// as a uniform-format trace and exits. Options no run can be built
// from, and any flag the chosen mode does not read, are a one-line usage
// error, exit 2; a failed run exits 1.
//
// Examples:
//
//	kddsim -experiment fig6 -scale 0.02
//	kddsim -workload Fin1 -policy KDD -locality 0.25 -cachefrac 0.2
//	kddsim -replay mytrace.csv -format spc -policy WT -cachepages 262144
//	kddsim -workload Fin1 -trace out.jsonl -metrics out.prom
//	kddsim -timed -workload Fin1 -cachefrac 0.25 -scale 0.002
//	kddsim -closed-loop -policy KDD -readrate 0.25 -scale 0.05
//	kddsim -workload Hm0 -scale 0.01 -emit-trace hm0.trace
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"kddcache/internal/harness"
	"kddcache/internal/obs"
	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"

	kddcache "kddcache"
)

// options holds the parsed flags.
type options struct {
	experiment, wl, policy, replay, format, traceOut, promOut string
	csvOut, tenants, backend, emit                            string
	scale, locality, cacheFrac, metaFrac, deadlineMs          float64
	readRate                                                  float64
	cachePages                                                int64
	list, timed, closedLoop                                   bool
	parallel, killAt, reattachAt, killDiskAt, replaceAt       int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError is an option no run can be built from: exit 2.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("kddsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.experiment, "experiment", "", "regenerate a paper experiment: table1,fig4..fig11,table2,ablation-*,lifetime (empty: single run)")
	fs.Float64Var(&o.scale, "scale", 0.02, "experiment scale factor (1.0 = paper-sized)")
	fs.StringVar(&o.wl, "workload", "Fin1", "synthetic workload: Fin1,Fin2,Hm0,Web0")
	fs.StringVar(&o.policy, "policy", "KDD", "policy: Nossd,WT,WA,LeavO,KDD,WB,NVB,PLog")
	fs.Float64Var(&o.locality, "locality", 0.25, "KDD mean delta compression ratio (content locality), in (0,1]")
	fs.Float64Var(&o.cacheFrac, "cachefrac", 0.2, "cache size as a fraction of the workload footprint")
	fs.Int64Var(&o.cachePages, "cachepages", 0, "explicit cache size in 4KB pages (overrides -cachefrac)")
	fs.Float64Var(&o.metaFrac, "metafrac", 0.0059, "metadata partition share of the SSD")
	fs.StringVar(&o.replay, "replay", "", "replay a trace file instead of a synthetic workload")
	fs.StringVar(&o.format, "format", "uniform", "trace format: uniform,spc,msr")
	fs.StringVar(&o.traceOut, "trace", "", "write the request-span trace as JSONL to this file (single-run mode)")
	fs.StringVar(&o.promOut, "metrics", "", "write a Prometheus text metrics snapshot to this file (single-run mode)")
	fs.BoolVar(&o.list, "list", false, "list available experiments and exit")
	fs.StringVar(&o.csvOut, "csv", "", "with -experiment fig4/9/10/11: also write the series as CSV to this file")
	fs.IntVar(&o.parallel, "parallel", 0, "worker-pool width for experiment simulations; output is identical at any width (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&o.killAt, "kill-ssd-at", -1, "fail-stop the cache SSD before request #N; KDD folds parity and continues in pass-through (-1 = never)")
	fs.IntVar(&o.reattachAt, "reattach-at", -1, "repair and re-attach a fresh cache SSD before request #N, KDD only (-1 = never)")
	fs.IntVar(&o.killDiskAt, "kill-disk-at", -1, "fail-stop RAID member 2 before request #N (-1 = never)")
	fs.IntVar(&o.replaceAt, "replace-disk-at", -1, "provide a fresh replacement member before request #N: KDD parks it as a hot spare and paces the rebuild online; other policies rebuild blocking (-1 = never)")
	fs.StringVar(&o.tenants, "tenants", "", "QoS tenant budgets as name:rate:weight[:burst],... (e.g. \"a:100:2,b:50:1\"); gates the single-run replay through the admission controller")
	fs.Float64Var(&o.deadlineMs, "deadline-ms", 0, "with -tenants: per-request deadline margin in virtual ms (0 = no deadlines)")
	fs.StringVar(&o.backend, "backend", "kdd", "array backend under the cache: kdd (parity RAID + delayed parity) or lsraid (log-structured, full-stripe appends)")
	fs.BoolVar(&o.timed, "timed", false, "single run on the timing stack (the Fig. 9 cell): HDD and flash models, open-loop replay at the workload's replay rate")
	fs.BoolVar(&o.closedLoop, "closed-loop", false, "run the FIO-style closed-loop benchmark (the Fig. 10/11 cell) instead of a trace")
	fs.Float64Var(&o.readRate, "readrate", 0.25, "with -closed-loop: fraction of reads in [0,1]")
	fs.StringVar(&o.emit, "emit-trace", "", "write the workload (or the -replay file) to this file as a uniform-format trace and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	err := o.validate(set, fs.Args())
	if err == nil {
		err = o.run(stdout, stderr)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "kddsim:", err)
	if errors.As(err, new(usageError)) || errors.Is(err, harness.ErrOptions) {
		return 2
	}
	return 1
}

// reads lists the flags each mode reads, by the mode's own flag (""
// is a single trace run); setting any other flag is a usage error.
var reads = map[string][]string{
	"list":        {"list"},
	"experiment":  {"experiment", "scale", "csv", "parallel", "backend"},
	"closed-loop": {"closed-loop", "readrate", "policy", "locality", "scale", "backend"},
	"emit-trace":  {"emit-trace", "workload", "scale", "replay", "format", "timed"},
	"": {"workload", "scale", "replay", "format", "timed", "policy", "locality", "cachefrac", "cachepages",
		"metafrac", "backend", "trace", "metrics", "tenants", "deadline-ms",
		"kill-ssd-at", "reattach-at", "kill-disk-at", "replace-disk-at"},
}

// needs names, for a flag read only alongside another, that other flag.
var needs = map[string]string{"readrate": "closed-loop", "csv": "experiment", "format": "replay", "deadline-ms": "tenants"}

// mode returns the mode the options select: the flag that chose it, or
// "" for a single trace run.
func (o *options) mode() string {
	switch {
	case o.list:
		return "list"
	case o.experiment != "":
		return "experiment"
	case o.closedLoop:
		return "closed-loop"
	case o.emit != "":
		return "emit-trace"
	}
	return ""
}

// validate checks the options; names are the flags set.
func (o *options) validate(names, rest []string) error {
	if len(rest) > 0 {
		return usagef("unexpected argument %q", rest[0])
	}
	set := map[string]bool{}
	for _, name := range names {
		set[name] = true
	}
	mode := o.mode()
	for _, name := range names {
		switch {
		case needs[name] != "" && !set[needs[name]]:
			return usagef("-%s needs -%s", name, needs[name])
		case !slices.Contains(reads[mode], name) && mode == "":
			return usagef("-%s does not apply to a single run", name)
		case !slices.Contains(reads[mode], name):
			return usagef("-%s does not apply to -%s", name, mode)
		case o.replay != "" && (name == "workload" || name == "scale"):
			return usagef("-%s does not apply to -replay", name)
		}
	}
	switch {
	case !(o.scale > 0):
		return usagef("-scale must be > 0, got %g", o.scale)
	case !(o.readRate >= 0 && o.readRate <= 1):
		return usagef("-readrate must be in [0,1], got %g", o.readRate)
	case o.experiment != "" && kddcache.Experiments[o.experiment] == nil:
		return usagef("unknown experiment %q (see -list)", o.experiment)
	}
	return nil
}

func (o *options) run(stdout, stderr io.Writer) error {
	switch o.mode() {
	case "list":
		var names []string
		for n := range kddcache.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		return nil
	case "experiment":
		return o.runExperiment(stdout, stderr)
	case "closed-loop":
		return o.runClosedLoop(stdout)
	}
	spec, tr, err := o.loadWorkload()
	if err != nil {
		return err
	}
	if o.emit != "" {
		return writeFile(o.emit, fmt.Sprintf("%d requests", len(tr.Requests)), stderr, func(w io.Writer) error {
			return trace.WriteUniform(w, tr)
		})
	}
	return o.runTrace(spec, tr, stdout, stderr)
}

func (o *options) runExperiment(stdout, stderr io.Writer) error {
	res, err := kddcache.Experiment(o.experiment, kddcache.ExperimentEnv{Scale: o.scale, Backend: o.backend, Parallel: o.parallel})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Text)
	if o.csvOut == "" {
		return nil
	}
	if res.XName == "" {
		return usagef("experiment %q has no series form for CSV export", o.experiment)
	}
	return writeFile(o.csvOut, "series CSV", stderr, func(w io.Writer) error {
		return stats.WriteCSV(w, res.XName, res.Series)
	})
}

// writeFile writes path through write, then reports what it wrote on
// stderr.
func writeFile(path, what string, stderr io.Writer, write func(io.Writer) error) error {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s to %s\n", what, path)
	return nil
}

// runClosedLoop runs one Fig. 10/11 cell.
func (o *options) runClosedLoop(w io.Writer) error {
	r, err := harness.RunFIO(harness.StackOpts{
		Policy: harness.PolicyKind(o.policy), Backend: o.backend, DeltaMean: o.locality,
	}, o.readRate, o.scale)
	if err != nil {
		return err
	}
	c := r.Cache
	fmt.Fprintf(w, "policy      : %s\n", r.Policy)
	fmt.Fprintf(w, "workload    : FIO closed loop, %.0f%% reads (%d requests)\n", o.readRate*100, r.Latency.Count())
	fmt.Fprintf(w, "hit ratio   : %.4f (read %.4f)\n", c.HitRatio(), c.ReadHitRatio())
	fmt.Fprintf(w, "SSD writes  : %d pages\n", c.SSDWrites())
	printLatency(w, r)
	fmt.Fprintf(w, "throughput  : %.0f IOPS (virtual)\n", float64(r.Latency.Count())/r.Duration.Seconds())
	return nil
}

// parsers reads the -format options.
var parsers = map[string]func(string, io.Reader) (*trace.Trace, error){
	"uniform": trace.ParseUniform, "spc": trace.ParseSPC, "msr": trace.ParseMSR,
}

// loadWorkload returns the -replay file or the scaled synthetic workload,
// arriving at its Fig. 9 replay rate under -timed.
func (o *options) loadWorkload() (workload.Spec, *trace.Trace, error) {
	if o.replay != "" {
		parse := parsers[o.format]
		if parse == nil {
			return workload.Spec{}, nil, usagef("unknown -format %q (uniform, spc, msr)", o.format)
		}
		f, err := os.Open(o.replay)
		if err != nil {
			return workload.Spec{}, nil, err
		}
		defer f.Close()
		tr, err := parse(o.replay, f)
		if err != nil {
			return workload.Spec{}, nil, err
		}
		return workload.Spec{Name: o.replay, UniqueTotal: tr.Stats().UniqueTotal, Seed: 1}, tr, nil
	}
	for _, spec := range workload.TableI() {
		if strings.EqualFold(spec.Name, o.wl) {
			s := spec.Scale(o.scale)
			if o.timed {
				s.MeanIOPS = harness.ReplayIOPS[spec.Name]
			}
			return s, workload.Synthesize(s), nil
		}
	}
	return workload.Spec{}, nil, usagef("unknown workload %q (Fin1, Fin2, Hm0, Web0)", o.wl)
}

// runTrace replays tr through one Figs. 5–8 cell, or a Fig. 9 cell under
// -timed.
func (o *options) runTrace(spec workload.Spec, tr *trace.Trace, w, stderr io.Writer) error {
	pages := o.cachePages
	if pages == 0 {
		pages = int64(o.cacheFrac * float64(spec.UniqueTotal))
	}
	if pages < 256 {
		pages = 256
	}
	pages -= pages % 256

	var ctl *qos.Controller
	if o.tenants != "" {
		specs, err := qos.ParseTenants(o.tenants)
		if err != nil {
			return usageError{err}
		}
		// A synthesized workload tags every request with tenant 0.
		for i, sp := range specs {
			if !slices.ContainsFunc(tr.Requests, func(q trace.Request) bool { return int(q.Tenant) == i }) {
				return usagef("-tenants: tenant %q (index %d) tags no request of %s", sp.Name, i, tr.Name)
			}
		}
		if ctl, err = qos.NewController(qos.Config{Tenants: specs}); err != nil {
			return usageError{err}
		}
	}
	var ob *obs.Obs
	if o.traceOut != "" || o.promOut != "" {
		ob = obs.New()
	}
	cell := harness.CellOpts
	if o.killDiskAt >= 0 || o.replaceAt >= 0 {
		cell = harness.WideCellOpts
	}
	st, err := harness.Build(cell(spec, tr, harness.StackOpts{
		Policy:     harness.PolicyKind(o.policy),
		Backend:    o.backend,
		DeltaMean:  o.locality,
		CachePages: pages,
		MetaFrac:   o.metaFrac,
		Timing:     o.timed,
		Obs:        ob,
	}))
	if err != nil {
		return err
	}
	var hookErr error
	if o.killAt >= 0 || o.reattachAt >= 0 || o.killDiskAt >= 0 || o.replaceAt >= 0 {
		st.PerRequest = func(i int) {
			if hookErr == nil {
				hookErr = o.inject(st, i)
			}
		}
	}
	var r *harness.Result
	var qr *harness.QoSResult
	if ctl != nil {
		if qr, err = harness.RunTraceQoS(st, tr, ctl, sim.Time(o.deadlineMs*float64(sim.Millisecond))); err == nil {
			r = qr.Run
		}
	} else {
		r, err = harness.RunTrace(st, tr)
	}
	// A failed fault flag comes first: the replay ran on after it, on a
	// half-changed stack, and whatever failed there followed from it.
	if hookErr != nil {
		return hookErr
	}
	if err != nil {
		return err
	}
	if _, err := st.Policy.Flush(r.Duration); err != nil {
		return err
	}
	c := st.Policy.Stats()
	fmt.Fprintf(w, "policy      : %s\n", st.Policy.Name())
	fmt.Fprintf(w, "trace       : %s (%d requests)\n", tr.Name, len(tr.Requests))
	fmt.Fprintf(w, "cache       : %d pages (%.1f MB)\n", pages, float64(pages)*4/1024)
	fmt.Fprintf(w, "hit ratio   : %.4f (read %.4f)\n", c.HitRatio(), c.ReadHitRatio())
	fmt.Fprintf(w, "SSD writes  : %d pages (fills=%d allocs=%d deltas=%d versions=%d meta=%d gc=%d)\n",
		c.SSDWrites(), c.ReadFills, c.WriteAllocs, c.DeltaCommits, c.VersionWrite,
		c.MetaWrites, c.MetaGCWrites)
	fmt.Fprintf(w, "RAID ops    : reads=%d writes=%d parityFixes=%d smallWritesSaved=%d\n",
		c.RAIDReads, c.RAIDWrites, c.ParityUpdates, c.SmallWritesSaved)
	fmt.Fprintf(w, "failover    : failovers=%d breakerTrips=%d folds=%d (rmw=%d resync=%d) passReads=%d passWrites=%d reattaches=%d\n",
		c.Failovers, c.BreakerTrips, c.EmergencyFolds, c.FoldRMWs, c.FoldResyncs,
		c.PassReads, c.PassWrites, c.Reattaches)
	if o.timed {
		printLatency(w, r)
		if fm := st.FlashModel; fm != nil {
			fs := fm.Stats()
			fmt.Fprintf(w, "flash WA    : %.3f (erases=%d, lifetime used %.4f%%)\n",
				fs.WriteAmplification(), fs.Erases, fm.LifetimeFraction()*100)
		}
	}
	if qr != nil {
		for i, tn := range qr.Tenants {
			fmt.Fprintf(w, "qos[%d]      : %s offered=%d admitted=%d bypassed=%d throttled=%d shed=%d deadline=%d rung=%d p99=%.3fms\n",
				i, tn.Name, tn.Offered, tn.Admitted, tn.Bypassed, tn.Throttled,
				tn.Shed, tn.Deadline, ctl.Rung(i),
				float64(tn.Latency.Percentile(99))/float64(sim.Millisecond))
		}
	}
	if o.killDiskAt >= 0 || o.replaceAt >= 0 {
		as := st.Array.Stats()
		fmt.Fprintf(w, "rebuild     : spareAttaches=%d pumpSteps=%d pumpRows=%d done=%d arrayRows=%d active=%v failedDisks=%v lostRows=%d\n",
			c.SpareAttaches, c.RebuildSteps, c.RebuildRows, c.RebuildsDone,
			as.RebuildRows, st.Array.RebuildActive(), st.Array.FailedDisks(), len(st.Array.LostRows()))
	}
	if ob != nil {
		if err := st.ExportObs(o.traceOut, o.promOut, ctl); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans       : %d\n", ob.Tracer.Spans())
		fmt.Fprint(w, ob.Profile().Table())
	}
	return nil
}

// inject fires the fault flags that are due before request #i.
func (o *options) inject(st *harness.Stack, i int) error {
	if i == o.killAt {
		st.SSDInj.Fail()
	}
	if i == o.reattachAt {
		if err := st.ReattachSSD(0); err != nil {
			return err
		}
	}
	if i == o.killDiskAt {
		st.Array.FailDisk(2)
	}
	if i != o.replaceAt {
		return nil
	}
	fresh := st.FreshMember()
	if o.policy == string(harness.PolicyKDD) {
		// Park the replacement as a hot spare: the engine folds pending
		// deltas (§III-E) and paces the rebuild online.
		return st.Array.AddSpare(fresh)
	}
	// No pump outside KDD: repair parity, then rebuild blocking.
	if _, err := st.Policy.Flush(0); err != nil {
		return err
	}
	_, err := st.Array.ReplaceDisk(0, 2, fresh)
	return err
}

// printLatency prints a timed run's response times in virtual ms.
func printLatency(w io.Writer, r *harness.Result) {
	ms := func(p float64) float64 { return float64(r.Latency.Percentile(p)) / float64(sim.Millisecond) }
	fmt.Fprintf(w, "response    : mean %.3f ms  p50 %.3f  p95 %.3f  p99 %.3f ms\n",
		r.MeanResponseMs(), ms(50), ms(95), ms(99))
	fmt.Fprintf(w, "virtual time: %v\n", r.Duration)
}
