// Command kddcheck runs the model-based crash-consistency checker: a
// seeded workload is profiled fault-free to record the device-op trace,
// then replayed once per enumerated fault site — every SSD write ordinal
// as a torn-write crash point, plus latent and transient media faults on
// every touched page of the SSD and each array member. Each replay is
// cross-checked against the reference model (acked writes survive any
// crash; in-flight writes resolve old-or-new and pin; recovery replay is
// idempotent; parity reconstructs everywhere; page checksums verify).
// -shard runs the crash points of a batched workload over the sharded
// plane instead of the bare engine, -backend picks the array under
// either, -rebuild kills a member mid-workload, and -ci is the whole
// {kdd, lsraid} x {engine, plane} x {plain, rebuild} matrix at fixed small
// parameters (what `make check` runs); a violation prints the command
// line that replays its seed.
//
// -chaos runs the chaos harness on the same rig instead (check.Chaos):
// seeded partial-fault schedules over the full stack, each run twice to
// a bit-identical fingerprint; -kind restricts it to some plans. Both
// modes are deterministic. A violation exits 1; options no stack can be
// built from, or a -kind matching no plan, are a one-line usage error,
// exit 2.
//
// Examples:
//
//	kddcheck -ci
//	kddcheck -rebuild -shard -backend lsraid
//	kddcheck -seeds 4 -ops 400
//	kddcheck -seed 0xC0FFEE -seeds 1
//	kddcheck -chaos
//	kddcheck -chaos -schedules 40 -ops 2000 -seed 0xDEAD
//	kddcheck -chaos -kind ssd-kill,ssd-reattach
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"kddcache/internal/check"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// chaosFlag says, for each flag only one mode reads, whether that mode
// is -chaos.
var chaosFlag = map[string]bool{"seeds": false, "ci": false, "shard": false, "rebuild": false,
	"media-stride": false, "backend": false, "schedules": true, "kind": true}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kddcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Uint64("seed", 0, "master seed (0 = default 0xC0FFEE)")
		seeds     = fs.Int("seeds", 0, "seeds to explore (0 = default 2)")
		ops       = fs.Int("ops", 0, "workload operations per run (0 = default: 200, 500 per schedule with -chaos)")
		footprint = fs.Int64("footprint", 0, "distinct LBAs touched (0 = default: 64, 640 with -chaos)")
		cache     = fs.Int64("cachepages", 0, "SSD cache data pages (0 = default: 128, 512 with -chaos)")
		parallel  = fs.Int("parallel", 0, "worker-pool width for site replays or chaos schedules; report is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		ci        = fs.Bool("ci", false, "deterministic CI mode: the {kdd, lsraid} x {engine, plane} x {plain, rebuild} matrix at fixed small parameters; overrides -ops/-footprint/-backend/-shard/-rebuild/-media-stride")
		shardOnly = fs.Bool("shard", false, "run only the sharded-plane crash sweep (batched workload, crash points with multiple lanes' metadata batches in flight)")
		rebuild   = fs.Bool("rebuild", false, "rebuild-window scenario: kill a member mid-workload with a hot spare parked (RAID-6 on kdd, RAID-5 on lsraid), so every crash point and fault site fires against an online rebuild")
		stride    = fs.Int("media-stride", 0, "sample every Nth member media-fault site (0/1 = exhaustive); crash and SSD sites are never strided — useful with -rebuild, where the rebuild touches every member page")
		backend   = fs.String("backend", "kdd", "array backend under the cache: kdd (parity RAID + delayed-parity protocol) or lsraid (log-structured, full-stripe appends)")
		chaos     = fs.Bool("chaos", false, "run the chaos harness: seeded fault schedules over the full stack, each run twice to a bit-identical fingerprint")
		schedules = fs.Int("schedules", 0, "with -chaos: number of fault schedules (0 = default 24)")
		kind      = fs.String("kind", "", "with -chaos: comma-separated plan kinds to run, e.g. ssd-kill,ssd-reattach (empty = all)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "kddcheck: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	var wrong string // the first flag the chosen mode does not read
	fs.Visit(func(f *flag.Flag) {
		if isChaos, ok := chaosFlag[f.Name]; ok && isChaos != *chaos && wrong == "" {
			wrong = f.Name
		}
	})
	switch {
	case wrong != "" && *chaos:
		return usage("-%s does not apply to -chaos", wrong)
	case wrong != "":
		return usage("-%s needs -chaos", wrong)
	}
	for _, v := range []struct {
		name string
		val  int64
	}{{"seeds", int64(*seeds)}, {"ops", int64(*ops)}, {"footprint", *footprint}, {"cachepages", *cache}, {"media-stride", int64(*stride)}, {"schedules", int64(*schedules)}} {
		if v.val < 0 {
			return usage("-%s must be >= 0 (0 = default), got %d", v.name, v.val)
		}
	}

	if *chaos {
		if *ops > 0 && *ops < 50 {
			fmt.Fprintf(stderr, "kddcheck: warning: -ops %d under-samples the fault plans; some schedules may fail their fault-surfaced assertions\n", *ops)
		}
		rep, err := check.Chaos(check.ChaosOpts{
			Schedules:  *schedules,
			Ops:        *ops,
			Footprint:  *footprint,
			CachePages: *cache,
			Seed:       *seed,
			Parallel:   *parallel,
			Kind:       *kind,
		})
		if err != nil {
			return usage("%v", err)
		}
		fmt.Fprint(stdout, rep.Table())
		if len(rep.Violations()) > 0 {
			return 1
		}
		return 0
	}

	o := check.Options{
		Seed:        *seed,
		Seeds:       *seeds,
		Ops:         *ops,
		Footprint:   *footprint,
		CachePages:  *cache,
		Parallel:    *parallel,
		Rebuild:     *rebuild,
		MediaStride: *stride,
		Backend:     *backend,
	}
	// Every sweep runs before any table prints: a usage error (options one
	// of the stacks cannot be built from) is then the only output.
	var reps []*check.Report
	var err error
	switch {
	case *ci:
		reps, err = check.RunCI(o)
	case *shardOnly:
		reps, err = one(check.RunShard(o))
	default:
		reps, err = one(check.Run(o))
	}
	if err != nil {
		return usage("%v", err)
	}
	failed := false
	for _, rep := range reps {
		fmt.Fprint(stdout, rep.Table())
		for i, res := range rep.Results {
			if len(res.Violations) > 0 {
				fmt.Fprintf(stdout, "replay: %s\n", rep.Replay(i))
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

func one(rep *check.Report, err error) ([]*check.Report, error) {
	return []*check.Report{rep}, err
}
