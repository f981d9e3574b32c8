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
// parameters (what `make check` runs). Options no stack can be built from
// are a one-line usage error, exit 2.
//
// The sweep is deterministic: a violation prints the command line that
// replays its seed exactly.
//
// Examples:
//
//	kddcheck -ci
//	kddcheck -rebuild -shard -backend lsraid
//	kddcheck -seeds 4 -ops 400
//	kddcheck -seed 0xC0FFEE -seeds 1
package main

import (
	"flag"
	"fmt"
	"os"

	"kddcache/internal/check"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 0, "master seed (0 = default 0xC0FFEE)")
		seeds     = flag.Int("seeds", 0, "seeds to explore (0 = default 2)")
		ops       = flag.Int("ops", 0, "workload operations per run (0 = default 200)")
		footprint = flag.Int64("footprint", 0, "distinct LBAs touched (0 = default 64)")
		cache     = flag.Int64("cachepages", 0, "SSD cache data pages (0 = default 128)")
		parallel  = flag.Int("parallel", 0, "worker-pool width for site replays; report is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		ci        = flag.Bool("ci", false, "deterministic CI mode: the {kdd, lsraid} x {engine, plane} x {plain, rebuild} matrix at fixed small parameters; overrides -ops/-footprint/-backend/-shard/-rebuild/-media-stride")
		shardOnly = flag.Bool("shard", false, "run only the sharded-plane crash sweep (batched workload, crash points with multiple lanes' metadata batches in flight)")
		rebuild   = flag.Bool("rebuild", false, "rebuild-window scenario: kill a member mid-workload with a hot spare parked (RAID-6 on kdd, RAID-5 on lsraid), so every crash point and fault site fires against an online rebuild")
		stride    = flag.Int("media-stride", 0, "sample every Nth member media-fault site (0/1 = exhaustive); crash and SSD sites are never strided — useful with -rebuild, where the rebuild touches every member page")
		backend   = flag.String("backend", "kdd", "array backend under the cache: kdd (parity RAID + delayed-parity protocol) or lsraid (log-structured, full-stripe appends)")
	)
	flag.Parse()
	for _, v := range []struct {
		name string
		val  int64
	}{{"seeds", int64(*seeds)}, {"ops", int64(*ops)}, {"footprint", *footprint}, {"cachepages", *cache}, {"media-stride", int64(*stride)}} {
		if v.val < 0 {
			fmt.Fprintf(os.Stderr, "kddcheck: -%s must be >= 0 (0 = default), got %d\n", v.name, v.val)
			os.Exit(2)
		}
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
		fmt.Fprintf(os.Stderr, "kddcheck: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, rep := range reps {
		fmt.Print(rep.Table())
		for i, res := range rep.Results {
			if len(res.Violations) > 0 {
				fmt.Printf("replay: %s\n", rep.Replay(i))
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func one(rep *check.Report, err error) ([]*check.Report, error) {
	return []*check.Report{rep}, err
}
