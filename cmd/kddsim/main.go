// Command kddsim is the trace-driven cache simulator (paper §IV-A): it
// replays a workload through a chosen caching policy over a null-latency
// RAID-5 and reports hit ratios and SSD write traffic, or regenerates a
// whole figure/table of the paper when -experiment is given.
//
// Examples:
//
//	kddsim -experiment fig6 -scale 0.02
//	kddsim -workload Fin1 -policy KDD -locality 0.25 -cachefrac 0.2
//	kddsim -replay mytrace.csv -format spc -policy WT -cachepages 262144
//	kddsim -workload Fin1 -trace out.jsonl -metrics out.prom
package main

import (
	"flag"
	"fmt"
	"os"
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

func main() {
	var (
		experiment = flag.String("experiment", "", "regenerate a paper experiment: table1,fig4..fig11,table2,ablation-*,lifetime (empty: single run)")
		scale      = flag.Float64("scale", 0.02, "experiment scale factor (1.0 = paper-sized)")
		wl         = flag.String("workload", "Fin1", "synthetic workload: Fin1,Fin2,Hm0,Web0")
		policy     = flag.String("policy", "KDD", "policy: Nossd,WT,WA,LeavO,KDD,WB,NVB,PLog")
		locality   = flag.Float64("locality", 0.25, "KDD mean delta compression ratio (content locality)")
		cacheFrac  = flag.Float64("cachefrac", 0.2, "cache size as a fraction of the workload footprint")
		cachePages = flag.Int64("cachepages", 0, "explicit cache size in 4KB pages (overrides -cachefrac)")
		metaFrac   = flag.Float64("metafrac", 0.0059, "metadata partition share of the SSD")
		traceFile  = flag.String("replay", "", "replay a trace file instead of a synthetic workload")
		format     = flag.String("format", "uniform", "trace format: uniform,spc,msr")
		traceOut   = flag.String("trace", "", "write the request-span trace as JSONL to this file (single-run mode)")
		promOut    = flag.String("metrics", "", "write a Prometheus text metrics snapshot to this file (single-run mode)")
		list       = flag.Bool("list", false, "list available experiments and exit")
		csvOut     = flag.String("csv", "", "with -experiment fig4/9/10/11: also write the series as CSV to this file")
		parallel   = flag.Int("parallel", 0, "worker-pool width for experiment simulations; output is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		killAt     = flag.Int("kill-ssd-at", -1, "fail-stop the cache SSD before request #N; KDD folds parity and continues in pass-through (-1 = never)")
		reattachAt = flag.Int("reattach-at", -1, "repair and re-attach a fresh cache SSD before request #N, KDD only (-1 = never)")
		killDiskAt = flag.Int("kill-disk-at", -1, "fail-stop RAID member 2 before request #N (-1 = never)")
		replaceAt  = flag.Int("replace-disk-at", -1, "provide a fresh replacement member before request #N: KDD parks it as a hot spare and paces the rebuild online; other policies rebuild blocking (-1 = never)")
		tenants    = flag.String("tenants", "", "QoS tenant budgets as name:rate:weight[:burst],... (e.g. \"a:100:2,b:50:1\"); gates the single-run replay through the admission controller")
		deadlineMs = flag.Float64("deadline-ms", 0, "with -tenants: per-request deadline margin in virtual ms (0 = no deadlines)")
		backend    = flag.String("backend", "kdd", "array backend under the cache: kdd (parity RAID + delayed parity) or lsraid (log-structured, full-stripe appends)")
	)
	flag.Parse()
	kddcache.SetParallelism(*parallel)
	if *backend != "kdd" && *backend != "lsraid" {
		fatal(fmt.Errorf("-backend must be kdd or lsraid, got %q", *backend))
	}
	kddcache.SetDefaultBackend(*backend)

	if *list {
		var names []string
		for n := range kddcache.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	if *experiment != "" {
		res, err := kddcache.Experiment(*experiment, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Text)
		if *csvOut != "" {
			if res.XName == "" {
				fatal(fmt.Errorf("experiment %q has no series form for CSV export", *experiment))
			}
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := stats.WriteCSV(f, res.XName, res.Series); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote series CSV to %s\n", *csvOut)
		}
		return
	}

	tr, spec, err := loadWorkload(*traceFile, *format, *wl, *scale)
	if err != nil {
		fatal(err)
	}
	pages := *cachePages
	if pages == 0 {
		pages = int64(*cacheFrac * float64(spec.UniqueTotal))
	}
	if pages < 256 {
		pages = 256
	}
	pages -= pages % 256

	var ob *obs.Obs
	if *traceOut != "" || *promOut != "" {
		ob = obs.New()
	}
	st, err := harness.Build(harness.StackOpts{
		Policy:     harness.PolicyKind(*policy),
		DeltaMean:  *locality,
		CachePages: pages,
		MetaFrac:   *metaFrac,
		DiskPages:  diskPagesFor(tr),
		Seed:       spec.Seed,
		Obs:        ob,
	})
	if err != nil {
		fatal(err)
	}
	if *killAt >= 0 || *reattachAt >= 0 || *killDiskAt >= 0 || *replaceAt >= 0 {
		st.PerRequest = func(i int) {
			if i == *killAt {
				st.SSDInj.Fail()
			}
			if i == *reattachAt {
				if err := st.ReattachSSD(0); err != nil {
					fatal(err)
				}
			}
			if i == *killDiskAt {
				st.Array.FailDisk(2)
			}
			if i == *replaceAt {
				fresh := st.FreshMember()
				if *policy == string(harness.PolicyKDD) {
					// Park the replacement as a hot spare: the engine folds
					// pending deltas (§III-E) and paces the rebuild online.
					if err := st.Array.AddSpare(fresh); err != nil {
						fatal(err)
					}
					return
				}
				// No pump outside KDD: repair parity, then rebuild blocking.
				if _, err := st.Policy.Flush(0); err != nil {
					fatal(err)
				}
				if _, err := st.Array.ReplaceDisk(0, 2, fresh); err != nil {
					fatal(err)
				}
			}
		}
	}
	var r *harness.Result
	var ctl *qos.Controller
	var qr *harness.QoSResult
	if *tenants != "" {
		specs, err := qos.ParseTenants(*tenants)
		if err != nil {
			fatal(err)
		}
		ctl, err = qos.NewController(qos.Config{Tenants: specs})
		if err != nil {
			fatal(err)
		}
		qr, err = harness.RunTraceQoS(st, tr, ctl, sim.Time(*deadlineMs*float64(sim.Millisecond)))
		if err != nil {
			fatal(err)
		}
		r = qr.Run
	} else {
		var err error
		r, err = harness.RunTrace(st, tr)
		if err != nil {
			fatal(err)
		}
	}
	if _, err := st.Policy.Flush(r.Duration); err != nil {
		fatal(err)
	}
	c := st.Policy.Stats()
	fmt.Printf("policy      : %s\n", st.Policy.Name())
	fmt.Printf("trace       : %s (%d requests)\n", tr.Name, len(tr.Requests))
	fmt.Printf("cache       : %d pages (%.1f MB)\n", pages, float64(pages)*4/1024)
	fmt.Printf("hit ratio   : %.4f (read %.4f)\n", c.HitRatio(), c.ReadHitRatio())
	fmt.Printf("SSD writes  : %d pages (fills=%d allocs=%d deltas=%d versions=%d meta=%d gc=%d)\n",
		c.SSDWrites(), c.ReadFills, c.WriteAllocs, c.DeltaCommits, c.VersionWrite,
		c.MetaWrites, c.MetaGCWrites)
	fmt.Printf("RAID ops    : reads=%d writes=%d parityFixes=%d smallWritesSaved=%d\n",
		c.RAIDReads, c.RAIDWrites, c.ParityUpdates, c.SmallWritesSaved)
	fmt.Printf("failover    : failovers=%d breakerTrips=%d folds=%d (rmw=%d resync=%d) passReads=%d passWrites=%d reattaches=%d\n",
		c.Failovers, c.BreakerTrips, c.EmergencyFolds, c.FoldRMWs, c.FoldResyncs,
		c.PassReads, c.PassWrites, c.Reattaches)
	if qr != nil {
		for i, tn := range qr.Tenants {
			fmt.Printf("qos[%d]      : %s offered=%d admitted=%d bypassed=%d throttled=%d shed=%d deadline=%d rung=%d p99=%.3fms\n",
				i, tn.Name, tn.Offered, tn.Admitted, tn.Bypassed, tn.Throttled,
				tn.Shed, tn.Deadline, ctl.Rung(i),
				float64(tn.Latency.Percentile(99))/float64(sim.Millisecond))
		}
	}
	if *killDiskAt >= 0 || *replaceAt >= 0 {
		as := st.Array.Stats()
		fmt.Printf("rebuild     : spareAttaches=%d pumpSteps=%d pumpRows=%d done=%d arrayRows=%d active=%v failedDisks=%v lostRows=%d\n",
			c.SpareAttaches, c.RebuildSteps, c.RebuildRows, c.RebuildsDone,
			as.RebuildRows, st.Array.RebuildActive(), st.Array.FailedDisks(), len(st.Array.LostRows()))
	}
	if ob != nil {
		if err := st.ExportObs(*traceOut, *promOut, ctl); err != nil {
			fatal(err)
		}
		fmt.Printf("spans       : %d\n", ob.Tracer.Spans())
		fmt.Print(ob.Profile().Table())
	}
}

func loadWorkload(traceFile, format, wl string, scale float64) (*trace.Trace, workload.Spec, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, workload.Spec{}, err
		}
		defer f.Close()
		var tr *trace.Trace
		switch format {
		case "spc":
			tr, err = trace.ParseSPC(traceFile, f)
		case "msr":
			tr, err = trace.ParseMSR(traceFile, f)
		case "uniform":
			tr, err = trace.ParseUniform(traceFile, f)
		default:
			return nil, workload.Spec{}, fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			return nil, workload.Spec{}, err
		}
		st := tr.Stats()
		return tr, workload.Spec{Name: traceFile, UniqueTotal: st.UniqueTotal, Seed: 1}, nil
	}
	for _, spec := range workload.TableI() {
		if strings.EqualFold(spec.Name, wl) {
			s := spec.Scale(scale)
			return workload.Synthesize(s), s, nil
		}
	}
	return nil, workload.Spec{}, fmt.Errorf("unknown workload %q", wl)
}

func diskPagesFor(tr *trace.Trace) int64 {
	p := tr.MaxLBA()/4 + 8192
	return p - p%16
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kddsim:", err)
	os.Exit(1)
}
