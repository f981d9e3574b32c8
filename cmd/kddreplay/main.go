// Command kddreplay is the open-loop timing replay (paper §IV-B2): it
// replays a workload at its recorded timestamps against the full timing
// stack (HDD seek/rotation models behind RAID-5, flash model with FTL as
// the cache device) and reports the average response time — the Figure 9
// experiment for a single (workload, policy) pair.
//
// Example:
//
//	kddreplay -workload Fin1 -policy KDD -scale 0.005
//	kddreplay -workload Fin1 -trace out.jsonl -metrics out.prom
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kddcache/internal/harness"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
	"kddcache/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "Fin1", "synthetic workload: Fin1,Fin2,Hm0,Web0")
		policy    = flag.String("policy", "KDD", "policy: Nossd,WT,WA,LeavO,KDD,WB,NVB,PLog")
		locality  = flag.Float64("locality", 0.25, "KDD mean delta compression ratio")
		scale     = flag.Float64("scale", 0.005, "workload scale factor")
		cacheFrac = flag.Float64("cachefrac", 0.25, "cache size as fraction of footprint")
		iops      = flag.Float64("iops", 0, "override replay arrival rate (0 = per-workload default)")
		traceOut  = flag.String("trace", "", "write the request-span trace as JSONL to this file")
		promOut   = flag.String("metrics", "", "write a Prometheus text metrics snapshot to this file")
	)
	flag.Parse()

	var spec workload.Spec
	found := false
	for _, s := range workload.TableI() {
		if strings.EqualFold(s.Name, *wl) {
			spec = s
			found = true
			break
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	s := spec.Scale(*scale)
	if *iops > 0 {
		s.MeanIOPS = *iops
	} else {
		s.MeanIOPS = harness.ReplayIOPS[spec.Name]
	}
	tr := workload.Synthesize(s)

	cachePages := int64(*cacheFrac * float64(s.UniqueTotal))
	if cachePages < 256 {
		cachePages = 256
	}
	cachePages -= cachePages % 256
	diskPages := s.UniqueTotal/4 + 8192
	diskPages -= diskPages % 16

	var ob *obs.Obs
	if *traceOut != "" || *promOut != "" {
		ob = obs.New()
	}
	st, err := harness.Build(harness.StackOpts{
		Policy:     harness.PolicyKind(*policy),
		DeltaMean:  *locality,
		CachePages: cachePages,
		DiskPages:  diskPages,
		Timing:     true,
		Seed:       s.Seed,
		Obs:        ob,
	})
	if err != nil {
		fatal(err)
	}
	r, err := harness.RunTrace(st, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy           : %s\n", st.Policy.Name())
	fmt.Printf("workload         : %s (%d requests @ %.0f IOPS)\n", s.Name, len(tr.Requests), s.MeanIOPS)
	fmt.Printf("mean response    : %.3f ms\n", r.MeanResponseMs())
	fmt.Printf("p50 / p95 / p99  : %.3f / %.3f / %.3f ms\n",
		float64(r.Latency.Percentile(50))/float64(sim.Millisecond),
		float64(r.Latency.Percentile(95))/float64(sim.Millisecond),
		float64(r.Latency.Percentile(99))/float64(sim.Millisecond))
	fmt.Printf("virtual duration : %v\n", r.Duration)
	c := st.Policy.Stats()
	fmt.Printf("hit ratio        : %.4f\n", c.HitRatio())
	fmt.Printf("SSD writes       : %d pages\n", c.SSDWrites())
	if st.FlashModel != nil {
		fs := st.FlashModel.Stats()
		fmt.Printf("flash WA         : %.3f (erases=%d, lifetime used %.4f%%)\n",
			fs.WriteAmplification(), fs.Erases, st.FlashModel.LifetimeFraction()*100)
	}
	for _, d := range st.Disks {
		fmt.Printf("disk %-6s      : reads=%d writes=%d busy=%v seqHits=%d\n",
			d.Name(), d.Reads(), d.Writes(), d.BusyTime(), d.SeqHits())
	}
	if ob != nil {
		if _, err := st.Policy.Flush(r.Duration); err != nil {
			fatal(err)
		}
		if err := st.ExportObs(*traceOut, *promOut, nil); err != nil {
			fatal(err)
		}
		fmt.Print(ob.Profile().Table())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kddreplay:", err)
	os.Exit(1)
}
