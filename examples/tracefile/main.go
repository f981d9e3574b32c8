// Tracefile: the real-trace workflow end to end — synthesize a workload,
// write it to a uniform-format trace file (what kddsim -emit-trace writes),
// parse it back (what you would do with your own SPC/MSR traces), adapt
// it to the simulated array with Remap/Clip, and replay it through two
// policies.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"kddcache/internal/harness"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "kddcache-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hm0.trace")

	// 1. Generate a trace file (kddsim -emit-trace does exactly this).
	spec := workload.Hm0.Scale(0.005)
	tr := workload.Synthesize(spec)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteUniform(f, tr); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(path)
	fmt.Printf("wrote %s: %d requests, %.1f MB\n", filepath.Base(path), len(tr.Requests),
		float64(fi.Size())/1e6)

	// 2. Parse it back — your own traces enter here (see also ParseSPC and
	// ParseMSR for the public formats).
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := trace.ParseUniform("hm0", g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Adapt: clip to the first half and fold addresses into a smaller
	// simulated array.
	parsed = parsed.Clip(len(parsed.Requests) / 2)
	arrayPages := int64(16384)
	parsed = parsed.Remap(arrayPages * 4) // 4 data chunks per RAID-5 stripe
	st := parsed.Stats()
	fmt.Printf("replaying %d requests over %d unique pages (read ratio %.2f)\n\n",
		st.ReadPages+st.WritePages, st.UniqueTotal, st.ReadRatio)

	// 4. Replay through WT and KDD and compare.
	fmt.Printf("%-8s %12s %14s %16s\n", "policy", "hit ratio", "SSD writes", "stale repaired")
	for _, pk := range []harness.PolicyKind{harness.PolicyWT, harness.PolicyKDD} {
		stack, err := harness.Build(harness.StackOpts{
			Policy:     pk,
			DeltaMean:  0.25,
			CachePages: 2048,
			DiskPages:  arrayPages,
			Seed:       9,
		})
		if err != nil {
			log.Fatal(err)
		}
		r, err := harness.RunTrace(stack, parsed)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := stack.Policy.Flush(r.Duration); err != nil {
			log.Fatal(err)
		}
		c := stack.Policy.Stats()
		fmt.Printf("%-8s %12.4f %14d %16d\n",
			stack.Policy.Name(), c.HitRatio(), c.SSDWrites(), c.ParityUpdates)
	}
	fmt.Println("\nUse cmd/kddsim -replay <file> -format spc|msr|uniform for your own traces.")
}
