package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json (a test compares them) and the
// names are normative: later issues cite them verbatim.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, on both clocks. Every
// workload reports every one. The virtual-clock values are model outputs
// in simulated milliseconds, hence their own unit.
var endToEnd = []metricDef{
	{"replay_kops_per_s", "kops/s"},
	{"allocs_per_op", "allocs/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
	{"virt_mean_ms", "virt_ms"},
	{"virt_p50_ms", "virt_ms"},
	{"virt_p99_ms", "virt_ms"},
	{"ssd_write_pages_per_kop", "pages/kop"},
	{"hit_ratio", "fraction"},
}

// perLayer is the ledger: one group per package. A metric of a layer the
// workload's stack does not contain reads 0.
var perLayer = []metricDef{
	{"driver.ops", "count"},
	{"driver.loadgen_ns_per_op", "ns/op"},
	{"driver.batch_us_p50", "us"},
	{"driver.batch_us_p99", "us"},
	{"driver.batch_samples", "count"},
	{"driver.trace_overhead_pct", "%"},
	{"driver.rep_spread_pct", "%"},
	{"driver.calib_mops", "Mops/s"},
	{"driver.gc_cycles", "count"},
	{"driver.gc_pause_ms_total", "ms"},

	{"core.read_calls", "count"},
	{"core.write_calls", "count"},
	{"core.clean_calls", "count"},
	{"core.read_self_ns", "ns/call"},
	{"core.write_self_ns", "ns/call"},
	{"core.self_share", "fraction"},
	{"core.read_hit_ratio", "fraction"},
	{"core.write_hit_ratio", "fraction"},
	{"core.fills_per_kop", "pages/kop"},
	{"core.write_allocs_per_kop", "pages/kop"},
	{"core.delta_commits_per_kop", "pages/kop"},
	{"core.evictions_per_kop", "1/kop"},
	{"core.reclaims_per_kop", "1/kop"},
	{"core.cleaner_runs", "count"},
	{"core.parity_updates_per_kop", "1/kop"},
	{"core.small_writes_saved_per_kop", "1/kop"},
	{"core.flush_ms", "ms"},
	{"core.flush_virt_ms", "virt_ms"},

	{"metalog.page_writes_per_kop", "pages/kop"},
	{"metalog.gc_page_writes_per_kop", "pages/kop"},
	{"metalog.gc_runs", "count"},
	{"metalog.dev_ns_per_kop", "ns/kop"},

	{"delta.encode_calls", "count"},
	{"delta.encode_ns", "ns/call"},
	{"delta.apply_calls", "count"},
	{"delta.apply_ns", "ns/call"},
	{"delta.mean_ratio", "fraction"},
	{"delta.self_share", "fraction"},

	{"ssd.read_calls", "count"},
	{"ssd.write_calls", "count"},
	{"ssd.trim_calls", "count"},
	{"ssd.read_ns", "ns/call"},
	{"ssd.write_ns", "ns/call"},
	{"ssd.self_share", "fraction"},
	{"ssd.flash_write_amp", "ratio"},
	{"ssd.gc_writes_per_kop", "pages/kop"},
	{"ssd.erases", "count"},

	{"raid.read_calls", "count"},
	{"raid.write_calls", "count"},
	{"raid.noparity_calls", "count"},
	{"raid.parity_fix_calls", "count"},
	{"raid.writerow_calls", "count"},
	{"raid.self_ns_per_call", "ns/call"},
	{"raid.self_share", "fraction"},
	{"raid.member_io_per_op", "1/op"},
	{"raid.member_write_amp", "ratio"},
	{"raid.stale_rows_end", "count"},

	{"lsraid.read_calls", "count"},
	{"lsraid.write_calls", "count"},
	{"lsraid.self_ns_per_call", "ns/call"},
	{"lsraid.self_share", "fraction"},
	{"lsraid.member_io_per_op", "1/op"},
	{"lsraid.member_write_amp", "ratio"},
	{"lsraid.gc_copies_per_kop", "pages/kop"},
	{"lsraid.gc_segments", "count"},
	{"lsraid.free_segments_end", "count"},
	{"lsraid.replay_ms", "ms"},

	{"hdd.read_calls", "count"},
	{"hdd.write_calls", "count"},
	{"hdd.ns_per_call", "ns/call"},
	{"hdd.self_share", "fraction"},
	{"hdd.seq_hit_ratio", "fraction"},
	{"hdd.busy_virt_share", "fraction"},

	{"blockdev.member_ns_per_call", "ns/call"},
	{"blockdev.ssd_ns_per_call", "ns/call"},
	{"blockdev.self_share", "fraction"},

	{"shard.batches", "count"},
	{"shard.batch_ns", "ns/call"},
	{"shard.self_share", "fraction"},
	{"shard.coalesced_per_kop", "1/kop"},
	{"shard.lane_imbalance", "ratio"},
	{"shard.cpu_parallelism", "ratio"},
	{"shard.serial_share", "fraction"},

	{"workload.synth_s", "s"},
	{"harness.build_s", "s"},
}

// ratio is a/b, and 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(p/100*float64(len(s)-1))]
}

// best is the rep with the shortest replay.
func best(reps []*rep) *rep {
	b := reps[0]
	for _, r := range reps[1:] {
		if r.wallS < b.wallS {
			b = r
		}
	}
	return b
}

func each(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// replaySeconds is the replay's host time with the neighbours' noise
// taken out. Every rep replays the same requests, so window i (the i-th
// 1024 operations) is the same work in each of them, and on the shared box
// noise only ever adds time: the estimate is the sum over windows of the
// fastest rep's time for that window, plus the fastest tail. It filters
// slow spells shorter than a run far better than the fastest whole rep
// does; it also filters most of the garbage collector's interference,
// which allocs_per_op and alloc_bytes_per_op report instead.
func replaySeconds(reps []*rep) float64 {
	n := len(reps[0].windowsUs)
	for _, r := range reps {
		n = min(n, len(r.windowsUs))
	}
	var us float64
	for i := 0; i < n; i++ {
		fastest := reps[0].windowsUs[i]
		for _, r := range reps[1:] {
			fastest = math.Min(fastest, r.windowsUs[i])
		}
		us += fastest
	}
	tail := math.Inf(1)
	for _, r := range reps {
		t := r.wallS * 1e6
		for _, w := range r.windowsUs[:n] {
			t -= w
		}
		tail = math.Min(tail, t)
	}
	return (us + tail) / 1e6
}

// endToEndValues reports the untraced reps: replay time as replaySeconds
// has it, the exact allocation counts and the virtual-clock outputs from
// the fastest rep (they agree across reps), set-up time as the median.
func endToEndValues(reps []*rep) map[string]float64 {
	b := best(reps)
	ops := float64(b.ops)
	return map[string]float64{
		"replay_kops_per_s":       ops / replaySeconds(reps) / 1e3,
		"allocs_per_op":           float64(b.mallocs) / ops,
		"alloc_bytes_per_op":      float64(b.allocBytes) / ops,
		"live_heap_mb":            float64(b.liveHeap) / (1 << 20),
		"setup_s":                 median(each(reps, (*rep).setupS)),
		"virt_mean_ms":            b.virt.meanMs,
		"virt_p50_ms":             b.virt.p50Ms,
		"virt_p99_ms":             b.virt.p99Ms,
		"ssd_write_pages_per_kop": float64(b.ctr.cache.SSDWrites()) / ops * 1e3,
		"hit_ratio":               b.ctr.cache.HitRatio(),
	}
}

// perLayerValues builds the ledger from the traced rep t, the untraced
// reps (for what only an undisturbed run can say) and the stub rep.
func perLayerValues(w workloadDef, untraced []*rep, stub, t *rep) map[string]float64 {
	b := best(untraced)
	tr := t.tr
	ops := float64(t.ops)
	kop := ops / 1e3
	c := &t.ctr
	cs := &c.cache
	maxWall := 0.0
	for _, r := range untraced {
		maxWall = math.Max(maxWall, r.wallS)
	}

	root := tr.seamTotal(seamRoot)
	ssdMeta, ssdData := tr.seamTotal(seamSSDMeta), tr.seamTotal(seamSSDData)
	array, member, codec := tr.seamTotal(seamArray), tr.seamTotal(seamMember), tr.seamTotal(seamCodec)
	share := func(ns int64) float64 { return ratio(float64(ns), float64(root.ns)) }
	perCall := func(a aggregate) float64 { return ratio(float64(a.ns), float64(a.calls)) }
	selfPerCall := func(a aggregate) float64 { return ratio(float64(a.self), float64(a.calls)) }
	sum := func(a, b aggregate) aggregate {
		return aggregate{calls: a.calls + b.calls, ns: a.ns + b.ns, self: a.self + b.self, units: a.units + b.units}
	}
	ssdRead := sum(tr.agg[seamSSDMeta][mRead], tr.agg[seamSSDData][mRead])
	ssdWrite := sum(tr.agg[seamSSDMeta][mWrite], tr.agg[seamSSDData][mWrite])
	ssdTrim := sum(tr.agg[seamSSDMeta][mTrim], tr.agg[seamSSDData][mTrim])

	m := map[string]float64{
		"driver.ops":                float64(t.ops),
		"driver.loadgen_ns_per_op":  stub.wallS * 1e9 / float64(stub.ops),
		"driver.batch_us_p50":       percentile(b.windowsUs, 50),
		"driver.batch_us_p99":       percentile(b.windowsUs, 99),
		"driver.batch_samples":      float64(len(b.windowsUs)),
		"driver.trace_overhead_pct": (t.wallS - b.wallS) / b.wallS * 100,
		"driver.rep_spread_pct":     (maxWall - b.wallS) / maxWall * 100,
		"driver.calib_mops":         median(each(untraced, func(r *rep) float64 { return r.calibMops })),
		"driver.gc_cycles":          float64(b.gcCycles),
		"driver.gc_pause_ms_total":  float64(b.gcPauseNs) / 1e6,

		"core.read_calls":                 float64(cs.Reads),
		"core.write_calls":                float64(cs.Writes),
		"core.clean_calls":                float64(tr.agg[seamRoot][mClean].calls),
		"core.read_hit_ratio":             cs.ReadHitRatio(),
		"core.write_hit_ratio":            ratio(float64(cs.WriteHits), float64(cs.Writes)),
		"core.fills_per_kop":              float64(cs.ReadFills) / kop,
		"core.write_allocs_per_kop":       float64(cs.WriteAllocs) / kop,
		"core.delta_commits_per_kop":      float64(cs.DeltaCommits) / kop,
		"core.evictions_per_kop":          float64(cs.Evictions) / kop,
		"core.reclaims_per_kop":           float64(cs.Reclaims) / kop,
		"core.cleaner_runs":               float64(cs.CleanerRuns),
		"core.parity_updates_per_kop":     float64(cs.ParityUpdates) / kop,
		"core.small_writes_saved_per_kop": float64(cs.SmallWritesSaved) / kop,
		"core.flush_ms":                   b.flushMs,
		"core.flush_virt_ms":              b.flushVirtMs,

		"metalog.page_writes_per_kop":    float64(cs.MetaWrites) / kop,
		"metalog.gc_page_writes_per_kop": float64(cs.MetaGCWrites) / kop,
		"metalog.gc_runs":                float64(c.log.GCRuns),
		"metalog.dev_ns_per_kop":         float64(ssdMeta.ns) / kop,

		"delta.encode_calls": float64(tr.agg[seamCodec][mEncode].calls),
		"delta.encode_ns":    perCall(tr.agg[seamCodec][mEncode]),
		"delta.apply_calls":  float64(tr.agg[seamCodec][mApply].calls),
		"delta.apply_ns":     perCall(tr.agg[seamCodec][mApply]),
		"delta.mean_ratio": ratio(float64(tr.agg[seamCodec][mEncode].units),
			float64(tr.agg[seamCodec][mEncode].calls)*pageSize),

		"ssd.read_calls":        float64(ssdRead.calls),
		"ssd.write_calls":       float64(ssdWrite.calls),
		"ssd.trim_calls":        float64(ssdTrim.calls),
		"ssd.read_ns":           perCall(ssdRead),
		"ssd.write_ns":          perCall(ssdWrite),
		"ssd.flash_write_amp":   c.flash.WriteAmplification(),
		"ssd.gc_writes_per_kop": float64(c.flash.GCWrites) / kop,
		"ssd.erases":            float64(c.flash.Erases),

		"hdd.read_calls":      float64(tr.agg[seamMember][mRead].calls),
		"hdd.write_calls":     float64(tr.agg[seamMember][mWrite].calls),
		"hdd.ns_per_call":     perCall(member),
		"hdd.seq_hit_ratio":   ratio(float64(c.hddSeq), float64(c.hddReads+c.hddWrites)),
		"hdd.busy_virt_share": ratio(float64(c.hddBusy), float64(t.virt.duration)*float64(c.members)),

		"workload.synth_s": median(each(untraced, func(r *rep) float64 { return r.synthS })),
		"harness.build_s":  median(each(untraced, func(r *rep) float64 { return r.buildS })),
	}

	// The request root: core's engine on the Policy-driven stacks; on the
	// plane, routing + coalescing + barriers + the eight lanes' engines,
	// which cannot be told apart from outside.
	if w.kind == kindPlane {
		m["shard.batches"] = float64(root.calls)
		m["shard.batch_ns"] = perCall(root)
		m["shard.self_share"] = share(root.self)
		m["shard.coalesced_per_kop"] = float64(c.coalesced) / kop
		var maxLane int64
		for _, n := range t.laneOps {
			maxLane = max(maxLane, n)
		}
		m["shard.lane_imbalance"] = float64(maxLane) / (ops / float64(len(t.laneOps)))
		m["shard.cpu_parallelism"] = b.cpuS / b.wallS
		m["shard.serial_share"] = share(ssdMeta.ns + ssdData.ns + array.ns)
	} else {
		m["core.read_self_ns"] = selfPerCall(tr.agg[seamRoot][mRead])
		m["core.write_self_ns"] = selfPerCall(tr.agg[seamRoot][mWrite])
		m["core.self_share"] = share(root.self)
	}
	m["delta.self_share"] = share(codec.self)

	// The array engine, under its backend's name.
	eng := "raid."
	writes := tr.agg[seamArray][mWrite].calls
	if w.backend == "lsraid" {
		eng = "lsraid."
		// The log absorbs every write-side call the same way.
		writes += tr.agg[seamArray][mNoParity].calls + tr.agg[seamArray][mWriteRow].calls +
			tr.agg[seamArray][mParityFix].calls
		m["lsraid.gc_copies_per_kop"] = float64(c.array.GCCopies) / kop
		m["lsraid.gc_segments"] = float64(c.array.GCSegments)
		m["lsraid.free_segments_end"] = float64(b.freeSegsEnd)
		m["lsraid.replay_ms"] = b.replayMs
	} else {
		m["raid.noparity_calls"] = float64(tr.agg[seamArray][mNoParity].calls)
		m["raid.parity_fix_calls"] = float64(tr.agg[seamArray][mParityFix].calls)
		m["raid.writerow_calls"] = float64(tr.agg[seamArray][mWriteRow].calls)
		m["raid.stale_rows_end"] = float64(c.staleRows)
	}
	m[eng+"read_calls"] = float64(tr.agg[seamArray][mRead].calls)
	m[eng+"write_calls"] = float64(writes)
	m[eng+"self_ns_per_call"] = selfPerCall(array)
	m[eng+"self_share"] = share(array.self)
	m[eng+"member_io_per_op"] = float64(member.calls) / ops
	m[eng+"member_write_amp"] = ratio(float64(tr.agg[seamMember][mWrite].units), float64(cs.Writes))

	// Device leaves. With real pages the time at the device seams is
	// MemStore copies and CRC32 (the device models ride along at about a
	// twentieth of it), so it is booked to blockdev; the ssd.* and hdd.*
	// model counters above are live on every workload.
	leaf := ssdMeta.self + ssdData.self + member.self
	if w.kind == kindTrace {
		m["ssd.self_share"] = share(ssdMeta.self + ssdData.self)
		m["hdd.self_share"] = share(member.self)
	} else {
		m["blockdev.member_ns_per_call"] = perCall(member)
		m["blockdev.ssd_ns_per_call"] = perCall(sum(ssdMeta, ssdData))
		m["blockdev.self_share"] = share(leaf)
	}
	return m
}
