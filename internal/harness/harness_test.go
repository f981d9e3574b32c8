package harness

import (
	"strings"
	"testing"

	"kddcache/internal/workload"
)

// Small scales keep tests fast; shapes must already hold there.
const tinyScale = 0.004

func TestBuildAllPolicies(t *testing.T) {
	for _, p := range []PolicyKind{PolicyNossd, PolicyWT, PolicyWA, PolicyLeavO, PolicyKDD} {
		st, err := Build(StackOpts{Policy: p, CachePages: 4096, DiskPages: 65536})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Policy == nil {
			t.Fatalf("%s: nil policy", p)
		}
	}
	if _, err := Build(StackOpts{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBuildTimingStack(t *testing.T) {
	st, err := Build(StackOpts{Policy: PolicyKDD, CachePages: 4096, DiskPages: 65536, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FlashModel == nil || len(st.Disks) != 5 {
		t.Fatal("timing stack missing device models")
	}
}

func TestRunTraceBasics(t *testing.T) {
	spec := workload.Fin1.Scale(tinyScale)
	tr := workload.Synthesize(spec)
	st, err := Build(CellOpts(spec, tr, StackOpts{Policy: PolicyWT, CachePages: roundWays(spec.UniqueTotal/5, 256)}))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTrace(st, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache.Requests() != spec.ReadPages+spec.WritePages {
		t.Fatalf("processed %d requests, trace has %d",
			r.Cache.Requests(), spec.ReadPages+spec.WritePages)
	}
	if r.Latency.Count() == 0 {
		t.Fatal("no latencies observed")
	}
}

// runPolicies sweeps one cache size over the policy lineup and returns
// hit ratios and SSD writes by label.
func runPolicies(t *testing.T, spec workload.Spec, frac float64) (map[string]float64, map[string]int64) {
	t.Helper()
	tr := workload.Synthesize(spec)
	hits := map[string]float64{}
	writes := map[string]int64{}
	for _, po := range Policies(false, true, KDDLevels) {
		label := string(po.Policy)
		if po.Policy == PolicyKDD {
			label = po.label()
		}
		po.CachePages = roundWays(int64(frac*float64(spec.UniqueTotal)), 256)
		r, err := runSim(spec, tr, po)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		hits[label] = r.Cache.HitRatio()
		writes[label] = r.Cache.SSDWrites()
	}
	return hits, writes
}

// label formats a lineup entry's display name.
func (o StackOpts) label() string {
	if o.Policy == PolicyKDD {
		switch {
		case o.DeltaMean >= 0.40:
			return "KDD-50%"
		case o.DeltaMean >= 0.20:
			return "KDD-25%"
		default:
			return "KDD-12%"
		}
	}
	return string(o.Policy)
}

// TestPaperShapeWriteDominant asserts the Figure 5/6 relationships on the
// write-dominant Fin1: WT >= KDD >= LeavO on hit ratio, and KDD's SSD
// writes far below WT and LeavO, ordered by content locality.
func TestPaperShapeWriteDominant(t *testing.T) {
	spec := workload.Fin1.Scale(0.008)
	hits, writes := runPolicies(t, spec, 0.15)

	if hits["WT"]+1e-9 < hits["KDD-25%"] && hits["WT"] < hits["KDD-25%"]-0.03 {
		t.Errorf("WT hit ratio %.3f well below KDD-25%% %.3f", hits["WT"], hits["KDD-25%"])
	}
	if hits["KDD-25%"] < hits["LeavO"]-0.02 {
		t.Errorf("KDD-25%% hit %.3f below LeavO %.3f", hits["KDD-25%"], hits["LeavO"])
	}
	// Stronger locality -> higher hit ratio for KDD.
	if hits["KDD-12%"]+0.02 < hits["KDD-50%"] {
		t.Errorf("KDD-12%% (%.3f) should beat KDD-50%% (%.3f)", hits["KDD-12%"], hits["KDD-50%"])
	}
	// Write traffic ordering: LeavO worst, then WT, then KDD levels, WA least.
	if writes["LeavO"] <= writes["WT"] {
		t.Errorf("LeavO writes %d not above WT %d", writes["LeavO"], writes["WT"])
	}
	if writes["KDD-50%"] >= writes["WT"] {
		t.Errorf("KDD-50%% writes %d not below WT %d", writes["KDD-50%"], writes["WT"])
	}
	if !(writes["KDD-12%"] < writes["KDD-25%"] && writes["KDD-25%"] < writes["KDD-50%"]) {
		t.Errorf("KDD writes not ordered by locality: %v", writes)
	}
	if writes["WA"] >= writes["WT"] {
		t.Errorf("WA writes %d not below WT %d on write-dominant trace", writes["WA"], writes["WT"])
	}
	// Headline: lifetime improvement over LeavO should be clear even at
	// this moderate cache size (the paper's "up to 5.1×" appears at the
	// largest caches; TestLifetimeImprovementLargeCache covers that).
	if imp := float64(writes["LeavO"]) / float64(writes["KDD-12%"]); imp < 1.5 {
		t.Errorf("KDD-12%% lifetime improvement over LeavO only %.2fx", imp)
	}
}

// TestLifetimeImprovementLargeCache checks the headline endurance claim
// at a large cache, where redundant versions and uncoalesced metadata
// hurt LeavO the most.
func TestLifetimeImprovementLargeCache(t *testing.T) {
	spec := workload.Hm0.Scale(0.008)
	_, writes := runPolicies(t, spec, 0.4)
	if imp := float64(writes["LeavO"]) / float64(writes["KDD-12%"]); imp < 2.2 {
		t.Errorf("large-cache KDD-12%% improvement over LeavO only %.2fx", imp)
	}
	if imp := float64(writes["WT"]) / float64(writes["KDD-12%"]); imp < 2.0 {
		t.Errorf("large-cache KDD-12%% improvement over WT only %.2fx", imp)
	}
}

// TestPaperShapeReadDominant asserts the Figure 7/8 relationships on
// Fin2: the traffic gap narrows because read fills dominate.
func TestPaperShapeReadDominant(t *testing.T) {
	spec := workload.Fin2.Scale(0.008)
	hits, writes := runPolicies(t, spec, 0.15)
	if hits["LeavO"] > hits["WT"]+0.02 {
		t.Errorf("LeavO hit %.3f above WT %.3f on read-dominant trace", hits["LeavO"], hits["WT"])
	}
	if writes["KDD-25%"] >= writes["WT"] {
		t.Errorf("KDD writes %d not below WT %d", writes["KDD-25%"], writes["WT"])
	}
	// Reduction should be smaller than on write-dominant traces: the gap
	// between KDD and WA narrows.
	ratioWD := func() float64 {
		s := workload.Fin1.Scale(0.008)
		_, w := runPolicies(t, s, 0.15)
		return float64(w["KDD-25%"]) / float64(w["WA"])
	}()
	ratioRD := float64(writes["KDD-25%"]) / float64(writes["WA"])
	if ratioRD > ratioWD*1.5 && ratioRD > 3 {
		t.Errorf("read-dominant KDD/WA ratio %.2f should be closer than write-dominant %.2f",
			ratioRD, ratioWD)
	}
}

func TestTableIOutput(t *testing.T) {
	out, err := TableI(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Fin1", "Fin2", "Hm0", "Web0", "target"} {
		if !strings.Contains(out, w) {
			t.Fatalf("Table I output missing %q:\n%s", w, out)
		}
	}
}

func TestFig4MetaShareDecreasesWithPartitionSize(t *testing.T) {
	out, series, err := Fig4(tinyScale, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 4") || len(series) != 4 {
		t.Fatalf("fig4 output malformed:\n%s", out)
	}
	for _, se := range series {
		if len(se.Y) != 4 {
			t.Fatalf("series %s has %d points", se.Label, len(se.Y))
		}
		// Larger partitions must not increase the metadata share much;
		// at the paper's 0.59%+ the share should be small (<10% even at
		// tiny scale; the paper reports <1.8% at full scale).
		if se.Y[1] > 12 {
			t.Errorf("%s: meta share %.2f%% at 0.59%% partition is too high", se.Label, se.Y[1])
		}
		if se.Y[3] > se.Y[0]+1e-9 && se.Y[3] > se.Y[0]*1.2 {
			t.Errorf("%s: meta share grew with partition size: %v", se.Label, se.Y)
		}
	}
}

func TestFig9LatencyOrdering(t *testing.T) {
	out, series, err := Fig9(0.002, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 9") {
		t.Fatal("missing title")
	}
	byLabel := map[string][]float64{}
	for _, se := range series {
		byLabel[se.Label] = se.Y
	}
	// KDD must beat Nossd and WT on the write-dominant traces (index 0 =
	// Fin1, 2 = Hm0), the paper's headline latency result.
	for _, wi := range []int{0, 2} {
		if byLabel["KDD"][wi] >= byLabel["Nossd"][wi] {
			t.Errorf("workload %d: KDD %.2fms not below Nossd %.2fms",
				wi, byLabel["KDD"][wi], byLabel["Nossd"][wi])
		}
		if byLabel["KDD"][wi] >= byLabel["WT"][wi] {
			t.Errorf("workload %d: KDD %.2fms not below WT %.2fms",
				wi, byLabel["KDD"][wi], byLabel["WT"][wi])
		}
	}
	// KDD roughly matches LeavO (within 2x) everywhere.
	for wi := range byLabel["KDD"] {
		if byLabel["KDD"][wi] > 2*byLabel["LeavO"][wi] {
			t.Errorf("workload %d: KDD %.2fms far above LeavO %.2fms",
				wi, byLabel["KDD"][wi], byLabel["LeavO"][wi])
		}
	}
}

func TestFig10And11ClosedLoop(t *testing.T) {
	out10, s10, err := Fig10(0.01, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out10, "Figure 10") {
		t.Fatal("fig10 title missing")
	}
	lat := map[string][]float64{}
	for _, se := range s10 {
		lat[se.Label] = se.Y
	}
	// At 0% reads KDD must beat WT and Nossd decisively.
	if lat["KDD"][0] >= lat["WT"][0] || lat["KDD"][0] >= lat["Nossd"][0] {
		t.Errorf("0%% reads: KDD %.2f, WT %.2f, Nossd %.2f",
			lat["KDD"][0], lat["WT"][0], lat["Nossd"][0])
	}
	// KDD's response time is no worse than LeavO's at any read rate: both
	// defer parity and both clean in the background (the paper's Fig. 10
	// has the two curves together).
	for i := range fioReadRates {
		if lat["KDD"][i] > lat["LeavO"][i] {
			t.Errorf("rr %d: KDD %.2fms above LeavO %.2fms", i, lat["KDD"][i], lat["LeavO"][i])
		}
	}

	_, s11, err := Fig11(0.01, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	wr := map[string][]float64{}
	for _, se := range s11 {
		wr[se.Label] = se.Y
	}
	// WA has the least writes; KDD below WT and LeavO at every read rate.
	for i := range fioReadRates {
		if wr["KDD"][i] >= wr["WT"][i] {
			t.Errorf("rr %d: KDD writes %.1f not below WT %.1f", i, wr["KDD"][i], wr["WT"][i])
		}
		if wr["KDD"][i] >= wr["LeavO"][i] {
			t.Errorf("rr %d: KDD writes %.1f not below LeavO %.1f", i, wr["KDD"][i], wr["LeavO"][i])
		}
		if wr["WA"][i] > wr["WT"][i] {
			t.Errorf("rr %d: WA writes %.1f above WT %.1f", i, wr["WA"][i], wr["WT"][i])
		}
	}
	// The WA-KDD gap narrows as the read rate rises.
	gap0 := wr["KDD"][0] / wr["WA"][0]
	gap3 := wr["KDD"][3] / wr["WA"][3]
	if gap3 > gap0 {
		t.Errorf("KDD/WA gap widened with read rate: %.2f -> %.2f", gap0, gap3)
	}
}

func TestTableIIDerived(t *testing.T) {
	out, err := TableII(0.01, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"WT", "WA", "LeavO", "KDD"} {
		if !strings.Contains(out, w) {
			t.Fatalf("Table II missing %s:\n%s", w, out)
		}
	}
}

func TestAblations(t *testing.T) {
	if out, err := AblationPartition(tinyScale, "kdd"); err != nil || !strings.Contains(out, "dynamic") {
		t.Fatalf("partition ablation: %v\n%s", err, out)
	}
	if out, err := AblationReclaim(tinyScale, "kdd"); err != nil || !strings.Contains(out, "materialise") {
		t.Fatalf("reclaim ablation: %v\n%s", err, out)
	}
	if out, err := AblationMetaLog(tinyScale, "kdd"); err != nil || !strings.Contains(out, "circular log") {
		t.Fatalf("metalog ablation: %v\n%s", err, out)
	}
}

func TestLifetimeSummary(t *testing.T) {
	out, err := LifetimeSummary(tinyScale, "kdd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vs LeavO") {
		t.Fatalf("lifetime summary malformed:\n%s", out)
	}
}

func TestFigures5Through8Render(t *testing.T) {
	for name, f := range map[string]func(float64, string) (string, error){
		"Fig5": Fig5, "Fig6": Fig6, "Fig7": Fig7, "Fig8": Fig8,
	} {
		out, err := f(tinyScale, "kdd")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "cache(Kpg)") {
			t.Fatalf("%s output malformed:\n%s", name, out)
		}
	}
}
