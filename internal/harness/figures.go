package harness

import (
	"fmt"
	"strings"

	"kddcache/internal/obs"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// KDDLevels are the content-locality levels evaluated throughout
// (§IV-A2): average delta compression ratios 50%, 25%, 12%.
var KDDLevels = []float64{0.50, 0.25, 0.12}

// cacheFractions are the cache-size sweep points as fractions of each
// workload's unique-page footprint (the paper sweeps absolute page counts
// per trace; fractions preserve the relative coverage at any scale).
var cacheFractions = []float64{0.05, 0.10, 0.20, 0.40, 0.80}

// CellOpts places o's policy knobs (policy, locality, cache size,
// metadata share, timing, ...) on the geometry of one figure cell
// (§IV-A1): the members hold spec's footprint, or tr's highest page when
// a recorded trace reaches further, and spec's seed drives the stack.
// Figures 4–8 run it on null devices; Fig. 9, the phases experiment and
// kddsim -timed set o.Timing.
func CellOpts(spec workload.Spec, tr *trace.Trace, o StackOpts) StackOpts {
	foot := max(spec.UniqueTotal, tr.MaxLBA())
	o.DiskPages = roundWays(foot/4+4096, 16) // 5-disk RAID-5: 4 data chunks
	o.Seed = spec.Seed
	return o
}

// WideCellOpts is CellOpts with 8192 pages of member headroom over the
// footprint instead of 4096: the geometry of the timing experiments that
// lose a member or crash the cache (rebuild impact, degraded mode,
// recovery tradeoff) and of the motivation table. kddsim builds it for a
// run that kills or replaces a member.
func WideCellOpts(spec workload.Spec, tr *trace.Trace, o StackOpts) StackOpts {
	o = CellOpts(spec, tr, o)
	o.DiskPages += 4096
	return o
}

// quarterCache is the cache of the timing figures: a quarter of spec's
// footprint in whole sets.
func quarterCache(spec workload.Spec) int64 {
	return roundWays(int64(0.25*float64(spec.UniqueTotal)), 256)
}

// roundWays rounds a cache size to whole sets.
func roundWays(pages int64, ways int) int64 {
	if pages < int64(ways) {
		return int64(ways)
	}
	return pages - pages%int64(ways)
}

// policyLabel is the sweep-figure legend label for a lineup entry.
func policyLabel(po StackOpts) string {
	if po.Policy == PolicyKDD {
		return fmt.Sprintf("KDD-%d%%", int(po.DeltaMean*100+0.5))
	}
	return string(po.Policy)
}

// runSim replays a synthesized workload through one policy and returns
// the result.
func runSim(spec workload.Spec, tr *trace.Trace, o StackOpts) (*Result, error) {
	st, err := Build(CellOpts(spec, tr, o))
	if err != nil {
		return nil, err
	}
	r, err := RunTrace(st, tr)
	if err != nil {
		return nil, err
	}
	if _, err := st.Policy.Flush(r.Duration); err != nil {
		return nil, err
	}
	r.Cache = st.Policy.Stats()
	return r, nil
}

// synthesizeAll scales and synthesizes every workload concurrently. The
// returned traces are read-only and safe to share across jobs.
func synthesizeAll(e Env, specs []workload.Spec) ([]workload.Spec, []*trace.Trace, error) {
	scaled := make([]workload.Spec, len(specs))
	traces, err := FanOut(e.Parallel, len(specs), func(i int) (*trace.Trace, error) {
		scaled[i] = specs[i].Scale(e.Scale)
		return workload.Synthesize(scaled[i]), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return scaled, traces, nil
}

// TableI formats the synthesized workload characteristics next to the
// paper's Table I targets.
func TableI(e Env) (Output, error) {
	specs := workload.TableI()
	_, traces, err := synthesizeAll(e, specs)
	if err != nil {
		return Output{}, err
	}
	scale := e.Scale
	var b strings.Builder
	fmt.Fprintf(&b, "== Table I: workload characteristics (scale %.3g) ==\n", scale)
	fmt.Fprintf(&b, "%-12s %14s %14s %14s %12s %12s %10s\n",
		"Workload", "Unique(tot)", "Unique(rd)", "Unique(wr)", "Reads", "Writes", "RdRatio")
	for i, spec := range specs {
		st := traces[i].Stats()
		fmt.Fprintf(&b, "%-12s %14d %14d %14d %12d %12d %10.2f\n",
			spec.Name, st.UniqueTotal, st.UniqueRead, st.UniqueWrite,
			st.ReadPages, st.WritePages, st.ReadRatio)
		fmt.Fprintf(&b, "%-12s %14d %14d %14d %12d %12d %10.2f  (paper x scale)\n",
			"  target", int64(float64(spec.UniqueTotal)*scale),
			int64(float64(spec.UniqueRead)*scale), int64(float64(spec.UniqueWrite)*scale),
			int64(float64(spec.ReadPages)*scale), int64(float64(spec.WritePages)*scale),
			spec.ReadRatio())
	}
	return Output{Text: b.String()}, nil
}

// Fig4 explores metadata partition sizing: the share of cache write
// traffic spent on metadata I/O for partition sizes 0.39–0.98% of the
// SSD, per workload, at a representative cache size. KDD-25% over the
// Env's backend.
func Fig4(e Env) (Output, error) {
	fractions := []float64{0.0039, 0.0059, 0.0078, 0.0098}
	specs := workload.TableI()
	scaled, traces, err := synthesizeAll(e, specs)
	if err != nil {
		return Output{}, err
	}
	nf := len(fractions)
	ys, err := FanOut(e.Parallel, len(specs)*nf, func(i int) (float64, error) {
		si, fi := i/nf, i%nf
		s, mf := scaled[si], fractions[fi]
		cachePages := roundWays(int64(0.2*float64(s.UniqueTotal)), 256)
		r, err := runSim(s, traces[si], StackOpts{
			Policy: PolicyKDD, Backend: e.Backend, DeltaMean: 0.25,
			CachePages: cachePages, MetaFrac: mf,
		})
		if err != nil {
			return 0, fmt.Errorf("fig4 %s mf=%.4f: %w", specs[si].Name, mf, err)
		}
		return r.Cache.MetaShare() * 100, nil
	})
	if err != nil {
		return Output{}, err
	}
	var series []stats.Series
	for si, spec := range specs {
		se := stats.Series{Label: spec.Name}
		for fi, mf := range fractions {
			se.X = append(se.X, mf*100)
			se.Y = append(se.Y, ys[si*nf+fi])
		}
		series = append(series, se)
	}
	return Output{Text: stats.Table("Figure 4: metadata I/O share (%) vs metadata partition size (% of SSD)",
		"meta part(%)", series), XName: "metaPartPct", Series: series}, nil
}

// sweepResult bundles the per-policy curves of one workload sweep.
type sweepResult struct {
	workload string
	hit      []stats.Series // hit ratio per policy
	traffic  []stats.Series // SSD writes (pages) per policy
}

// sweepPoint is one (policy × cache size) measurement.
type sweepPoint struct {
	x, hit, traffic float64
}

// sweepAll runs the cache-size sweep of all policies over every workload
// on the Env's backend, fanning the independent (workload × policy ×
// size) points over the worker pool in one flat batch.
func sweepAll(e Env, specs []workload.Spec, withWA bool) ([]*sweepResult, error) {
	scaled, traces, err := synthesizeAll(e, specs)
	if err != nil {
		return nil, err
	}
	lineup := Policies(false, withWA, KDDLevels)
	nf := len(cacheFractions)
	perSpec := len(lineup) * nf
	pts, err := FanOut(e.Parallel, len(specs)*perSpec, func(i int) (sweepPoint, error) {
		si := i / perSpec
		po := lineup[(i%perSpec)/nf]
		frac := cacheFractions[i%nf]
		s := scaled[si]
		po.Backend = e.Backend
		po.CachePages = roundWays(int64(frac*float64(s.UniqueTotal)), 256)
		r, err := runSim(s, traces[si], po)
		if err != nil {
			return sweepPoint{}, fmt.Errorf("sweep %s %s: %w", specs[si].Name, policyLabel(po), err)
		}
		return sweepPoint{
			x:       float64(po.CachePages) / 1000,
			hit:     r.Cache.HitRatio(),
			traffic: float64(r.Cache.SSDWrites()) / 1000,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*sweepResult, len(specs))
	for si, spec := range specs {
		sr := &sweepResult{workload: spec.Name}
		for pi, po := range lineup {
			label := policyLabel(po)
			hit := stats.Series{Label: label}
			traffic := stats.Series{Label: label}
			for fi := range cacheFractions {
				p := pts[si*perSpec+pi*nf+fi]
				hit.X = append(hit.X, p.x)
				hit.Y = append(hit.Y, p.hit)
				traffic.X = append(traffic.X, p.x)
				traffic.Y = append(traffic.Y, p.traffic)
			}
			sr.hit = append(sr.hit, hit)
			sr.traffic = append(sr.traffic, traffic)
		}
		out[si] = sr
	}
	return out, nil
}

// Fig5 and Fig6: write-dominant traces (Fin1, Hm0).
// Fig7 and Fig8: read-dominant traces (Fin2, Web0).

// sweepFigure renders one panel per workload of a cache-size sweep in
// e, tabulating the curves series picks from it, labelled what.
func sweepFigure(e Env, title, what string, specs []workload.Spec, series func(*sweepResult) []stats.Series) (Output, error) {
	srs, err := sweepAll(e, specs, true)
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	for i, spec := range specs {
		b.WriteString(stats.Table(fmt.Sprintf("%s — %s: %s vs cache size (Kpages)", title, spec.Name, what),
			"cache(Kpg)", series(srs[i])))
	}
	return Output{Text: b.String()}, nil
}

// hitOnly filters WA out of hit-ratio figures (the paper omits WA there:
// all writes bypass the cache).
func hitOnly(sr *sweepResult) []stats.Series {
	var out []stats.Series
	for _, s := range sr.hit {
		if s.Label != string(PolicyWA) {
			out = append(out, s)
		}
	}
	return out
}

// traffic returns a sweep's SSD write-traffic curves.
func traffic(sr *sweepResult) []stats.Series { return sr.traffic }

// Fig5 is the write-dominant hit-ratio figure.
func Fig5(e Env) (Output, error) {
	return sweepFigure(e, "Figure 5", "hit ratio", []workload.Spec{workload.Fin1, workload.Hm0}, hitOnly)
}

// Fig6 is the write-dominant SSD-write-traffic figure.
func Fig6(e Env) (Output, error) {
	return sweepFigure(e, "Figure 6", "SSD writes (Kpages)", []workload.Spec{workload.Fin1, workload.Hm0}, traffic)
}

// Fig7 is the read-dominant hit-ratio figure.
func Fig7(e Env) (Output, error) {
	return sweepFigure(e, "Figure 7", "hit ratio", []workload.Spec{workload.Fin2, workload.Web0}, hitOnly)
}

// Fig8 is the read-dominant SSD-write-traffic figure.
func Fig8(e Env) (Output, error) {
	return sweepFigure(e, "Figure 8", "SSD writes (Kpages)", []workload.Spec{workload.Fin2, workload.Web0}, traffic)
}

// ReplayIOPS sets the open-loop replay rate per Table-I workload (the
// Fig. 9 replays, phases, kddsim -timed): roughly the natural rates of
// the original traces, low enough that the cacheless baseline saturates
// but does not diverge.
var ReplayIOPS = map[string]float64{
	"Fin1": 80, "Fin2": 120, "Hm0": 80, "Web0": 110,
}

// fig9Trace scales spec and synthesizes it at its ReplayIOPS rate: the
// trace every Fig. 9 cell of that workload replays (read-only, so the
// cells may share it).
func fig9Trace(spec workload.Spec, scale float64) (workload.Spec, *trace.Trace) {
	s := spec.Scale(scale)
	s.MeanIOPS = ReplayIOPS[spec.Name]
	return s, workload.Synthesize(s)
}

// fig9Cell runs one Fig. 9 cell: the fig9Trace s, tr replayed open-loop
// through po's policy and locality over po's backend on the timing stack
// with a quarter-footprint cache, traced into ob when non-nil, then
// flushed.
func fig9Cell(s workload.Spec, tr *trace.Trace, po StackOpts, ob *obs.Obs) (*Stack, *Result, error) {
	st, err := Build(CellOpts(s, tr, StackOpts{
		Policy:     po.Policy,
		Backend:    po.Backend,
		DeltaMean:  po.DeltaMean,
		CachePages: quarterCache(s),
		Timing:     true,
		Obs:        ob,
	}))
	if err != nil {
		return nil, nil, err
	}
	r, err := RunTrace(st, tr)
	if err == nil {
		_, err = st.Policy.Flush(r.Duration)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", s.Name, po.Policy, err)
	}
	return st, r, nil
}

// Fig9 measures average response time via open-loop trace replay on the
// timing stack (HDD models + flash model): the prototype experiment of
// §IV-B2. KDD runs at medium content locality (25%), like the paper.
// Each workload is synthesized once and replayed by all of its cells.
func Fig9(e Env) (Output, error) {
	lineup := Policies(true, true, []float64{0.25})
	specs := workload.TableI()
	nw := len(specs)
	scaled := make([]workload.Spec, nw)
	traces, err := FanOut(e.Parallel, nw, func(i int) (*trace.Trace, error) {
		var tr *trace.Trace
		scaled[i], tr = fig9Trace(specs[i], e.Scale)
		return tr, nil
	})
	if err != nil {
		return Output{}, err
	}
	ys, err := FanOut(e.Parallel, len(lineup)*nw, func(i int) (float64, error) {
		po := lineup[i/nw]
		po.Backend = e.Backend
		_, r, err := fig9Cell(scaled[i%nw], traces[i%nw], po, nil)
		if err != nil {
			return 0, fmt.Errorf("fig9 %w", err)
		}
		return r.MeanResponseMs(), nil
	})
	if err != nil {
		return Output{}, err
	}
	series := lineupSeries(lineup, []float64{0, 1, 2, 3}, ys)
	var b strings.Builder
	b.WriteString("== Figure 9: average response time (ms), open-loop replay ==\n")
	b.WriteString("(x: 0=Fin1 1=Fin2 2=Hm0 3=Web0)\n")
	b.WriteString(stats.Table("Figure 9", "workload#", series))
	return Output{Text: b.String(), XName: "workloadIdx", Series: series}, nil
}

// fioReadRates are the §IV-B3 sweep points.
var fioReadRates = []float64{0, 0.25, 0.50, 0.75}

// RunFIO executes the closed-loop benchmark (one Fig. 10/11 cell) for
// po's policy and content locality over po's backend at one read rate.
// The figures run KDD
// at the paper's medium locality, 25%.
func RunFIO(po StackOpts, readRate, scale float64) (*Result, error) {
	spec := workload.DefaultFIO(readRate).Scale(scale)
	// Cache = 1GB scaled; working set 1.6GB scaled (larger than cache,
	// like the paper).
	st, err := Build(StackOpts{
		Policy:     po.Policy,
		Backend:    po.Backend,
		DeltaMean:  po.DeltaMean,
		CachePages: roundWays(int64(262144*scale), 256),
		DiskPages:  roundWays(spec.WorkingSetPages/2+8192, 16),
		Timing:     true,
		Seed:       7,
	})
	if err != nil {
		return nil, err
	}
	return RunClosedLoop(st, spec)
}

// fioFigure fans the (policy × read rate) closed-loop grid in e over the
// worker pool and tabulates y of every cell against the read rate.
func fioFigure(e Env, lineup []StackOpts, figure, title string, y func(*Result) float64) (Output, error) {
	nr := len(fioReadRates)
	ys, err := FanOut(e.Parallel, len(lineup)*nr, func(i int) (float64, error) {
		po, rr := lineup[i/nr], fioReadRates[i%nr]
		po.Backend = e.Backend
		r, err := RunFIO(po, rr, e.Scale)
		if err != nil {
			return 0, fmt.Errorf("%s %s rr=%.2f: %w", figure, po.Policy, rr, err)
		}
		return y(r), nil
	})
	if err != nil {
		return Output{}, err
	}
	xs := make([]float64, nr)
	for i, rr := range fioReadRates {
		xs[i] = rr * 100
	}
	series := lineupSeries(lineup, xs, ys)
	return Output{Text: stats.Table(title, "read rate(%)", series), XName: "readRatePct", Series: series}, nil
}

// lineupSeries arranges ys, indexed [policy][x], as one series per
// lineup entry over xs.
func lineupSeries(lineup []StackOpts, xs, ys []float64) []stats.Series {
	series := make([]stats.Series, len(lineup))
	for pi, po := range lineup {
		series[pi] = stats.Series{Label: string(po.Policy), X: xs, Y: ys[pi*len(xs) : (pi+1)*len(xs)]}
	}
	return series
}

// Fig10 is the closed-loop average response time sweep over read rates.
func Fig10(e Env) (Output, error) {
	return fioFigure(e, Policies(true, true, []float64{0.25}), "fig10",
		"Figure 10: average response time (ms) vs read rate (%), FIO closed loop", (*Result).MeanResponseMs)
}

// Fig11 is the closed-loop SSD write traffic sweep over read rates.
func Fig11(e Env) (Output, error) {
	return fioFigure(e, Policies(false, true, []float64{0.25}), "fig11",
		"Figure 11: SSD write traffic (Kpages) vs read rate (%), FIO closed loop",
		func(r *Result) float64 { return float64(r.Cache.SSDWrites()) / 1000 })
}

// TableII derives the qualitative policy comparison from a quick
// closed-loop run at 25% reads in e.
func TableII(e Env) (Output, error) {
	type row struct {
		name    string
		latency float64
		writes  int64
	}
	lineup := Policies(false, true, []float64{0.25})
	rows, err := FanOut(e.Parallel, len(lineup), func(i int) (row, error) {
		po := lineup[i]
		po.Backend = e.Backend
		r, err := RunFIO(po, 0.25, e.Scale)
		if err != nil {
			return row{}, err
		}
		return row{string(po.Policy), r.MeanResponseMs(), r.Cache.SSDWrites()}, nil
	})
	if err != nil {
		return Output{}, err
	}
	// Latency is "Low" if within 1.3x of the best; endurance is "Good" if
	// SSD writes within 2x of the fewest (WA's read-fill-only floor).
	bestLat, bestWr := rows[0].latency, rows[0].writes
	for _, r := range rows[1:] {
		if r.latency < bestLat {
			bestLat = r.latency
		}
		if r.writes < bestWr {
			bestWr = r.writes
		}
	}
	var b strings.Builder
	b.WriteString("== Table II: comparison of caching policies (derived) ==\n")
	fmt.Fprintf(&b, "%-10s %14s %16s %12s %14s\n", "Policy", "I/O latency", "SSD endurance", "mean(ms)", "SSD writes")
	for _, r := range rows {
		lat := "High"
		if r.latency <= 1.3*bestLat {
			lat = "Low"
		}
		end := "Bad"
		if float64(r.writes) <= 2.0*float64(bestWr) {
			end = "Good"
		}
		fmt.Fprintf(&b, "%-10s %14s %16s %12.2f %14d\n", r.name, lat, end, r.latency, r.writes)
	}
	return Output{Text: b.String()}, nil
}
