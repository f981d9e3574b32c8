package harness

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"kddcache/internal/obs"
	"kddcache/internal/qos"
	"kddcache/internal/workload"
)

// This file implements the "phases" experiment: an open-loop replay of the
// Table-I workloads through the KDD timing stack with the span tracer
// attached, producing the per-phase latency attribution the paper's prose
// argues about (where does a cached write spend its time — NVRAM staging,
// metalog append, or the RAID small-write?) as hard numbers. Each workload
// runs with its own tracer so the fan-out stays deterministic at any
// worker-pool width; profiles are merged in workload order afterwards.

// phaseOut is one workload's observability harvest.
type phaseOut struct {
	name  string
	ob    *obs.Obs
	st    *Stack
	spans uint64
}

// phaseRun replays one Table-I workload through a traced KDD stack over
// e's backend.
func phaseRun(e Env, spec workload.Spec) (*phaseOut, error) {
	ob := obs.New()
	s, tr := fig9Trace(spec, e.Scale)
	st, _, err := fig9Cell(s, tr, StackOpts{Policy: PolicyKDD, Backend: e.Backend, DeltaMean: 0.25}, ob)
	if err != nil {
		return nil, fmt.Errorf("phases %w", err)
	}
	if err := checkTrace(ob.Tracer); err != nil {
		return nil, fmt.Errorf("phases %s: %w", spec.Name, err)
	}
	return &phaseOut{name: spec.Name, ob: ob, st: st, spans: ob.Tracer.Spans()}, nil
}

// phaseRuns fans the Table-I workloads in e over the worker pool and
// merges their observability output in workload order (deterministic at
// any pool width).
func phaseRuns(e Env) ([]*phaseOut, error) {
	specs := workload.TableI()
	return FanOut(e.Parallel, len(specs), func(i int) (*phaseOut, error) {
		return phaseRun(e, specs[i])
	})
}

// PhaseBreakdown regenerates the per-phase latency attribution table:
// one profile block per workload plus the all-workload merge.
func PhaseBreakdown(e Env) (Output, error) {
	outs, err := phaseRuns(e)
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	b.WriteString("== Phase-attributed latency (KDD, open-loop replay) ==\n")
	merged := obs.NewProfile()
	for _, po := range outs {
		fmt.Fprintf(&b, "\n-- %s (%d spans) --\n", po.name, po.spans)
		b.WriteString(po.ob.Profile().Table())
		merged.Merge(po.ob.Profile())
	}
	b.WriteString("\n-- all workloads --\n")
	b.WriteString(merged.Table())
	return Output{Text: b.String()}, nil
}

// ObsOverheadRun replays the Fin1 workload through the KDD timing stack
// once, with or without the span tracer attached, and returns the number
// of spans the traced run emitted (0 untraced). harnessbench times both
// variants and divides the difference by that count: the tracer's cost in
// host nanoseconds per span, which its gate bounds.
func ObsOverheadRun(scale float64, traced bool) (spans uint64, err error) {
	var ob *obs.Obs
	if traced {
		ob = obs.New()
		defer ob.Release() // recycle ring storage across timing runs
	}
	s, tr := fig9Trace(workload.TableI()[0], scale)
	if _, _, err := fig9Cell(s, tr, StackOpts{Policy: PolicyKDD, DeltaMean: 0.25}, ob); err != nil {
		return 0, err
	}
	if traced {
		spans = ob.Tracer.Spans()
	}
	return spans, nil
}

// PhaseArtifacts produces the machine-readable observability artifacts of
// the phases experiment in e: the concatenated JSONL trace (per-workload
// tracers back to back, in Table-I order) and the Prometheus text
// exposition of the merged registry. Both are byte-identical at any
// worker-pool width and across same-seed runs; the golden tests pin them
// on the kdd backend.
func PhaseArtifacts(e Env) (trace, prom []byte, err error) {
	outs, err := phaseRuns(e)
	if err != nil {
		return nil, nil, err
	}
	merged := obs.NewProfile()
	var buf bytes.Buffer
	for _, po := range outs {
		buf.Write(po.ob.TraceJSONL())
		merged.Merge(po.ob.Profile())
	}
	// Registry contents come from the last workload's stack (device and
	// engine counters) plus the merged phase profile: a representative,
	// fully-populated exposition with every metric family present.
	prom, err = outs[len(outs)-1].st.prometheus(merged)
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), prom, nil
}

// prometheus renders the validated Prometheus text exposition of st's
// device and engine counters followed by each publisher's metrics.
func (st *Stack) prometheus(pubs ...interface{ Publish(*obs.Registry) }) ([]byte, error) {
	reg := obs.NewRegistry()
	st.PublishMetrics(reg)
	for _, p := range pubs {
		p.Publish(reg)
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// checkTrace reports a traced run whose instrumentation was unbalanced:
// a structural misuse the tracer recorded, or spans still open after the
// run's final flush.
func checkTrace(tr *obs.Tracer) error {
	if err := tr.Err(); err != nil {
		return fmt.Errorf("trace integrity: %w", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		return fmt.Errorf("trace integrity: %d spans still open after flush", n)
	}
	return nil
}

// ExportObs is the single-run export of kddsim (untimed and -timed): it checks
// the flushed run's trace (checkTrace), then writes the JSONL span trace
// to tracePath and a validated Prometheus snapshot of the stack, the
// phase profile and ctl (when non-nil) to promPath. An empty path skips
// that file; each file written is reported on stderr. The stack must
// have been built with an Obs.
func (st *Stack) ExportObs(tracePath, promPath string, ctl *qos.Controller) error {
	ob := st.Opts.Obs
	if err := checkTrace(ob.Tracer); err != nil {
		return err
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, ob.TraceJSONL(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote span trace to %s\n", tracePath)
	}
	if promPath == "" {
		return nil
	}
	pubs := []interface{ Publish(*obs.Registry) }{ob}
	if ctl != nil {
		pubs = append(pubs, ctl)
	}
	prom, err := st.prometheus(pubs...)
	if err != nil {
		return err
	}
	if err := os.WriteFile(promPath, prom, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", promPath)
	return nil
}
