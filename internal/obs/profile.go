package obs

import (
	"fmt"
	"sort"
	"strings"

	"kddcache/internal/sim"
)

// Profile attributes each operation's virtual time to the phases
// beneath it; it is built from a ring with Ring.Trees(p.Tree). Attribution is an interval sweep over the
// root's window: every elementary time segment is credited to the
// innermost attributable span covering it (for spans opened at the same
// instant, the later-opened one), segments no attributable span covers
// are credited to "self", and child spans are clipped to the root
// window (work that outlives the request, like an async cache fill,
// counts only for its overlap). The credited phase times plus self
// therefore sum exactly to the operation's duration.
type Profile struct {
	ops [phaseCount]*opProfile
}

type opProfile struct {
	count int64
	total int64 // summed op duration, virtual ns
	self  int64
	phase [phaseCount]int64

	// sweep scratch, reused across trees
	ivals []ival
	pts   []sim.Time
}

type ival struct {
	b, e  sim.Time
	order int
	phase Phase
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

func (p *Profile) op(ph Phase) *opProfile {
	if p.ops[ph] == nil {
		p.ops[ph] = &opProfile{}
	}
	return p.ops[ph]
}

// Tree attributes one span tree, root first.
func (p *Profile) Tree(spans []Record) {
	if len(spans) == 0 {
		return
	}
	root := &spans[0]
	op := p.op(root.Phase)
	rb, re := root.Begin, root.End
	op.count++
	op.total += int64(re - rb)
	if re <= rb {
		return
	}

	iv := op.ivals[:0]
	for i := 1; i < len(spans); i++ {
		s := &spans[i]
		if !s.Phase.Attributable() {
			continue
		}
		b, e := s.Begin, s.End
		if b < rb {
			b = rb
		}
		if e > re {
			e = re
		}
		if e <= b {
			continue
		}
		iv = append(iv, ival{b: b, e: e, order: i, phase: s.Phase})
	}
	op.ivals = iv

	pts := op.pts[:0]
	pts = append(pts, rb, re)
	for i := range iv {
		pts = append(pts, iv[i].b, iv[i].e)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	op.pts = pts

	for i := 0; i+1 < len(pts); i++ {
		p0, p1 := pts[i], pts[i+1]
		if p1 <= p0 {
			continue
		}
		best := -1
		for j := range iv {
			if iv[j].b <= p0 && iv[j].e >= p1 && (best < 0 || iv[j].order > iv[best].order) {
				best = j
			}
		}
		d := int64(p1 - p0)
		if best >= 0 {
			op.phase[iv[best].phase] += d
		} else {
			op.self += d
		}
	}
}

// Merge folds o into p.
func (p *Profile) Merge(o *Profile) {
	for ph := range o.ops {
		if o.ops[ph] == nil {
			continue
		}
		dst, src := p.op(Phase(ph)), o.ops[ph]
		dst.count += src.count
		dst.total += src.total
		dst.self += src.self
		for i := range src.phase {
			dst.phase[i] += src.phase[i]
		}
	}
}

// Ops returns how many operations of root phase ph were profiled.
func (p *Profile) Ops(ph Phase) int64 {
	if p.ops[ph] == nil {
		return 0
	}
	return p.ops[ph].count
}

// PhaseNs returns the total virtual nanoseconds attributed to phase ph
// under operations of root phase op.
func (p *Profile) PhaseNs(op, ph Phase) int64 {
	if p.ops[op] == nil {
		return 0
	}
	return p.ops[op].phase[ph]
}

// SelfNs returns the unattributed (self) nanoseconds of op.
func (p *Profile) SelfNs(op Phase) int64 {
	if p.ops[op] == nil {
		return 0
	}
	return p.ops[op].self
}

// TotalNs returns the summed duration of operations of root phase op.
func (p *Profile) TotalNs(op Phase) int64 {
	if p.ops[op] == nil {
		return 0
	}
	return p.ops[op].total
}

// Publish writes the profile into reg as counters:
// obs_ops_total{op=...}, obs_op_ns_total{op=...}, and
// obs_phase_ns_total{op=...,phase=...} (self time under phase="self").
func (p *Profile) Publish(reg *Registry) {
	for _, ph := range Phases() {
		op := p.ops[ph]
		if op == nil || op.count == 0 {
			continue
		}
		lbl := `{op="` + ph.String() + `"}`
		reg.SetCounter("obs_ops_total"+lbl, "Operations profiled, by root phase.", op.count)
		reg.SetCounter("obs_op_ns_total"+lbl, "Summed operation duration in virtual nanoseconds.", op.total)
		for _, sub := range Phases() {
			if op.phase[sub] != 0 {
				reg.SetCounter(
					"obs_phase_ns_total"+`{op="`+ph.String()+`",phase="`+sub.String()+`"}`,
					"Virtual nanoseconds attributed to each phase of an operation.",
					op.phase[sub])
			}
		}
		if op.self != 0 {
			reg.SetCounter("obs_phase_ns_total"+`{op="`+ph.String()+`",phase="self"}`,
				"Virtual nanoseconds attributed to each phase of an operation.", op.self)
		}
	}
}

// Table renders the profile as a fixed-width text table (µs per op and
// share of op time per phase), deterministically ordered.
func (p *Profile) Table() string {
	var b strings.Builder
	b.WriteString("phase-attributed latency (virtual time)\n")
	b.WriteString("op       ops        mean_us      phase         us_per_op   share\n")
	any := false
	for _, ph := range Phases() {
		op := p.ops[ph]
		if op == nil || op.count == 0 {
			continue
		}
		any = true
		mean := float64(op.total) / float64(op.count) / 1e3
		fmt.Fprintf(&b, "%-8s %-10d %-12.1f ", ph, op.count, mean)
		first := true
		row := func(name string, ns int64) {
			if ns == 0 {
				return
			}
			share := 0.0
			if op.total > 0 {
				share = 100 * float64(ns) / float64(op.total)
			}
			if !first {
				b.WriteString(strings.Repeat(" ", 33))
			}
			first = false
			fmt.Fprintf(&b, "%-13s %-11.1f %5.1f%%\n", name, float64(ns)/float64(op.count)/1e3, share)
		}
		for _, sub := range Phases() {
			row(sub.String(), op.phase[sub])
		}
		row("(self)", op.self)
		if first { // op had no attributed time at all (e.g. zero-latency sim)
			b.WriteString("-\n")
		}
	}
	if !any {
		b.WriteString("(no operations profiled)\n")
	}
	return b.String()
}
