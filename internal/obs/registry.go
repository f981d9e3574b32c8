package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Registry is a snapshot-style metrics registry: layers publish their
// current counters and gauges into it after a run (or at a checkpoint),
// and it renders deterministic Prometheus exposition text.
//
// Naming scheme: `layer_metric_unit_total` for counters
// (`kdd_read_hits_total`), `layer_metric` for gauges (`kdd_dirty_pages`),
// with labels embedded in the series name (`hdd_reads_total{disk="0"}`).
// The family is the name up to the label block; series of one family
// share HELP/TYPE and must be published with the same kind.
type Registry struct {
	m map[string]*metric
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

func (k metricKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

type metric struct {
	name   string // full series name, labels included
	family string // the name up to the label block
	help   string
	kind   metricKind
	ival   int64
	fval   float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*metric)} }

// family returns a series name up to its label block.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i]
	}
	return name
}

func (r *Registry) set(name, help string, kind metricKind) *metric {
	m, ok := r.m[name]
	if !ok {
		m = &metric{name: name, family: family(name)}
		r.m[name] = m
	}
	m.help = help
	m.kind = kind
	return m
}

// SetCounter publishes a monotonic counter series.
func (r *Registry) SetCounter(name, help string, v int64) {
	r.set(name, help, kindCounter).ival = v
}

// SetGauge publishes a gauge series.
func (r *Registry) SetGauge(name, help string, v float64) {
	r.set(name, help, kindGauge).fval = v
}

// Counter returns the value of a counter series (0, false if absent or
// not a counter). Test and assertion helper.
func (r *Registry) Counter(name string) (int64, bool) {
	m, ok := r.m[name]
	if !ok || m.kind != kindCounter {
		return 0, false
	}
	return m.ival, true
}

// Gauge returns the value of a gauge series (0, false if absent or not
// a gauge).
func (r *Registry) Gauge(name string) (float64, bool) {
	m, ok := r.m[name]
	if !ok || m.kind != kindGauge {
		return 0, false
	}
	return m.fval, true
}

// Len returns the number of published series.
func (r *Registry) Len() int { return len(r.m) }

func (r *Registry) sorted() []*metric {
	ms := make([]*metric, 0, len(r.m))
	for _, m := range r.m {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].name < ms[j].name
	})
	return ms
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry as Prometheus text exposition,
// sorted by (family, series) so equal registries produce equal bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.family != lastFamily {
			lastFamily = m.family
			help := m.help
			if help == "" {
				help = m.family
			}
			fmt.Fprintf(&b, "# HELP %s %s\n", m.family, help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, m.kind)
		}
		if m.kind == kindCounter {
			fmt.Fprintf(&b, "%s %d\n", m.name, m.ival)
		} else {
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.fval))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Validate checks every published series for sanity: counters must be
// non-negative, gauges finite, and one family must not mix metric kinds. The crash-recovery
// checker runs this after every restore.
func (r *Registry) Validate() error {
	kinds := make(map[string]metricKind)
	for _, m := range r.sorted() {
		if prev, ok := kinds[m.family]; ok && prev != m.kind {
			return fmt.Errorf("obs: family %s mixes kinds %s and %s", m.family, prev, m.kind)
		}
		kinds[m.family] = m.kind
		switch m.kind {
		case kindCounter:
			if m.ival < 0 {
				return fmt.Errorf("obs: counter %s is negative (%d)", m.name, m.ival)
			}
		case kindGauge:
			if math.IsNaN(m.fval) || math.IsInf(m.fval, 0) {
				return fmt.Errorf("obs: gauge %s is not finite (%v)", m.name, m.fval)
			}
		}
	}
	return nil
}
