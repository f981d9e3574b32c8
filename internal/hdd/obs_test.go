package hdd

import (
	"testing"

	"kddcache/internal/obs"
)

// TestTracerAndMetrics attaches a tracer to a disk and checks span
// balance plus the per-disk labelled metrics.
func TestTracerAndMetrics(t *testing.T) {
	d := New("hdd7", testCfg(), 1)
	ob := obs.New()
	tr := ob.Tracer
	d.SetTracer(tr)

	if _, err := d.WritePages(0, 0, 8, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPages(0, 0, 8, nil); err != nil {
		t.Fatal(err)
	}

	if err := tr.Err(); err != nil {
		t.Fatalf("trace integrity: %v", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	if n := ob.Ring().Spans(); n != 2 {
		t.Fatalf("recorded %d spans, want 2", n)
	}

	reg := obs.NewRegistry()
	d.PublishMetrics(reg)
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Counter(`hdd_reads_total{disk="hdd7"}`); !ok || v != 1 {
		t.Fatalf(`hdd_reads_total{disk="hdd7"} = %d,%v, want 1,true`, v, ok)
	}
	if v, ok := reg.Counter(`hdd_busy_ns_total{disk="hdd7"}`); !ok || v == 0 {
		t.Fatalf("hdd_busy_ns_total = %d,%v, want >0", v, ok)
	}
}
