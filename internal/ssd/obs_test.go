package ssd

import (
	"testing"

	"kddcache/internal/obs"
)

// TestTracerAndMetrics attaches a tracer to the FTL device and checks
// span balance plus the published wear metrics.
func TestTracerAndMetrics(t *testing.T) {
	d := New("ssd0", smallCfg())
	ob := obs.New()
	tr := ob.Tracer
	d.SetTracer(tr)

	for i := int64(0); i < 32; i++ {
		if _, err := d.WritePages(0, i, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ReadPages(0, 5, 4, nil); err != nil {
		t.Fatal(err)
	}

	if err := tr.Err(); err != nil {
		t.Fatalf("trace integrity: %v", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	if n := ob.Ring().Spans(); n != 33 {
		t.Fatalf("recorded %d spans, want 33 (32 writes + 1 read)", n)
	}

	reg := obs.NewRegistry()
	d.PublishMetrics(reg)
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Counter("ssd_host_writes_total"); !ok || v != 32 {
		t.Fatalf("ssd_host_writes_total = %d,%v, want 32,true", v, ok)
	}
	if _, ok := reg.Gauge("ssd_write_amplification"); !ok {
		t.Fatal("ssd_write_amplification missing")
	}
}
