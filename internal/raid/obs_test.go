package raid

import (
	"testing"

	"kddcache/internal/obs"
)

// TestTracerAndMetrics attaches a tracer to a data-mode array, runs
// every instrumented path, and checks the spans balance and the
// published metrics validate.
func TestTracerAndMetrics(t *testing.T) {
	a := newDataArray(t, Level5, 5, 256, 8)
	ob := obs.New()
	tr := ob.Tracer
	a.SetTracer(tr)

	oracle := writeAll(t, a, 64)
	verifyAll(t, a, oracle)

	p := fillPage(0xAB)
	if _, err := a.WriteNoParity(0, 8, 1, p); err != nil {
		t.Fatal(err)
	}
	delta := make([]byte, len(p))
	for i := range delta {
		delta[i] = p[i] ^ oracle[8][i]
	}
	if _, err := a.ParityUpdateDelta(0, []int64{8}, [][]byte{delta}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ResyncRow(0, 16); err != nil {
		t.Fatal(err)
	}

	if err := tr.Err(); err != nil {
		t.Fatalf("trace integrity: %v", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	if ob.Ring().Spans() == 0 {
		t.Fatal("no spans recorded")
	}

	reg := obs.NewRegistry()
	a.PublishMetrics(reg)
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Counter("raid_data_writes_total"); !ok || v == 0 {
		t.Fatalf("raid_data_writes_total = %d,%v, want >0", v, ok)
	}
	if v, ok := reg.Counter("raid_noparity_writes_total"); !ok || v == 0 {
		t.Fatalf("raid_noparity_writes_total = %d,%v, want >0", v, ok)
	}
}
