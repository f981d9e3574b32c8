package metalog

import (
	"testing"

	"kddcache/internal/obs"
)

// TestTracerOnAppend checks that every flushed log page emits exactly
// one balanced meta_append span.
func TestTracerOnAppend(t *testing.T) {
	l, _ := newLog(64)
	ob := obs.New()
	tr := ob.Tracer
	l.SetTracer(tr)

	for i := uint32(0); i < 100; i++ {
		if _, err := l.Put(0, entry(i, StateClean)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	if err := tr.Err(); err != nil {
		t.Fatalf("trace integrity: %v", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	if got, want := ob.Ring().Spans(), int(l.Stats().PagesWritten); got != want {
		t.Fatalf("recorded %d meta_append spans, want %d (one per page written)", got, want)
	}
	if ob.Ring().Spans() == 0 {
		t.Fatal("no pages flushed — test needs more entries")
	}
}
