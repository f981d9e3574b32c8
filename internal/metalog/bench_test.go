package metalog

import (
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// BenchmarkLogPut measures the metadata-buffer insert path in steady
// state — page commits and log GC included — on a timing-only device, as
// a trace replay drives it: 60 000 cache pages keep about 130 of the
// partition's 256 pages live, and the warm-up wraps the ring so every
// commit of the measured loop reclaims a head page first.
func BenchmarkLogPut(b *testing.B) {
	dev := blockdev.NewNullDevice("ssd", 1<<20)
	l := mustNew(dev, 256)
	rng := sim.NewRNG(1)
	put := func() {
		e := Entry{State: StateClean, DazPage: uint32(rng.Uint64n(60000)), DezPage: NoDez}
		if _, err := l.Put(0, e); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 300000; i++ {
		put()
	}
	if l.Stats().GCRuns == 0 {
		b.Fatal("warm-up never reached log GC")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
	}
}

// BenchmarkRecover measures the head-to-tail log replay after a crash.
func BenchmarkRecover(b *testing.B) {
	dev := blockdev.NewNullDataDevice("ssd", 1<<20)
	l := mustNew(dev, 1024)
	for i := 0; i < 200*EntriesPerPage; i++ {
		e := Entry{State: StateClean, DazPage: uint32(i % 60000), DezPage: NoDez}
		if _, err := l.Put(0, e); err != nil {
			b.Fatal(err)
		}
	}
	ctr := *l.Counters()
	buffered := l.BufferedEntries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ctr
		l2 := mustRestore(dev, 1024, &c, buffered)
		if _, _, err := l2.Recover(0); err != nil {
			b.Fatal(err)
		}
	}
}
