package metalog

import (
	"runtime"
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

// BenchmarkLogFirstLap measures a fresh log's first lap: each iteration
// builds a log (untimed) and puts entries, drawn as in BenchmarkLogPut,
// until it has committed one page per ring slot, GC of the head pages
// included. It is the lap every fresh stack pays in its replay, where
// each slot's entry list is allocated for the first time; it reports ns
// and allocations per committed page.
func BenchmarkLogFirstLap(b *testing.B) {
	const npages = 256
	dev := blockdev.NewNullDevice("ssd", 1<<16)
	rng := sim.NewRNG(1)
	var pages, mallocs uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		l := mustNew(dev, npages)
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for l.Stats().PagesWritten < npages {
			e := Entry{State: StateClean, DazPage: uint32(rng.Uint64n(60000)), DezPage: NoDez}
			if _, err := l.Put(0, e); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		pages += npages
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
	b.ReportMetric(float64(mallocs)/float64(pages), "allocs/page")
}
