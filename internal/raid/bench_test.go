package raid

import (
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

func benchArray(b *testing.B, data bool) *Array {
	b.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		if data {
			members = append(members, blockdev.NewNullDataDevice("d", 65536))
		} else {
			members = append(members, blockdev.NewNullDevice("d", 65536))
		}
	}
	a, err := New(Config{Level: Level5, ChunkPages: 16}, members)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkSmallWrite measures the RAID-5 read-modify-write path — the
// "small write problem" the whole paper is about.
func BenchmarkSmallWrite(b *testing.B) {
	a := benchArray(b, true)
	page := make([]byte, blockdev.PageSize)
	rng := sim.NewRNG(1)
	b.SetBytes(blockdev.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.WritePages(0, int64(rng.Uint64n(200000)), 1, page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteNoParity measures KDD's write-hit fast path.
func BenchmarkWriteNoParity(b *testing.B) {
	a := benchArray(b, true)
	page := make([]byte, blockdev.PageSize)
	rng := sim.NewRNG(1)
	b.SetBytes(blockdev.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.WriteNoParity(0, int64(rng.Uint64n(200000)), 1, page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParityP computes XOR parity over a 4-page row.
func BenchmarkParityP(b *testing.B) {
	pages := make([][]byte, 4)
	rng := sim.NewRNG(2)
	for i := range pages {
		pages[i] = make([]byte, blockdev.PageSize)
		for j := range pages[i] {
			pages[i][j] = byte(rng.Uint64())
		}
	}
	p := make([]byte, blockdev.PageSize)
	b.SetBytes(4 * blockdev.PageSize)
	for i := 0; i < b.N; i++ {
		for j := range p {
			p[j] = 0
		}
		for _, d := range pages {
			blockdev.XORInto(p, d)
		}
	}
}

// BenchmarkParityQ computes RAID-6 Q parity (GF multiply-accumulate) over
// a 4-page row: one XOR page (g^0 = 1) and three table-driven multiplies.
// ns/page is per data page.
func BenchmarkParityQ(b *testing.B) {
	pages := make([][]byte, 4)
	rng := sim.NewRNG(2)
	for i := range pages {
		pages[i] = make([]byte, blockdev.PageSize)
		for j := range pages[i] {
			pages[i][j] = byte(rng.Uint64())
		}
	}
	q := make([]byte, blockdev.PageSize)
	b.SetBytes(4 * blockdev.PageSize)
	for i := 0; i < b.N; i++ {
		for j := range q {
			q[j] = 0
		}
		for k, d := range pages {
			gfMulInto(q, d, gfPow(k))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pages)), "ns/page")
}

// BenchmarkDegradedRead measures single-erasure reconstruction.
func BenchmarkDegradedRead(b *testing.B) {
	a := benchArray(b, true)
	page := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < 1024; lba++ {
		if _, err := a.WritePages(0, lba, 1, page); err != nil {
			b.Fatal(err)
		}
	}
	a.FailDisk(0)
	buf := make([]byte, blockdev.PageSize)
	rng := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ReadPages(0, int64(rng.Uint64n(1024)), 1, buf); err != nil {
			b.Fatal(err)
		}
	}
}
