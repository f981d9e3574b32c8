package delta

import (
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// benchPages returns an old page and a rewrite of it that changes about
// ratio of its bytes in clustered runs.
func benchPages(ratio float64) (old, newPage []byte) {
	rng := sim.NewRNG(1)
	old = make([]byte, blockdev.PageSize)
	for i := range old {
		old[i] = byte(rng.Uint64())
	}
	newPage = make([]byte, blockdev.PageSize)
	copy(newPage, old)
	NewMutator(2, ratio).Mutate(newPage)
	return old, newPage
}

// benchRatios are sparse OLTP-style rewrites, the middle of the paper's
// range, and the coalesced deltas the data-mode benchmark workloads
// carry (delta.mean_ratio 0.67-0.73).
var benchRatios = []float64{0.1, 0.35, 0.7}

func benchEncode(b *testing.B, encode func(old, new []byte) Delta) {
	for _, ratio := range benchRatios {
		old, newPage := benchPages(ratio)
		b.Run(fmt.Sprintf("%d%%", int(ratio*100)), func(b *testing.B) {
			b.SetBytes(blockdev.PageSize)
			b.ReportAllocs()
			var last Delta
			for i := 0; i < b.N; i++ {
				last.Release() // as staging does when the next delta of the page arrives
				last = encode(old, newPage)
			}
			b.ReportMetric(float64(last.Len), "deltaBytes/op")
		})
	}
}

func benchApply(b *testing.B, codec Codec) {
	for _, ratio := range benchRatios {
		old, newPage := benchPages(ratio)
		d := codec.Encode(old, newPage)
		out := make([]byte, blockdev.PageSize)
		b.Run(fmt.Sprintf("%d%%", int(ratio*100)), func(b *testing.B) {
			b.SetBytes(blockdev.PageSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := codec.Apply(old, d, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkZRLEEncode(b *testing.B) { benchEncode(b, ZRLE{}.Encode) }
func BenchmarkZRLEApply(b *testing.B)  { benchApply(b, ZRLE{}) }

// BenchmarkZRLEEncodeByteWise times the test oracle: the encoder before
// it went word-wise, for the before/after table in DESIGN.md.
func BenchmarkZRLEEncodeByteWise(b *testing.B) {
	benchEncode(b, func(old, new []byte) Delta {
		enc := zrleEncodeByteWise(old, new)
		return Delta{Bytes: enc, Len: len(enc)}
	})
}

func BenchmarkModelledEncode(b *testing.B) {
	m := NewModelled(1, 0.25)
	for i := 0; i < b.N; i++ {
		_ = m.Encode(nil, nil)
	}
}

func BenchmarkMutator(b *testing.B) {
	mut := NewMutator(1, 0.25)
	page := make([]byte, blockdev.PageSize)
	mut.FillRandom(page)
	b.SetBytes(blockdev.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mut.Mutate(page)
	}
}
