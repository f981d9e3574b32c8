package sched

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// The data plane's lanes spend their time copying 4 KiB pages between
// tables far larger than any cache. Whether a second worker can make the
// plane faster therefore depends first on whether the box can feed two
// cores such copies at once. BenchmarkCopyScaling measures that directly,
// with nothing of the plane in the way, beside a control that touches no
// memory at all:
//
//   - copy: every goroutine copies copyPages pages, each drawn at random
//     from one shared 64 MiB source set, into random pages of its own
//     16 MiB destination;
//   - spin: every goroutine runs spinRounds rounds of a register-only
//     xorshift.
//
// One op is one work unit on every goroutine, so ns/op is the wall time
// of one goroutine's unit: on a box with a free core per goroutine it is
// the same at 1 and 2 goroutines. The spin shows whether the cores are
// there; the copy shows whether the memory system is.
//
//	go test ./internal/sched -run '^$' -bench CopyScaling -benchtime 5x
const (
	copySetPages = 64 << 20 / pageBytes
	copyDstPages = 16 << 20 / pageBytes
	copyPages    = copySetPages // 64 MiB copied per goroutine per op
	spinRounds   = 1 << 26
	pageBytes    = 4096
)

var sinkSpin uint64 // keeps the work units from being optimised away

func BenchmarkCopyScaling(b *testing.B) {
	src := make([]byte, copySetPages*pageBytes)
	for i := range src {
		src[i] = byte(i * 31)
	}
	kernels := []struct {
		name  string
		bytes int64
		setup func() func(rng *rand.Rand) uint64 // per goroutine: its work unit
	}{
		{"copy", copyPages * pageBytes, func() func(*rand.Rand) uint64 {
			dst := make([]byte, copyDstPages*pageBytes)
			return func(rng *rand.Rand) uint64 {
				for i := 0; i < copyPages; i++ {
					s := rng.IntN(copySetPages) * pageBytes
					d := rng.IntN(copyDstPages) * pageBytes
					copy(dst[d:d+pageBytes], src[s:s+pageBytes])
				}
				return uint64(dst[0])
			}
		}},
		{"spin", 0, func() func(*rand.Rand) uint64 {
			return func(rng *rand.Rand) uint64 {
				x := rng.Uint64() | 1
				for i := 0; i < spinRounds; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				return x
			}
		}},
	}
	for _, k := range kernels {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", k.name, workers), func(b *testing.B) {
				units := make([]func(*rand.Rand) uint64, workers)
				rngs := make([]*rand.Rand, workers)
				sums := make([]uint64, workers)
				for w := range units {
					units[w] = k.setup()
					rngs[w] = rand.New(rand.NewPCG(uint64(w), 7))
				}
				b.SetBytes(k.bytes * int64(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := range units {
						wg.Add(1)
						go func() {
							defer wg.Done()
							sums[w] += units[w](rngs[w])
						}()
					}
					wg.Wait()
				}
				for _, v := range sums {
					sinkSpin += v
				}
			})
		}
	}
}
