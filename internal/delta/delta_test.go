package delta

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

func randomPage(rng *sim.RNG) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

func TestZRLERoundTripIdentical(t *testing.T) {
	rng := sim.NewRNG(1)
	old := randomPage(rng)
	d := ZRLE{}.Encode(old, old)
	if d.Len > 2 {
		t.Fatalf("identical pages encode to %d bytes, want <=2", d.Len)
	}
	out := make([]byte, blockdev.PageSize)
	if err := (ZRLE{}).Apply(old, d, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, old) {
		t.Fatal("round trip mismatch")
	}
}

func TestZRLERoundTripProperty(t *testing.T) {
	codec := ZRLE{}
	f := func(seed uint64, ratioPct uint8) bool {
		rng := sim.NewRNG(seed)
		old := randomPage(rng)
		ratio := float64(ratioPct%100+1) / 100
		mut := NewMutator(seed+1, ratio)
		newPage := make([]byte, blockdev.PageSize)
		copy(newPage, old)
		mut.Mutate(newPage)
		d := codec.Encode(old, newPage)
		out := make([]byte, blockdev.PageSize)
		if err := codec.Apply(old, d, out); err != nil {
			return false
		}
		return bytes.Equal(out, newPage)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZRLECompressionTracksContentLocality(t *testing.T) {
	codec := ZRLE{}
	for _, target := range []float64{0.12, 0.25, 0.50} {
		rng := sim.NewRNG(7)
		mut := NewMutator(11, target)
		var sum float64
		const n = 200
		for i := 0; i < n; i++ {
			old := randomPage(rng)
			newPage := make([]byte, blockdev.PageSize)
			copy(newPage, old)
			mut.Mutate(newPage)
			sum += codec.Encode(old, newPage).Ratio()
		}
		avg := sum / n
		// The encoded ratio should land near the mutation target (runs may
		// overlap, shrinking it; token overhead grows it slightly).
		if avg < target*0.5 || avg > target*1.3 {
			t.Errorf("target %.0f%%: mean encoded ratio %.3f out of range", target*100, avg)
		}
	}
}

func TestZRLEWorstCaseBounded(t *testing.T) {
	rng := sim.NewRNG(3)
	old := randomPage(rng)
	new2 := randomPage(rng) // completely different page
	d := ZRLE{}.Encode(old, new2)
	if d.Len > blockdev.PageSize+64 {
		t.Fatalf("worst-case delta %d bytes; expansion too large", d.Len)
	}
	out := make([]byte, blockdev.PageSize)
	if err := (ZRLE{}).Apply(old, d, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, new2) {
		t.Fatal("worst-case round trip failed")
	}
}

func TestZRLECorruptInput(t *testing.T) {
	old := make([]byte, blockdev.PageSize)
	out := make([]byte, blockdev.PageSize)
	// Literal length pointing beyond the page.
	bad := Delta{Bytes: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 1}, Len: 8}
	if err := (ZRLE{}).Apply(old, bad, out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if err := (ZRLE{}).Apply(old, Delta{Len: 10}, out); !errors.Is(err, ErrNoBytes) {
		t.Fatalf("err = %v, want ErrNoBytes", err)
	}
}

func TestModelledGaussianMean(t *testing.T) {
	for _, mean := range []float64{0.12, 0.25, 0.50} {
		m := NewModelled(9, mean)
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			d := m.Encode(nil, nil)
			if d.Bytes != nil {
				t.Fatal("modelled delta should not carry bytes")
			}
			if d.Len < 1 || d.Len > blockdev.PageSize {
				t.Fatalf("modelled delta length %d out of range", d.Len)
			}
			sum += d.Ratio()
		}
		avg := sum / n
		if math.Abs(avg-mean) > 0.01 {
			t.Errorf("mean %.2f: sampled mean %.4f", mean, avg)
		}
		if m.MeanRatio() != mean {
			t.Errorf("MeanRatio = %f", m.MeanRatio())
		}
	}
}

func TestModelledApplyRejected(t *testing.T) {
	m := NewModelled(1, 0.25)
	if err := m.Apply(nil, Delta{Len: 5}, nil); !errors.Is(err, ErrNoBytes) {
		t.Fatalf("err = %v", err)
	}
}

func TestModelledPanicsOnBadRatio(t *testing.T) {
	for _, r := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ratio %f should panic", r)
				}
			}()
			NewModelled(1, r)
		}()
	}
}

func TestCodecNames(t *testing.T) {
	if (ZRLE{}).Name() != "zrle" {
		t.Fatal("codec names wrong")
	}
	if NewModelled(1, 0.25).Name() != "model-25%" {
		t.Fatalf("modelled name = %s", NewModelled(1, 0.25).Name())
	}
}

func TestMutatorChangesApproxTarget(t *testing.T) {
	for _, target := range []float64{0.05, 0.25, 0.75} {
		mut := NewMutator(13, target)
		rng := sim.NewRNG(14)
		var frac float64
		const n = 100
		for i := 0; i < n; i++ {
			old := randomPage(rng)
			cp := make([]byte, blockdev.PageSize)
			copy(cp, old)
			mut.Mutate(cp)
			diff := 0
			for j := range cp {
				if cp[j] != old[j] {
					diff++
				}
			}
			frac += float64(diff) / float64(blockdev.PageSize)
		}
		frac /= n
		// Overlapping runs and identical random bytes shave a little off.
		if frac < target*0.5 || frac > target*1.05 {
			t.Errorf("target %.2f: mean changed fraction %.3f", target, frac)
		}
	}
}

func TestMutatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMutator(1, 0)
}

func TestZRLEDeltaRatioHelper(t *testing.T) {
	d := Delta{Len: blockdev.PageSize / 4}
	if math.Abs(d.Ratio()-0.25) > 1e-12 {
		t.Fatalf("Ratio = %f", d.Ratio())
	}
}

// Timing mode stages millions of byte-less deltas, so the struct's size
// is the trace workloads' alloc_bytes_per_op: the recycling flag must
// stay in the padding after Raw.
func TestDeltaSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Delta{}); got != 40 {
		t.Fatalf("sizeof(Delta) = %d, want 40 (a slice, an int, and one word for the flags)", got)
	}
}
