package blockdev

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

func fillPage(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

func TestInjectBadPageLatentUntilRewrite(t *testing.T) {
	f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
	if _, err := f.WritePages(0, 3, 1, fillPage(7)); err != nil {
		t.Fatal(err)
	}
	f.InjectBadPage(3)
	buf := make([]byte, PageSize)
	// Latent: every read fails until the page is rewritten.
	for i := 0; i < 3; i++ {
		if _, err := f.ReadPages(0, 3, 1, buf); !errors.Is(err, ErrMedia) {
			t.Fatalf("read %d: err = %v, want ErrMedia", i, err)
		}
	}
	if f.Failed() {
		t.Fatal("media error must not fail the whole device")
	}
	// Neighbouring pages are unaffected.
	if _, err := f.ReadPages(0, 4, 1, buf); err != nil {
		t.Fatalf("healthy page: %v", err)
	}
	// Remap-on-write clears the fault.
	if _, err := f.WritePages(0, 3, 1, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadPages(0, 3, 1, buf); err != nil {
		t.Fatalf("after rewrite: %v", err)
	}
	if buf[0] != 9 {
		t.Fatal("rewritten page content wrong")
	}
	if f.MediaErrors() != 3 {
		t.Fatalf("MediaErrors = %d, want 3", f.MediaErrors())
	}
}

func TestInjectTransientSucceedsOnRetry(t *testing.T) {
	f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
	if _, err := f.WritePages(0, 5, 1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	f.InjectTransient(5, 2)
	buf := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		if _, err := f.ReadPages(0, 5, 1, buf); !errors.Is(err, ErrMedia) {
			t.Fatalf("transient read %d: err = %v", i, err)
		}
	}
	if _, err := f.ReadPages(0, 5, 1, buf); err != nil {
		t.Fatalf("retry after transient: %v", err)
	}
	if buf[0] != 1 {
		t.Fatal("transient fault must not lose data")
	}
}

func TestChecksumCorruptionDetectedThroughDevice(t *testing.T) {
	d := NewNullDataDevice("d", 16)
	if _, err := d.WritePages(0, 2, 1, fillPage(0xAB)); err != nil {
		t.Fatal(err)
	}
	d.Store().CorruptPage(2, 12345)
	buf := make([]byte, PageSize)
	if _, err := d.ReadPages(0, 2, 1, buf); !errors.Is(err, ErrMedia) {
		t.Fatalf("corrupt page served: %v", err)
	}
	// A silent flip refreshes the checksum: the device cannot see it.
	if _, err := d.WritePages(0, 2, 1, fillPage(0xAB)); err != nil {
		t.Fatal(err)
	}
	d.Store().CorruptPageSilently(2, 12345)
	if _, err := d.ReadPages(0, 2, 1, buf); err != nil {
		t.Fatalf("silent corruption must pass device checks: %v", err)
	}
}

func TestFaultProfileDeterministic(t *testing.T) {
	run := func() (errsAt []int, total int64) {
		f := NewFaultInjector(NewNullDataDevice("d", 64), 42)
		f.SetProfile(FaultProfile{TransientProb: 0.1, LatentProb: 0.05})
		buf := make([]byte, PageSize)
		for i := 0; i < 200; i++ {
			lba := int64(i % 64)
			if _, err := f.ReadPages(0, lba, 1, buf); err != nil {
				errsAt = append(errsAt, i)
				// Clear latent marks by rewriting so both runs see the
				// same per-page state evolution.
				if _, werr := f.WritePages(0, lba, 1, fillPage(1)); werr != nil {
					t.Fatal(werr)
				}
			}
		}
		return errsAt, f.MediaErrors()
	}
	a, na := run()
	b, nb := run()
	if na == 0 {
		t.Fatal("profile injected no faults; probabilities too low for the test")
	}
	if na != nb || len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverges at %d: op %d vs %d", i, a[i], b[i])
		}
	}
}

func TestArmCrashTearsMultiPageWrite(t *testing.T) {
	f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
	old := fillPage(0x11)
	for lba := int64(0); lba < 3; lba++ {
		if _, err := f.WritePages(0, lba, 1, old); err != nil {
			t.Fatal(err)
		}
	}
	// Crash on the very next write, persisting 1 whole page + 100 bytes.
	f.ArmCrash(0, 1, 100)
	newBuf := make([]byte, 3*PageSize)
	for i := range newBuf {
		newBuf[i] = 0x22
	}
	if _, err := f.WritePages(0, 0, 3, newBuf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// Everything after the crash point fails until power is restored.
	if _, err := f.ReadPages(0, 0, 1, make([]byte, PageSize)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	f.ClearCrash()
	got := make([]byte, PageSize)
	// Page 0 persisted in full.
	if _, err := f.ReadPages(0, 0, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x22 || got[PageSize-1] != 0x22 {
		t.Fatal("first page of torn write should persist in full")
	}
	// Page 1 is torn: 100 new bytes, old tail.
	if _, err := f.ReadPages(0, 1, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[99] != 0x22 || got[100] != 0x11 {
		t.Fatalf("torn page wrong: got[99]=%#x got[100]=%#x", got[99], got[100])
	}
	// Page 2 never reached the medium.
	if _, err := f.ReadPages(0, 2, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 {
		t.Fatal("page past the crash point must keep old content")
	}
}

func TestArmCrashAfterNWrites(t *testing.T) {
	f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
	f.ArmCrash(2, 0, 0) // two writes succeed, the third crashes with nothing persisted
	for i := int64(0); i < 2; i++ {
		if _, err := f.WritePages(0, i, 1, fillPage(5)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := f.WritePages(0, 2, 1, fillPage(5)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
	f.ClearCrash()
	got := make([]byte, PageSize)
	if _, err := f.ReadPages(0, 2, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("crashed write with tornPages=0 must persist nothing")
	}
}

// TestRepairConcurrentWithIO exercises the Repair/in-flight-op race under
// the race detector: the inner-device swap must be safe against
// concurrent reads and writes. Timing-mode devices are used so the only
// shared state is the injector's own.
func TestRepairConcurrentWithIO(t *testing.T) {
	f := NewFaultInjector(NewNullDevice("d", 1024), 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lba := int64((g*251 + i) % 1024)
				if g%2 == 0 {
					f.ReadPages(0, lba, 1, nil) //nolint:errcheck // liveness only
				} else {
					f.WritePages(0, lba, 1, nil) //nolint:errcheck
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		f.Fail()
		f.Repair(NewNullDevice("d'", 1024))
		f.InjectBadPage(int64(i % 1024))
		f.Inner().Pages() //nolint:errcheck // concurrent Inner() load
	}
	close(stop)
	wg.Wait()
	if f.Failed() {
		t.Fatal("final Repair should leave the device healthy")
	}
}

// TestFaultAccessors covers the inspection surface the chaos harness
// and checker use: error rendering, bad-page bookkeeping, op counters,
// site stringification, and checksum verification helpers.
func TestFaultAccessors(t *testing.T) {
	ioe := &IOError{Dev: "ssd0", Op: OpWrite, LBA: 42, Err: ErrMedia}
	if s := ioe.Error(); !strings.Contains(s, "ssd0") || !strings.Contains(s, "42") {
		t.Fatalf("IOError.Error() = %q", s)
	}

	f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
	ms := f.Store()
	if ms == nil {
		t.Fatal("Store() lost the inner MemStore")
	}
	buf := make([]byte, PageSize)
	if _, err := f.WritePages(0, 5, 1, buf); err != nil {
		t.Fatal(err)
	}
	f.InjectTransient(5, 1)
	if n := f.BadPages(); n != 1 {
		t.Fatalf("BadPages = %d, want 1", n)
	}
	f.ClearBadPage(5)
	if n := f.BadPages(); n != 0 {
		t.Fatalf("BadPages after clear = %d, want 0", n)
	}
	if f.Ops() == 0 {
		t.Fatal("Ops counter never advanced")
	}

	if !ms.VerifyPage(5) || !ms.VerifyPage(9999) {
		t.Fatal("VerifyPage failed on a good/unwritten page")
	}
	if ms.TruncatePage(9999, 10) {
		t.Fatal("TruncatePage succeeded on an unwritten page")
	}
	if !ms.TruncatePage(5, 10) || !ms.VerifyPage(5) {
		t.Fatal("TruncatePage left an inconsistent page")
	}

	for _, site := range []FaultSite{
		{Kind: FaultCrashTorn, WriteOp: 3, TornPages: 1, TornBytes: 7},
		{Kind: FaultLatent, LBA: 8},
		{Kind: FaultTransient, LBA: 9, Fails: 2},
		{Kind: FaultFailStop, WriteOp: 2},
	} {
		if site.Kind.String() == "" || site.String() == "" {
			t.Fatalf("empty String() for %+v", site)
		}
	}
}

// TestArmingIsSeenAndCleared: for every way of arming an injector, the
// very next op sees the fault, and after the matching clear the injector
// is unarmed again — its ops skip the mutex — and passes ops through.
func TestArmingIsSeenAndCleared(t *testing.T) {
	page := fillPage(3)
	read := func(f *FaultInjector, lba int64) error {
		_, err := f.ReadPages(0, lba, 1, make([]byte, PageSize))
		return err
	}
	write := func(f *FaultInjector, lba int64) error {
		_, err := f.WritePages(0, lba, 1, page)
		return err
	}
	trim := func(f *FaultInjector, lba int64) error {
		_, err := f.TrimPages(0, lba, 1)
		return err
	}
	for _, c := range []struct {
		name  string
		arm   func(f *FaultInjector)
		see   func(t *testing.T, f *FaultInjector) // the next op(s) see the fault
		clear func(f *FaultInjector)
	}{
		{"FailRange/Repair",
			func(f *FaultInjector) { f.FailRange(4, 2) },
			func(t *testing.T, f *FaultInjector) {
				for _, op := range []func(*FaultInjector, int64) error{read, write, trim} {
					if err := op(f, 5); !errors.Is(err, ErrFailed) {
						t.Fatalf("op on a dead range: %v, want ErrFailed", err)
					}
				}
			},
			func(f *FaultInjector) { f.Repair(NewNullDataDevice("d", 16)) }},
		{"SetProfile/transient/zero profile",
			func(f *FaultInjector) { f.SetProfile(FaultProfile{TransientProb: 1}) },
			func(t *testing.T, f *FaultInjector) {
				if err := read(f, 2); !errors.Is(err, ErrMedia) {
					t.Fatalf("read under TransientProb 1: %v, want ErrMedia", err)
				}
			},
			func(f *FaultInjector) { f.SetProfile(FaultProfile{}) }},
		{"SetProfile/latent/zero profile then remap-on-write",
			func(f *FaultInjector) { f.SetProfile(FaultProfile{LatentProb: 1}) },
			func(t *testing.T, f *FaultInjector) {
				if err := read(f, 2); !errors.Is(err, ErrMedia) {
					t.Fatalf("read under LatentProb 1: %v, want ErrMedia", err)
				}
				f.SetProfile(FaultProfile{})
				if !f.armed.Load() {
					t.Fatal("the latent page the profile left behind does not keep the injector armed")
				}
				if err := read(f, 2); !errors.Is(err, ErrMedia) {
					t.Fatalf("read of the latent page: %v, want ErrMedia", err)
				}
			},
			func(f *FaultInjector) { write(f, 2) }}, //nolint:errcheck // checked by the pass-through below
		{"InjectBadPage/ClearBadPage",
			func(f *FaultInjector) { f.InjectBadPage(6) },
			func(t *testing.T, f *FaultInjector) {
				if err := read(f, 6); !errors.Is(err, ErrMedia) {
					t.Fatalf("read of a bad page: %v, want ErrMedia", err)
				}
			},
			func(f *FaultInjector) { f.ClearBadPage(6) }},
		{"InjectBadPage/remap-on-write",
			func(f *FaultInjector) { f.InjectBadPage(6) },
			func(t *testing.T, f *FaultInjector) {
				if err := read(f, 6); !errors.Is(err, ErrMedia) {
					t.Fatalf("read of a bad page: %v, want ErrMedia", err)
				}
			},
			func(f *FaultInjector) { write(f, 6) }}, //nolint:errcheck
		{"InjectTransient/exhausted",
			func(f *FaultInjector) { f.InjectTransient(7, 2) },
			func(t *testing.T, f *FaultInjector) {
				for i := 0; i < 2; i++ {
					if err := read(f, 7); !errors.Is(err, ErrMedia) {
						t.Fatalf("transient read %d: %v, want ErrMedia", i, err)
					}
				}
			},
			func(*FaultInjector) {}},
		{"ArmCrash/ClearCrash after firing",
			func(f *FaultInjector) { f.ArmCrash(0, 0, 0) },
			func(t *testing.T, f *FaultInjector) {
				if err := write(f, 1); !errors.Is(err, ErrCrashed) {
					t.Fatalf("write at the crash point: %v, want ErrCrashed", err)
				}
				for _, op := range []func(*FaultInjector, int64) error{read, write, trim} {
					if err := op(f, 1); !errors.Is(err, ErrCrashed) {
						t.Fatalf("op after the crash point: %v, want ErrCrashed", err)
					}
				}
			},
			func(f *FaultInjector) { f.ClearCrash() }},
		{"ArmCrash/survives Repair, ClearCrash before firing",
			func(f *FaultInjector) { f.ArmCrash(3, 0, 0) },
			func(t *testing.T, f *FaultInjector) {
				f.Repair(NewNullDataDevice("d", 16))
				if !f.armed.Load() {
					t.Fatal("Repair disarmed a pending crash point")
				}
				if err := write(f, 1); err != nil {
					t.Fatalf("write before the crash point: %v", err)
				}
			},
			func(f *FaultInjector) { f.ClearCrash() }},
		{"RecordOps/RecordOps(false)",
			func(f *FaultInjector) { f.RecordOps(true) },
			func(t *testing.T, f *FaultInjector) {
				write(f, 9) //nolint:errcheck
				read(f, 9)  //nolint:errcheck
				if got := f.Recorded(); len(got) != 2 || !got[0].Write || got[1].Write || got[1].LBA != 9 {
					t.Fatalf("recorded %+v, want the write and the read of page 9", got)
				}
			},
			func(f *FaultInjector) { f.RecordOps(false) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFaultInjector(NewNullDataDevice("d", 16), 1)
			if f.armed.Load() {
				t.Fatal("a fresh injector is armed")
			}
			c.arm(f)
			if !f.armed.Load() {
				t.Fatal("arming did not arm the injector")
			}
			c.see(t, f)
			c.clear(f)
			if f.armed.Load() {
				t.Fatal("still armed after the matching clear")
			}
			recorded := len(f.Recorded())
			for lba := int64(0); lba < 16; lba++ {
				if err := write(f, lba); err != nil {
					t.Fatalf("write %d after clearing: %v", lba, err)
				}
				got := make([]byte, PageSize)
				if _, err := f.ReadPages(0, lba, 1, got); err != nil || !bytes.Equal(got, page) {
					t.Fatalf("read %d after clearing: %v (bytes equal %v)", lba, err, bytes.Equal(got, page))
				}
				if err := trim(f, lba); err != nil {
					t.Fatalf("trim %d after clearing: %v", lba, err)
				}
			}
			if len(f.Recorded()) != recorded || f.armed.Load() {
				t.Fatal("pass-through ops re-armed the injector or were recorded")
			}
		})
	}
}

// TestArmingConcurrentWithIO arms and disarms every kind of fault while
// other goroutines issue reads, writes and trims, under the race
// detector: the unarmed fast path reads only the atomic flag, every armed
// op runs under the mutex, and once everything is cleared the injector is
// unarmed and passes ops through.
func TestArmingConcurrentWithIO(t *testing.T) {
	f := NewFaultInjector(NewNullDevice("d", 1024), 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lba := int64((g*97 + i) % 1024)
				switch g {
				case 0:
					f.ReadPages(0, lba, 1, nil) //nolint:errcheck // interleaving only
				case 1:
					f.WritePages(0, lba, 1, nil) //nolint:errcheck
				default:
					f.TrimPages(0, lba, 1) //nolint:errcheck
				}
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		lba := int64(i % 1024)
		f.InjectBadPage(lba)
		f.InjectTransient(lba+1, 1)
		f.SetProfile(FaultProfile{TransientProb: 0.5})
		f.ArmCrash(2, 0, 0)
		f.RecordOps(true)
		f.FailRange(lba, 4)
		f.RecordOps(false)
		f.ClearCrash()
		f.SetProfile(FaultProfile{})
		f.ClearBadPage(lba + 1)
		f.Repair(NewNullDevice("d", 1024))
	}
	close(stop)
	wg.Wait()
	if f.armed.Load() {
		t.Fatal("armed after every fault was cleared")
	}
	for lba := int64(0); lba < 1024; lba++ {
		if _, err := f.ReadPages(0, lba, 1, nil); err != nil {
			t.Fatalf("read %d after clearing: %v", lba, err)
		}
	}
}

// BenchmarkInjectorPassThrough: the fault-free pass-through every SSD and
// member op of a replay pays — no marks, no dead ranges, not recording —
// per op kind.
func BenchmarkInjectorPassThrough(b *testing.B) {
	f := NewFaultInjector(NewNullDevice("d", 1<<20), 1)
	for _, op := range []struct {
		name string
		do   func(lba int64) error
	}{
		{"read", func(lba int64) error { _, err := f.ReadPages(0, lba, 1, nil); return err }},
		{"write", func(lba int64) error { _, err := f.WritePages(0, lba, 1, nil); return err }},
		{"trim", func(lba int64) error { _, err := f.TrimPages(0, lba, 1); return err }},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.do(int64(i) & (1<<20 - 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
