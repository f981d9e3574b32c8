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

// BenchmarkFaultInjectorWrite: the fault-free pass-through every SSD and
// member op of a replay pays — no marks, no dead ranges, not recording.
func BenchmarkFaultInjectorWrite(b *testing.B) {
	f := NewFaultInjector(NewNullDevice("d", 1<<20), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.WritePages(0, int64(i)&(1<<20-1), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
