package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"kddcache/internal/sim"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpTrim.String() != "trim" {
		t.Fatal("Op strings wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Fatal("unknown op string wrong")
	}
}

func TestCheckRange(t *testing.T) {
	if err := CheckRange(0, 10, 10); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
	for _, c := range []struct {
		lba   int64
		count int
	}{{-1, 1}, {0, 11}, {10, 1}, {0, -1}} {
		if err := CheckRange(c.lba, c.count, 10); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("lba=%d count=%d: err=%v, want ErrOutOfRange", c.lba, c.count, err)
		}
	}
}

func TestCheckBuf(t *testing.T) {
	if err := CheckBuf(nil, 5); err != nil {
		t.Fatalf("nil buf rejected: %v", err)
	}
	if err := CheckBuf(make([]byte, 2*PageSize), 2); err != nil {
		t.Fatalf("exact buf rejected: %v", err)
	}
	if err := CheckBuf(make([]byte, PageSize+1), 1); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("short buf accepted: %v", err)
	}
}

func TestMemStoreReadWriteTrim(t *testing.T) {
	m := NewMemStore(100)
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	m.WritePage(7, page)
	got := make([]byte, PageSize)
	m.ReadPage(7, got)
	if !bytes.Equal(got, page) {
		t.Fatal("read back mismatch")
	}
	// Unwritten pages read as zero.
	m.ReadPage(8, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
	if m.Written() != 1 {
		t.Fatalf("Written = %d", m.Written())
	}
	m.TrimPage(7)
	m.ReadPage(7, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed page not zero")
		}
	}
}

func TestMemStoreCloneIsDeep(t *testing.T) {
	m := NewMemStore(10)
	page := bytes.Repeat([]byte{0xAA}, PageSize)
	m.WritePage(1, page)
	c := m.Clone()
	page2 := bytes.Repeat([]byte{0xBB}, PageSize)
	m.WritePage(1, page2)
	got := make([]byte, PageSize)
	c.ReadPage(1, got)
	if got[0] != 0xAA {
		t.Fatal("clone shares storage with original")
	}
	if c.Pages() != 10 {
		t.Fatalf("clone capacity = %d", c.Pages())
	}
}

func TestNullDeviceDataMode(t *testing.T) {
	d := NewNullDataDevice("null0", 64)
	buf := bytes.Repeat([]byte{3}, 2*PageSize)
	if _, err := d.WritePages(0, 10, 2, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*PageSize)
	if _, err := d.ReadPages(0, 10, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data mismatch")
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("op counts %d/%d", d.Reads(), d.Writes())
	}
	if _, err := d.TrimPages(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	if d.Store().Written() != 0 {
		t.Fatal("trim did not discard pages")
	}
}

func TestNullDeviceTimingModeAndLatency(t *testing.T) {
	d := NewNullDevice("null1", 64)
	d.Latency = 100
	done, err := d.ReadPages(50, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done != 150 {
		t.Fatalf("completion = %d, want 150", done)
	}
	if _, err := d.ReadPages(0, 60, 8, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("range not checked: %v", err)
	}
	if _, err := d.WritePages(0, 0, 1, make([]byte, 1)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("buffer not checked: %v", err)
	}
}

func TestFaultDeviceFailAndRepair(t *testing.T) {
	inner := NewNullDataDevice("d0", 16)
	f := NewFaultInjector(inner, 0)
	if f.Failed() {
		t.Fatal("fresh device reports failed")
	}
	if _, err := f.WritePages(0, 0, 1, bytes.Repeat([]byte{1}, PageSize)); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.Failed() {
		t.Fatal("Fail did not stick")
	}
	if _, err := f.ReadPages(0, 0, 1, make([]byte, PageSize)); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device served a read: %v", err)
	}
	if _, err := f.TrimPages(0, 0, 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device served a trim: %v", err)
	}
	fresh := NewNullDataDevice("d0'", 16)
	f.Repair(fresh)
	if f.Failed() {
		t.Fatal("repair did not clear failure")
	}
	buf := make([]byte, PageSize)
	if _, err := f.ReadPages(0, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("repaired device should be fresh/zeroed")
	}
}

func TestFaultDeviceFailAfterOps(t *testing.T) {
	f := NewFaultInjector(NewNullDevice("d", 16), 0)
	f.FailAfterOps = 3
	var err error
	ok := 0
	for i := 0; i < 10; i++ {
		_, err = f.ReadPages(0, 0, 1, nil)
		if err == nil {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("device served %d ops before failing, want 3", ok)
	}
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestFaultDeviceTrimPassthroughWithoutTrimmer(t *testing.T) {
	// A device that does not implement Trimmer: trims are accepted and
	// ignored.
	f := NewFaultInjector(plainDevice{}, 0)
	if _, err := f.TrimPages(5, 0, 1); err != nil {
		t.Fatal(err)
	}
}

type plainDevice struct{}

func (plainDevice) Name() string { return "plain" }
func (plainDevice) Pages() int64 { return 8 }
func (plainDevice) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	return t, nil
}
func (plainDevice) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	return t, nil
}

func TestMemStoreRoundTripProperty(t *testing.T) {
	f := func(lba uint16, fill byte) bool {
		m := NewMemStore(1 << 17)
		page := bytes.Repeat([]byte{fill}, PageSize)
		m.WritePage(int64(lba), page)
		got := make([]byte, PageSize)
		m.ReadPage(int64(lba), got)
		return bytes.Equal(got, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
