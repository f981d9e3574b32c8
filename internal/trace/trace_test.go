package trace

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"kddcache/internal/sim"
)

func TestParseSPC(t *testing.T) {
	in := `0,20941264,8192,W,0.551706
0,20939840,8192,W,0.554041
1,3436288,15872,r,1.25
`
	tr, err := ParseSPC("fin", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("parsed %d requests", len(tr.Requests))
	}
	r0 := tr.Requests[0]
	// 20941264 * 512 / 4096 = 2617658
	if r0.Op != Write || r0.LBA != 2617658 || r0.Pages != 2 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Time != sim.Time(0.551706*float64(sim.Second)) {
		t.Fatalf("r0 time = %v", r0.Time)
	}
	r2 := tr.Requests[2]
	if r2.Op != Read || r2.Pages < 4 {
		t.Fatalf("r2 = %+v", r2)
	}
}

func TestParseSPCErrors(t *testing.T) {
	cases := []string{
		"0,x,8192,W,0.5",
		"0,1,y,W,0.5",
		"0,1,8192,Z,0.5",
		"0,1,8192,W,z",
		"0,1,8192",
	}
	for _, in := range cases {
		if _, err := ParseSPC("bad", strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestParseSPCSortsByTime(t *testing.T) {
	in := "0,0,4096,W,2.0\n0,8,4096,W,1.0\n"
	tr, err := ParseSPC("s", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].Time > tr.Requests[1].Time {
		t.Fatal("not sorted by time")
	}
}

func TestParseMSR(t *testing.T) {
	in := `128166372003061629,hm,0,Write,2449920,8192,1331
128166372016382155,hm,0,Read,8192,4096,388
`
	tr, err := ParseMSR("hm0", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("parsed %d", len(tr.Requests))
	}
	r0 := tr.Requests[0]
	// Offset 2449920 is not page aligned: bytes [2449920, 2458112) span
	// pages 598..600.
	if r0.Op != Write || r0.LBA != 598 || r0.Pages != 3 || r0.Time != 0 {
		t.Fatalf("r0 = %+v", r0)
	}
	r1 := tr.Requests[1]
	wantT := sim.Time((128166372016382155 - 128166372003061629) * 100)
	if r1.Time != wantT {
		t.Fatalf("r1 time = %v, want %v", r1.Time, wantT)
	}
}

func TestParseMSRErrors(t *testing.T) {
	for _, in := range []string{
		"x,h,0,Write,0,4096,1",
		"1,h,0,Nope,0,4096,1",
		"1,h,0,Write,x,4096,1",
		"1,h,0,Write,0,x,1",
		"1,h,0",
	} {
		if _, err := ParseMSR("bad", strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestUniformRoundTrip(t *testing.T) {
	tr := &Trace{Name: "u", Requests: []Request{
		{Time: 5 * sim.Microsecond, Op: Write, LBA: 10, Pages: 2},
		{Time: 9 * sim.Microsecond, Op: Read, LBA: 99, Pages: 1},
	}}
	var b bytes.Buffer
	if err := WriteUniform(&b, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ParseUniform("u", &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != 2 {
		t.Fatalf("round trip lost requests: %d", len(got.Requests))
	}
	for i := range got.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Fatalf("req %d: got %+v want %+v", i, got.Requests[i], tr.Requests[i])
		}
	}
}

func TestParseUniformErrors(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"a,W,1,1", false},
		{"1,Q,1,1", false},
		{"1,W,b,1", false},
		{"1,W,1,0", false},
		{"1,W,1", false},
		// The page and tenant bounds are the widest values Request holds.
		{"1,W,1,1048576", true},
		{"1,W,1,1048577", false},
		{"1,W,1,1,65535", true},
		{"1,W,1,1,65536", false},
		{"1,W,1,1,-1", false},
	} {
		tr, err := ParseUniform("u", strings.NewReader(c.in))
		if (err == nil) != c.ok {
			t.Errorf("input %q: err %v, want accepted %v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		var b strings.Builder
		if err := WriteUniform(&b, tr); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimPrefix(b.String(), "# uniform trace: u\n"); got != c.in+"\n" {
			t.Errorf("input %q wrote back as %q", c.in, got)
		}
	}
}

// The largest request either raw parser accepts, 1 TiB at an offset one
// byte past a page boundary, spans 2^28+1 pages: Pages holds it exactly.
func TestParseLargestRequest(t *testing.T) {
	const want = 1<<28 + 1
	msr, err := ParseMSR("big", strings.NewReader("1,h,0,Write,4097,1099511627776,1"))
	if err != nil {
		t.Fatal(err)
	}
	if r := msr.Requests[0]; r.LBA != 1 || r.Pages != want {
		t.Fatalf("msr: %+v, want LBA 1, %d pages", r, want)
	}
	// 9 blocks of 512 bytes put the SPC request at byte 4608, mid-page.
	spc, err := ParseSPC("big", strings.NewReader("0,9,1099511627776,R,0"))
	if err != nil {
		t.Fatal(err)
	}
	if r := spc.Requests[0]; r.LBA != 1 || r.Pages != want {
		t.Fatalf("spc: %+v, want LBA 1, %d pages", r, want)
	}
	if _, err := ParseMSR("big", strings.NewReader("1,h,0,Write,4097,1099511627777,1")); err == nil {
		t.Fatal("msr accepted a request over 1 TiB")
	}
}

// A replay holds its whole trace as []Request, so the record is most of
// the simulator's resident heap on the trace workloads: keep it at 24
// bytes (two 64-bit fields, Pages, Tenant and Op in the third word).
func TestRequestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 24 {
		t.Fatalf("sizeof(Request) = %d bytes, want 24", got)
	}
}

func TestStatsAndMaxLBA(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Time: 1, Op: Read, LBA: 0, Pages: 2},  // pages 0,1 read
		{Time: 2, Op: Write, LBA: 1, Pages: 2}, // pages 1,2 written
		{Time: 3, Op: Read, LBA: 1, Pages: 1},  // page 1 again
	}}
	s := tr.Stats()
	if s.UniqueTotal != 3 || s.UniqueRead != 2 || s.UniqueWrite != 2 {
		t.Fatalf("uniques: %+v", s)
	}
	if s.ReadPages != 3 || s.WritePages != 2 {
		t.Fatalf("pages: %+v", s)
	}
	if s.ReadRatio != 0.6 {
		t.Fatalf("read ratio = %f", s.ReadRatio)
	}
	if s.Duration != 3 {
		t.Fatalf("duration = %v", s.Duration)
	}
	if tr.MaxLBA() != 3 {
		t.Fatalf("MaxLBA = %d", tr.MaxLBA())
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("op strings")
	}
}

func TestCommentsAndBlanksSkipped(t *testing.T) {
	in := "# header\n\n0,0,4096,W,0.5\n"
	tr, err := ParseSPC("c", strings.NewReader(in))
	if err != nil || len(tr.Requests) != 1 {
		t.Fatalf("err=%v n=%d", err, len(tr.Requests))
	}
}
