package trace

import (
	"testing"
	"testing/quick"

	"kddcache/internal/sim"
)

func TestRemapFoldsAndSplits(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Time: 1, Op: Read, LBA: 250, Pages: 4, Tenant: 3},     // 250%100=50, 4 pages fit
		{Time: 2, Op: Write, LBA: 98, Pages: 5, Tenant: 65535}, // wraps: 98,99 then 0,1,2
		{Time: 3, Op: Read, LBA: 1000, Pages: 1},               // 1000%100=0, untagged
	}}
	out := tr.Remap(100)
	if len(out.Requests) != 4 {
		t.Fatalf("remap produced %d requests, want 4 (one split)", len(out.Requests))
	}
	r0 := out.Requests[0]
	if r0.LBA != 50 || r0.Pages != 4 || r0.Tenant != 3 {
		t.Fatalf("r0 = %+v", r0)
	}
	// Both halves of the split keep the request's time, op and tenant.
	r1, r2 := out.Requests[1], out.Requests[2]
	if r1.LBA != 98 || r1.Pages != 2 || r2.LBA != 0 || r2.Pages != 3 {
		t.Fatalf("wrap split wrong: %+v %+v", r1, r2)
	}
	for _, r := range []Request{r1, r2} {
		if r.Time != 2 || r.Op != Write || r.Tenant != 65535 {
			t.Fatalf("split half lost a field: %+v", r)
		}
	}
	if r3 := out.Requests[3]; r3.LBA != 0 || r3.Tenant != 0 {
		t.Fatalf("fold wrong: %+v", r3)
	}
}

func TestRemapPropertyInRange(t *testing.T) {
	f := func(lbas []uint32, max16 uint16) bool {
		max := int64(max16%1000) + 1
		tr := &Trace{}
		for i, l := range lbas {
			tr.Requests = append(tr.Requests, Request{
				Time: sim.Time(i), Op: Read, LBA: int64(l), Pages: 1 + int32(l%7),
			})
		}
		out := tr.Remap(max)
		pages := 0
		for _, r := range out.Requests {
			if r.LBA < 0 || r.LBA+int64(r.Pages) > max {
				return false
			}
			pages += int(r.Pages)
		}
		want := 0
		for _, r := range tr.Requests {
			want += int(r.Pages)
		}
		return pages == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Trace{}).Remap(0)
}

func TestClip(t *testing.T) {
	tr := &Trace{Requests: make([]Request, 10)}
	if got := tr.Clip(3); len(got.Requests) != 3 {
		t.Fatalf("Clip(3) kept %d", len(got.Requests))
	}
	if got := tr.Clip(50); len(got.Requests) != 10 {
		t.Fatalf("Clip beyond length kept %d", len(got.Requests))
	}
}
