package lsraid

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/hdd"
	"kddcache/internal/sim"
)

// lastWriteDisk is a timed, byte-carrying member that remembers the
// latest completion of any write it served.
type lastWriteDisk struct {
	*hdd.Disk
	last *sim.Time
}

func (d *lastWriteDisk) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	done, err := d.Disk.WritePages(t, lba, count, buf)
	*d.last = sim.MaxTime(*d.last, done)
	return done, err
}

// TestSegmentFlush pins the row buffer's flush rule on timed members:
// the first segPages-1 distinct writes, and a rewrite of a staged page,
// cost no member I/O and return at their arrival; the write that stages
// the segment's last page commits every row and returns the flush's
// completion; each member writes the flush as one sequential run, every
// write after its first a sequential hit; and the rewrite was absorbed
// in NVRAM, so each member writes exactly one page per row.
func TestSegmentFlush(t *testing.T) {
	const disks, segRows = 5, 8
	var last sim.Time
	var hdds []*hdd.Disk
	var members []blockdev.Device
	for i := 0; i < disks; i++ {
		d := hdd.NewData(fmt.Sprintf("d%d", i), hdd.DefaultConfig(64), uint64(i+1))
		hdds = append(hdds, d)
		members = append(members, &lastWriteDisk{Disk: d, last: &last})
	}
	a, err := New(Config{ChunkPages: 4, SegRows: segRows, Seed: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	seg := a.segPages
	if seg != segRows*(disks-1) {
		t.Fatalf("segment of %d pages, want %d", seg, segRows*(disks-1))
	}
	memberIO := func() (n int64) {
		for _, d := range hdds {
			n += d.Reads() + d.Writes()
		}
		return n
	}
	want := map[int64][]byte{}
	write := func(at sim.Time, lba int64, ver int) sim.Time {
		t.Helper()
		p := pageOf(lba, ver)
		done, err := a.WritePages(at, lba, 1, p)
		if err != nil {
			t.Fatalf("write %d at %d: %v", lba, at, err)
		}
		want[lba] = p
		return done
	}
	const gap = sim.Millisecond
	for lba := int64(0); lba < seg-1; lba++ {
		at := sim.Time(lba) * gap
		if done := write(at, lba, 1); done != at || memberIO() != 0 {
			t.Fatalf("write %d of %d: returned at %d (arrival %d) after %d member ops; want its arrival and none",
				lba+1, seg-1, done, at, memberIO())
		}
	}
	at := sim.Time(seg) * gap
	if done := write(at, 3, 2); done != at || memberIO() != 0 || a.PendingPages() != int(seg-1) {
		t.Fatalf("rewrite of a staged page: returned at %d (arrival %d), %d member ops, %d pages staged",
			done, at, memberIO(), a.PendingPages())
	}
	at += gap
	done := write(at, seg-1, 1)
	if a.PendingPages() != 0 {
		t.Fatalf("%d pages still staged after the segment filled", a.PendingPages())
	}
	if done <= at || done != last {
		t.Fatalf("the filling write returned at %d; want the flush's completion %d, after its arrival %d", done, last, at)
	}
	for lba := int64(0); lba < seg; lba++ {
		if d, _ := a.DataLocation(lba); d < 0 {
			t.Fatalf("page %d has no member home after the flush", lba)
		}
	}
	for i, d := range hdds {
		if d.Reads() != 0 || d.Writes() != segRows || d.SeqHits() != segRows-1 {
			t.Fatalf("d%d: %d reads, %d writes, %d sequential hits; want 0, %d and %d",
				i, d.Reads(), d.Writes(), d.SeqHits(), segRows, segRows-1)
		}
	}
	buf := make([]byte, blockdev.PageSize)
	for lba, p := range want {
		if _, err := a.ReadPages(done, lba, 1, buf); err != nil || !bytes.Equal(buf, p) {
			t.Fatalf("page %d after the flush: %v", lba, err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSegmentFlush is the host cost of the log's write path in data
// mode over one segment: each iteration stages a segment's worth of
// distinct pages, whose last write flushes every row (the pages overwrite
// the previous iteration's, so GC reclaims whole dead segments and copies
// nothing). It reports ns and allocations per committed page.
func BenchmarkSegmentFlush(b *testing.B) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), 1<<12))
	}
	a, err := New(Config{ChunkPages: 4, Seed: 1}, members)
	if err != nil {
		b.Fatal(err)
	}
	seg := a.segPages // the default segment: 32 rows
	page := pageOf(1, 1)
	writeSegment := func() {
		for lba := int64(0); lba < seg; lba++ {
			if _, err := a.WritePages(0, lba, 1, page); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm up: once around the log, so every member page has its store
	// page and the row buffer its capacity.
	for s := int64(0); s < a.numSegs; s++ {
		writeSegment()
	}
	var pages, mallocs uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		writeSegment()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		pages += uint64(seg)
	}
	if a.PendingPages() != 0 {
		b.Fatalf("%d pages still staged: an iteration is not a whole segment", a.PendingPages())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
	b.ReportMetric(float64(mallocs)/float64(pages), "allocs/page")
}
