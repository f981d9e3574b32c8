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

// landDisk is a timed member that remembers when each of its pages was
// last written: a row lands when every member's write of it completes.
type landDisk struct {
	*hdd.Disk
	landed []sim.Time // per member page: the latest write's completion
}

func newLandDisk(d *hdd.Disk) *landDisk {
	return &landDisk{Disk: d, landed: make([]sim.Time, d.Pages())}
}

func (d *landDisk) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	done, err := d.Disk.WritePages(t, lba, count, buf)
	for i := 0; i < count; i++ {
		d.landed[lba+int64(i)] = done
	}
	return done, err
}

// rowLanding returns when member page row was last written on every disk.
func rowLanding(disks []*landDisk, row int64) (at sim.Time) {
	for _, d := range disks {
		at = sim.MaxTime(at, d.landed[row])
	}
	return at
}

// TestSegmentFlush pins the row buffer's flush rule and NVRAM ack on
// timed members: the first segPages-1 distinct writes, and a rewrite of
// a staged page, cost no member I/O and return at their arrival; the
// write that stages the segment's last page commits every row and also
// returns at its arrival, the flush running behind the ack; each member
// writes the flush as one sequential run, every write after its first a
// sequential hit, and the rewrite was absorbed in NVRAM, so each member
// writes exactly one page per row. NVRAM is double-buffered: the next
// segment stages at its arrivals while the first flushes, and its
// filling write flushes it behind the first. With both segments' host
// pages in flight, a write arriving before the first flush's first row
// lands enters NVRAM when that row lands, and a write arriving later
// enters at its arrival.
func TestSegmentFlush(t *testing.T) {
	const disks, segRows = 5, 8
	var hdds []*hdd.Disk
	var landers []*landDisk
	var members []blockdev.Device
	for i := 0; i < disks; i++ {
		d := hdd.NewData(fmt.Sprintf("d%d", i), hdd.DefaultConfig(64), uint64(i+1))
		hdds = append(hdds, d)
		landers = append(landers, newLandDisk(d))
		members = append(members, landers[i])
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
	if done := write(at, seg-1, 1); done != at {
		t.Fatalf("the filling write returned at %d; want its arrival %d", done, at)
	}
	if a.PendingPages() != 0 {
		t.Fatalf("%d pages still staged after the segment filled", a.PendingPages())
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
	_, firstRow := a.Members.DataLocation(0) // lba 0 was staged first
	first, flushed := rowLanding(landers, firstRow), sim.Time(0)
	for row := firstRow; row < firstRow+segRows; row++ {
		flushed = sim.MaxTime(flushed, rowLanding(landers, row))
	}
	if first <= at+2 || flushed <= first {
		t.Fatalf("flush from %d: first row lands at %d, the last at %d; want both after the arrival, in order", at, first, flushed)
	}
	for lba := seg; lba < 2*seg; lba++ {
		if done := write(at+1, lba, 1); done != at+1 {
			t.Fatalf("write %d of the second segment, during the first flush: returned at %d; want its arrival %d",
				lba-seg+1, done, at+1)
		}
	}
	if a.PendingPages() != 0 {
		t.Fatalf("%d pages still staged after the second segment filled", a.PendingPages())
	}
	if done := write(at+2, 2*seg, 1); done != first {
		t.Fatalf("a write at %d, two segments in flight and the first row not landed, returned at %d; want that landing %d",
			at+2, done, first)
	}
	if done := write(first+1, 2*seg+1, 1); done != first+1 {
		t.Fatalf("a write at %d, after the first row landed, returned at %d; want its arrival", first+1, done)
	}
	_, secondRow := a.Members.DataLocation(seg)
	for row := secondRow; row < secondRow+segRows; row++ {
		flushed = sim.MaxTime(flushed, rowLanding(landers, row))
	}
	buf := make([]byte, blockdev.PageSize)
	for lba, p := range want {
		if _, err := a.ReadPages(flushed, lba, 1, buf); err != nil || !bytes.Equal(buf, p) {
			t.Fatalf("page %d after the flush: %v", lba, err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNVRAMHostBound drives a random open-loop write stream, dense
// enough to outrun the members and long enough to run GC, over timed
// members, and checks the NVRAM bound after every write from the
// outside: the host pages staged plus those whose row has not landed by
// the latest acknowledgement stay within two segments (GC copy-forward
// pages have their own allowance and do not count), and no write
// returns before its arrival.
func TestNVRAMHostBound(t *testing.T) {
	const disks, segRows = 5, 4
	var landers []*landDisk
	var members []blockdev.Device
	for i := 0; i < disks; i++ {
		landers = append(landers, newLandDisk(hdd.NewData(fmt.Sprintf("d%d", i), hdd.DefaultConfig(64), uint64(i+1))))
		members = append(members, landers[i])
	}
	a, err := New(Config{ChunkPages: 4, SegRows: segRows, Seed: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]bool, a.Pages()) // the page's newest version came from a host write
	gcSweepHook = func(_ sim.Time, _ int, swept []pending) {
		for _, p := range swept {
			host[p.lba] = false
		}
	}
	defer func() { gcSweepHook = nil }()
	rng := sim.NewRNG(11)
	var arrival, clock sim.Time
	waits := 0
	for op := 0; op < 4000; op++ {
		arrival += sim.Time(rng.Uint64n(uint64(2 * sim.Millisecond)))
		lba := int64(rng.Uint64n(uint64(a.Pages())))
		done, err := a.WritePages(arrival, lba, 1, pageOf(lba, op))
		if err != nil {
			t.Fatalf("op %d: write %d: %v", op, lba, err)
		}
		if done < arrival {
			t.Fatalf("op %d: write at %d returned at %d, before its arrival", op, arrival, done)
		}
		if done > arrival {
			waits++
		}
		host[lba] = true
		clock = sim.MaxTime(clock, done)
		var held int64
		for l, h := range host {
			if !h {
				continue
			}
			d, page := a.DataLocation(int64(l))
			if d < 0 || rowLanding(landers, page) > clock {
				held++ // staged, or its row still in flight
			}
		}
		if held > nvSegs*a.SegmentPages() {
			t.Fatalf("op %d at %d: %d host pages staged or in flight; NVRAM holds %d segments, %d pages",
				op, clock, held, nvSegs, nvSegs*a.SegmentPages())
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().GCSegments == 0 || waits == 0 {
		t.Fatalf("%d GC segments, %d writes waited for NVRAM: the stream does not exercise the bound", a.Stats().GCSegments, waits)
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
