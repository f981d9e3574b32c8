package raid

import (
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/hdd"
	"kddcache/internal/sim"
)

// issueLog is a timing-mode disk that records when each write is issued.
type issueLog struct {
	*hdd.Disk
	writes []sim.Time
}

func (d *issueLog) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.writes = append(d.writes, t)
	return d.Disk.WritePages(t, lba, count, buf)
}

// TestReadBackfillsRMWGap: a RAID-5 small write's write phase waits for
// the slower of its two reads, so its data member idles between its own
// read and that write. An independent read of the same member submitted
// next, at the same arrival time, is served in that idle gap: it completes
// before the write phase starts, and the write's completion is what it is
// without the read.
func TestReadBackfillsRMWGap(t *testing.T) {
	run := func(withRead bool) (rmw, phase2, read sim.Time) {
		var members []blockdev.Device
		var logs []*issueLog
		for i := 0; i < 5; i++ {
			d := &issueLog{Disk: hdd.New(fmt.Sprintf("d%d", i), hdd.DefaultConfig(1<<16), uint64(i+1))}
			logs = append(logs, d)
			members = append(members, d)
		}
		a, err := New(Config{Level: Level5, ChunkPages: 16}, members)
		if err != nil {
			t.Fatal(err)
		}
		l := a.geo.locate(0)
		// Keep the parity member busy so the write phase starts well after
		// the data member's read.
		for i := int64(1); i <= 8; i++ {
			if _, err := logs[l.par[0]].ReadPages(0, i*7919, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if rmw, err = a.WritePages(0, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
		data := logs[l.disk]
		if len(data.writes) != 1 {
			t.Fatalf("data member saw %d writes, want 1", len(data.writes))
		}
		phase2 = data.writes[0]
		if withRead {
			peer := a.geo.logicalLBA(l.stripe+40, l.dataIdx, 3) // same member, another stripe
			if a.geo.locate(peer).disk != l.disk {
				t.Fatalf("page %d is not on member %d", peer, l.disk)
			}
			if read, err = a.ReadPages(0, peer, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		return rmw, phase2, read
	}
	rmw, phase2, read := run(true)
	if read > phase2 {
		t.Fatalf("read completes at %v, after the write phase starts at %v", read, phase2)
	}
	if alone, _, _ := run(false); rmw != alone {
		t.Fatalf("small write completes at %v, %v without the read", rmw, alone)
	}
}
