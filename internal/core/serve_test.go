package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// pumpProbe counts rebuild-pump runs: the pump's first act is to ask the
// backend whether a rebuild window is open, and nothing else in the
// engine asks.
type pumpProbe struct {
	cache.Backend
	pumps int
}

func (p *pumpProbe) RebuildActive() bool {
	p.pumps++
	return p.Backend.RebuildActive()
}

// TestServeMatrix pins the one request entry over {read, write} × {admit,
// no-admit} × {normal, pass-through, SSD dies inside the op, op fails}:
// completion time, the root span (phase, extent, LBA), the health state
// left behind, how often the rebuild pump ran, and the request, hit/miss,
// admission, RAID, pass-through and failover counters. The expectations
// were recorded from the four separate bodies (Read, Write, ReadNoAdmit,
// WriteNoAdmit) that Serve replaced, except that an ssd-dies cell counts
// its request once, as the pass-through miss that served it, not also as
// the hit that found the device dead, and an op-fails cell, refused
// before it is a hit or a miss, counts in no request counter; every cell
// keeps ReadHits+ReadMisses == Reads and WriteHits+WriteMiss == Writes.
// Disk ops cost 10 ms, SSD ops 0.3 ms;
// normal and pass-through cells address an uncached LBA so admission
// shows, ssd-dies cells a cached one so the op touches the dead device.
func TestServeMatrix(t *testing.T) {
	const (
		at      = 5 * sim.Second
		hitLBA  = 3
		missLBA = 1000
	)
	cells := map[string]string{
		"normal/read/admit":           "done=10000000 err=false root=read[0,10000000]lba1000 health=normal pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF1 WA0 RR1 RW0 PR0 PW0 FO0",
		"normal/read/no-admit":        "done=10000000 err=false root=read[0,10000000]lba1000 health=normal pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF0 WA0 RR1 RW0 PR0 PW0 FO0",
		"normal/write/admit":          "done=20000000 err=false root=write[0,20000000]lba1000 health=normal pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA1 RR0 RW1 PR0 PW0 FO0",
		"normal/write/no-admit":       "done=20000000 err=false root=write[0,20000000]lba1000 health=normal pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA0 RR0 RW1 PR0 PW0 FO0",
		"pass-through/read/admit":     "done=10000000 err=false root=read[0,10000000]lba1000 health=bypass pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF0 WA0 RR1 RW0 PR1 PW0 FO0",
		"pass-through/read/no-admit":  "done=10000000 err=false root=read[0,10000000]lba1000 health=bypass pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF0 WA0 RR1 RW0 PR1 PW0 FO0",
		"pass-through/write/admit":    "done=20000000 err=false root=write[0,20000000]lba1000 health=bypass pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA0 RR0 RW1 PR0 PW1 FO0",
		"pass-through/write/no-admit": "done=20000000 err=false root=write[0,20000000]lba1000 health=bypass pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA0 RR0 RW1 PR0 PW1 FO0",
		"ssd-dies/read/admit":         "done=10000000 err=false root=read[0,10000000]lba3 health=bypass pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF0 WA0 RR1 RW0 PR1 PW0 FO1",
		"ssd-dies/read/no-admit":      "done=10000000 err=false root=read[0,10000000]lba3 health=bypass pumps=1 R1 W0 RH0 RM1 WH0 WM0 RF0 WA0 RR1 RW0 PR1 PW0 FO1",
		"ssd-dies/write/admit":        "done=20000000 err=false root=write[0,20000000]lba3 health=bypass pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA0 RR0 RW1 PR0 PW1 FO1",
		"ssd-dies/write/no-admit":     "done=20000000 err=false root=write[0,20000000]lba3 health=bypass pumps=1 R0 W1 RH0 RM0 WH0 WM1 RF0 WA0 RR0 RW1 PR0 PW1 FO1",
		"op-fails/write/admit":        "done=0 err=true root=write[0,0]lba1000 health=normal pumps=0 R0 W0 RH0 RM0 WH0 WM0 RF0 WA0 RR0 RW0 PR0 PW0 FO0",
		"op-fails/write/no-admit":     "done=0 err=true root=write[0,0]lba1000 health=normal pumps=0 R0 W0 RH0 RM0 WH0 WM0 RF0 WA0 RR0 RW0 PR0 PW0 FO0",
	}
	for name, want := range cells {
		parts := strings.Split(name, "/")
		mode, write, admit := parts[0], parts[1] == "write", parts[2] == "admit"
		t.Run(name, func(t *testing.T) {
			var members []blockdev.Device
			for i := 0; i < 5; i++ {
				d := blockdev.NewNullDataDevice("d", 4096)
				d.Latency = 10 * sim.Millisecond
				members = append(members, d)
			}
			a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
			if err != nil {
				t.Fatal(err)
			}
			ssd := blockdev.NewNullDataDevice("ssd", 1024+64)
			ssd.Latency = 300 * sim.Microsecond
			inj := blockdev.NewFaultInjector(ssd, 7)
			ob := obs.New()
			probe := &pumpProbe{Backend: a}
			k, err := core.New(core.Config{
				SSD: inj, Backend: probe, CachePages: 1024, Ways: 32,
				MetaPages: 64, Codec: delta.ZRLE{}, Tracer: ob.Tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			page := bytes.Repeat([]byte{0xA5}, blockdev.PageSize)
			for lba := int64(0); lba < 8; lba++ {
				if _, err := k.Write(0, lba, page); err != nil {
					t.Fatal(err)
				}
			}
			lba := int64(missLBA)
			buf := bytes.Repeat([]byte{0x5A}, blockdev.PageSize)
			switch mode {
			case "pass-through":
				inj.Fail()
				if _, err := k.Read(0, hitLBA, buf); err != nil {
					t.Fatal(err)
				}
				if k.Health() != core.HealthBypass {
					t.Fatalf("setup: health %v", k.Health())
				}
			case "ssd-dies":
				lba = hitLBA
				inj.Fail()
			case "op-fails":
				buf = nil // a data-mode write with no payload is refused
			}
			before := *k.Stats()
			pumps := probe.pumps
			spans := len(traceOf(t, ob))

			done, err := k.Serve(at, lba, buf, write, admit)

			after := *k.Stats()
			var root obs.Record
			for _, r := range traceOf(t, ob)[spans:] {
				if r.Parent == 0 {
					root = r
					break
				}
			}
			got := fmt.Sprintf("done=%d err=%v root=%v[%d,%d]lba%d health=%v pumps=%d "+
				"R%d W%d RH%d RM%d WH%d WM%d RF%d WA%d RR%d RW%d PR%d PW%d FO%d",
				int64(done-at), err != nil, root.Phase, int64(root.Begin-at), int64(root.End-at), root.LBA,
				k.Health(), probe.pumps-pumps,
				after.Reads-before.Reads, after.Writes-before.Writes,
				after.ReadHits-before.ReadHits, after.ReadMisses-before.ReadMisses,
				after.WriteHits-before.WriteHits, after.WriteMiss-before.WriteMiss,
				after.ReadFills-before.ReadFills, after.WriteAllocs-before.WriteAllocs,
				after.RAIDReads-before.RAIDReads, after.RAIDWrites-before.RAIDWrites,
				after.PassReads-before.PassReads, after.PassWrites-before.PassWrites,
				after.Failovers-before.Failovers)
			if got != want {
				t.Fatalf("\n got %s\nwant %s", got, want)
			}
			if after.ReadHits+after.ReadMisses != after.Reads || after.WriteHits+after.WriteMiss != after.Writes {
				t.Fatalf("%d reads = %d hits + %d misses, %d writes = %d hits + %d misses",
					after.Reads, after.ReadHits, after.ReadMisses, after.Writes, after.WriteHits, after.WriteMiss)
			}
		})
	}
}

func traceOf(t *testing.T, ob *obs.Obs) []obs.Record {
	t.Helper()
	recs, err := obs.ReadTrace(bytes.NewReader(ob.TraceJSONL()))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
