package main

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/harness"
	"kddcache/internal/hdd"
	"kddcache/internal/lsraid"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// kind selects the loop that drives a workload.
type kind uint8

const (
	// kindTrace replays a synthesised Table-I trace through
	// harness.RunTrace: open loop in virtual time, nil page buffers.
	kindTrace kind = iota
	// kindDirect drives Policy.Read/Write with real pages from the
	// benchmark's own loop, one request in flight.
	kindDirect
	// kindPlane drives shard.Plane.RunBatch with real pages, one 256-op
	// batch in flight.
	kindPlane
)

// planeBatch is the plane workload's batch size.
const planeBatch = 256

// workloadDef is one benchmark workload. Sizes are for --seconds 10 (five
// replays of about two seconds each on the reference box) and scale
// linearly.
type workloadDef struct {
	name    string
	why     string
	kind    kind
	backend string // "kdd" (parity RAID-5) or "lsraid"

	// kindTrace: the Table-I spec, its scale at --seconds 10, and the
	// open-loop replay rate (harness.Fig9's).
	spec  workload.Spec
	scale float64
	iops  float64

	// kindDirect / kindPlane: the Zipf request stream (Requests at
	// --seconds 10) and the stack geometry.
	stream     workload.OpenLoop
	cachePages int64
	diskPages  int64
}

var workloads = []workloadDef{
	{
		name: "fin1_raid", kind: kindTrace, backend: "kdd",
		why:  "write-dominant OLTP trace, footprint 4x the cache, on KDD over RAID-5: write hits, DEZ packing, cleaner, delayed parity",
		spec: workload.Fin1, scale: 0.09, iops: 80,
	},
	{
		name: "fin1_lsraid", kind: kindTrace, backend: "lsraid",
		why:  "same trace and cache as fin1_raid over the log-structured array: isolates the array engine below the Array seam",
		spec: workload.Fin1, scale: 0.09, iops: 80,
	},
	{
		name: "web0_raid", kind: kindTrace, backend: "kdd",
		why:  "read-dominant trace on the fin1_raid stack: read hits, miss fills and FTL reads; parity and cleaner work is small",
		spec: workload.Web0, scale: 0.12, iops: 110,
	},
	{
		name: "zipf_plane_fit", kind: kindPlane, backend: "kdd",
		why: "Zipf stream with real pages that fits the cache (footprint = half of it), through shard.Plane on P goroutine workers: " +
			"codec, parity XOR, page copies and plane locks, no eviction",
		stream: workload.OpenLoop{Clients: 16, OfferedIOPS: 1000, Requests: 140000,
			Footprint: 8192, ReadRatio: 0.3, Theta: 0.9},
		cachePages: 16384, diskPages: 4096,
	},
	{
		name: "zipf_lsraid_data", kind: kindDirect, backend: "lsraid",
		why: "Zipf stream with real pages, footprint 4x the cache, filling lsraid's logical space: staging, full-stripe append, " +
			"segment GC copy-forward over about ten overwrites",
		stream: workload.OpenLoop{Clients: 16, OfferedIOPS: 1000, Requests: 140000,
			Footprint: 8192, ReadRatio: 0.5, Theta: 0.9},
		cachePages: 2048, diskPages: 2048,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// deriveSeed gives every stochastic input its own stream of the run seed
// (SplitMix64 finaliser); the result is never zero, which the harness
// would replace with its default.
func deriveSeed(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

const (
	streamTrace = iota + 1
	streamStack
	streamPayload
)

// traceSpec is the scaled Table-I spec of a trace workload.
func (w workloadDef) traceSpec(size float64, seed uint64) workload.Spec {
	s := w.spec.Scale(w.scale * size)
	s.MeanIOPS = w.iops
	s.Seed = deriveSeed(seed, streamTrace)
	return s
}

// synthesize generates the request stream. The program under test only
// ever sees these requests.
func (w workloadDef) synthesize(size float64, seed uint64) *trace.Trace {
	if w.kind == kindTrace {
		return workload.Synthesize(w.traceSpec(size, seed))
	}
	o := w.stream
	o.Name = w.name
	o.Requests = int64(float64(o.Requests) * size)
	if o.Requests < planeBatch {
		o.Requests = planeBatch
	}
	o.Seed = deriveSeed(seed, streamTrace)
	return o.Generate()
}

// stackOpts spells out every harness option, so the hand-assembled traced
// stack below reads the same values harness.Build does and no default is
// shared by accident.
func (w workloadDef) stackOpts(size float64, seed uint64) harness.StackOpts {
	o := harness.StackOpts{
		Policy: harness.PolicyKDD, Backend: w.backend, DeltaMean: 0.25,
		MetaFrac: 0.0059, Timing: true,
		Disks: 5, ChunkPages: 16, Level: raid.Level5,
		Seed: deriveSeed(seed, streamStack),
	}
	if w.kind == kindTrace {
		// The Fig. 9 KDD arm: cache = 25 % of the footprint, 256-way.
		// Members are 1.5x Fig. 9's so that one geometry serves both
		// arrays: it keeps lsraid's log at two-thirds utilisation, below
		// the point where segment GC saturates the members.
		s := w.traceSpec(size, seed)
		o.Ways = 256
		o.CachePages = s.UniqueTotal / 4 / 256 * 256
		if o.CachePages < 256 {
			o.CachePages = 256
		}
		o.DiskPages = (3*s.UniqueTotal/8 + 4096) / 32 * 32
		return o
	}
	// Real pages end to end, and device timing models too, so the data
	// workloads carry a virtual clock like the trace workloads.
	o.DataMode = true
	o.Ways = 64
	o.CachePages = w.cachePages
	o.DiskPages = w.diskPages
	return o
}

// lsSegRows and the member sizing below restate harness.Build's lsraid
// geometry; the traced-equals-untraced check fails if they drift.
const lsSegRows = 32

// buildTraced assembles the KDD stack harness.Build would, from the same
// public constructors, with a timing decorator at every seam: members,
// array, SSD (outside the fault injector, where core attaches) and, in
// data mode, the codec.
func buildTraced(o harness.StackOpts, tr *tracer) (*harness.Stack, error) {
	memberPages := o.DiskPages
	if o.Backend == "lsraid" {
		segPages := int64(lsSegRows) * int64(o.Disks-1)
		target := int64(o.Disks-1) * o.DiskPages
		memberPages = ((target+segPages-1)/segPages + 16) * lsSegRows
	}
	var members []blockdev.Device
	var disks []*hdd.Disk
	for i := 0; i < o.Disks; i++ {
		name := fmt.Sprintf("hdd%d", i)
		var d *hdd.Disk
		if o.DataMode {
			d = hdd.NewData(name, hdd.DefaultConfig(memberPages), o.Seed+uint64(i)*7)
		} else {
			d = hdd.New(name, hdd.DefaultConfig(memberPages), o.Seed+uint64(i)*7)
		}
		disks = append(disks, d)
		members = append(members, traceMember(d, tr))
	}
	var array raidiface.Array
	var err error
	if o.Backend == "lsraid" {
		array, err = lsraid.New(lsraid.Config{
			ChunkPages:   o.ChunkPages,
			SegRows:      lsSegRows,
			LogicalPages: int64(o.Disks-1) * o.DiskPages,
			Seed:         o.Seed ^ 0x15AA1D,
		}, members)
	} else {
		array, err = raid.New(raid.Config{Level: o.Level, ChunkPages: o.ChunkPages}, members)
	}
	if err != nil {
		return nil, err
	}

	metaPages := int64(float64(o.CachePages) / (1 - o.MetaFrac) * o.MetaFrac)
	if metaPages < 8 {
		metaPages = 8
	}
	var flash *ssd.Device
	var codec delta.Codec
	if o.DataMode {
		flash = ssd.NewData("ssd", ssd.DefaultConfig(o.CachePages+metaPages))
		codec = &tracedCodec{inner: delta.ZRLE{}, tr: tr}
	} else {
		flash = ssd.New("ssd", ssd.DefaultConfig(o.CachePages+metaPages))
		codec = delta.NewModelled(o.Seed+99, o.DeltaMean)
	}
	inj := blockdev.NewFaultInjector(flash, o.Seed^0x55D)
	ssdDev := traceSSD(inj, tr, metaPages)

	cfg := core.Config{
		SSD:        ssdDev,
		Backend:    &tracedBackend{inner: array, tr: tr},
		CachePages: o.CachePages,
		Ways:       o.Ways,
		MetaPages:  metaPages,
		Codec:      codec,
	}
	k, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &harness.Stack{
		Policy: &tracedPolicy{inner: k, tr: tr}, Array: array,
		SSDDev: ssdDev, SSDInj: inj, FlashModel: flash, Disks: disks,
		Opts: o, KDDConfig: cfg,
	}, nil
}

// newPlane puts the sharded plane over a built stack's devices, array and
// codec (decorated or not). The stack's own core.KDD stays unused.
func newPlane(st *harness.Stack, shards int, goroutines bool) (*shard.Plane, error) {
	codec := st.KDDConfig.Codec
	return shard.New(shard.Config{
		SSD:        st.KDDConfig.SSD,
		Backend:    st.KDDConfig.Backend,
		CachePages: st.KDDConfig.CachePages,
		Ways:       st.KDDConfig.Ways,
		MetaPages:  st.KDDConfig.MetaPages,
		Codec:      func(int) delta.Codec { return codec },
		Shards:     shards,
		Goroutines: goroutines,
		Coalesce:   true,
	})
}

// payload produces real page contents and remembers them: shadow holds
// the current version of every page of the footprint (zeros until first
// written, as a fresh array reads), which is what every read is compared
// against.
type payload struct {
	rng     *sim.RNG
	pool    []byte // random bytes that new content is copied from
	shadow  []byte
	written []bool
}

const pageSize = blockdev.PageSize

func newPayload(seed uint64, footprint int64) *payload {
	p := &payload{
		rng:     sim.NewRNG(seed),
		pool:    make([]byte, 1<<20),
		shadow:  make([]byte, footprint*pageSize),
		written: make([]bool, footprint),
	}
	for i := 0; i < len(p.pool); i += 8 {
		v := p.rng.Uint64()
		for b := 0; b < 8; b++ {
			p.pool[i+b] = byte(v >> (8 * b))
		}
	}
	return p
}

// page returns the current version of lba.
func (p *payload) page(lba int64) []byte {
	return p.shadow[lba*pageSize : (lba+1)*pageSize]
}

// rewrite advances lba to its next version and returns it. The first
// version is a full random page; each later one changes a single run of
// 384–640 bytes, the content locality KDD's deltas exploit.
func (p *payload) rewrite(lba int64) []byte {
	pg := p.page(lba)
	if !p.written[lba] {
		p.written[lba] = true
		off := p.rng.Intn(len(p.pool) - pageSize)
		copy(pg, p.pool[off:off+pageSize])
		return pg
	}
	n := 384 + p.rng.Intn(257)
	at := p.rng.Intn(pageSize - n)
	off := p.rng.Intn(len(p.pool) - n)
	copy(pg[at:at+n], p.pool[off:off+n])
	return pg
}
