// Package hdd models a 7,200 RPM magnetic disk, the primary-storage device
// in the paper's testbed (15× 1TB 7.2k drives behind Linux MD RAID-5).
//
// The model captures the three latency components that make the RAID
// small-write problem expensive — seek, rotation, and media transfer —
// plus sequential-stream detection. The paper disables drive look-ahead
// and the volatile write cache with hdparm, so there is no on-drive
// caching to model: every request pays for real mechanical positioning.
//
// Positioning model: the head position is tracked as the last-accessed
// LBA. Seek time follows the usual square-root-of-distance curve between
// track-to-track and full-stroke values. Rotational delay is uniform in
// [0, one revolution) drawn from a seeded RNG, except for sequential hits
// where both seek and rotation are skipped. An access the arm serves in
// an idle gap before its queue's tail is charged a seek from the head and
// a rotation, never a sequential hit, and does not move the tracked head.
package hdd

import (
	"fmt"
	"math"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Config describes a disk model. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	Pages int64 // capacity in 4KB pages

	RPM            int      // spindle speed
	TrackToTrack   sim.Time // minimum seek
	FullStroke     sim.Time // maximum seek
	TransferMBps   float64  // sustained media rate
	SeqWindowPages int64    // LBA distance treated as sequential continuation
}

// DefaultConfig returns the 1TB 7,200 RPM drive used in §IV-B.
func DefaultConfig(pages int64) Config {
	return Config{
		Pages:          pages,
		RPM:            7200,
		TrackToTrack:   800 * sim.Microsecond,
		FullStroke:     17 * sim.Millisecond,
		TransferMBps:   150,
		SeqWindowPages: 8,
	}
}

// Disk is a single HDD whose arm serves a work-conserving queue: an
// access that arrives while the arm is idle before a later-submitted one
// is served in that idle gap (see submit).
type Disk struct {
	name string
	cfg  Config
	q    *sim.Station
	rng  *sim.RNG

	store *blockdev.MemStore // nil in timing mode

	headLBA  int64 // last accessed LBA, for seek distance
	lastEnd  int64 // LBA one past the previous access, for sequentiality
	revTime  sim.Time
	pageXfer sim.Time
	seekMemo []uint8 // by seek distance 1..Pages: a seek-curve memo code (index 0 unused)

	reads, writes int64
	seqHits       int64

	tr *obs.Tracer
}

// SetTracer installs a span tracer (nil disables tracing). Accesses appear
// as dev_read/dev_write spans carrying the disk name.
func (d *Disk) SetTracer(tr *obs.Tracer) { d.tr = tr }

// New returns a timing-mode disk. seed makes rotational delays reproducible.
func New(name string, cfg Config, seed uint64) *Disk {
	return newDisk(name, cfg, seed, nil)
}

// NewData returns a data-mode disk backed by an in-memory store.
func NewData(name string, cfg Config, seed uint64) *Disk {
	return newDisk(name, cfg, seed, blockdev.NewMemStore(cfg.Pages))
}

func newDisk(name string, cfg Config, seed uint64, store *blockdev.MemStore) *Disk {
	if cfg.Pages <= 0 || cfg.RPM <= 0 || cfg.TransferMBps <= 0 {
		panic(fmt.Sprintf("hdd: invalid config %+v", cfg))
	}
	revTime := sim.Time(60.0 / float64(cfg.RPM) * float64(sim.Second))
	bytesPerSec := cfg.TransferMBps * 1e6
	pageXfer := sim.Time(float64(blockdev.PageSize) / bytesPerSec * float64(sim.Second))
	return &Disk{
		name:     name,
		cfg:      cfg,
		q:        sim.NewStation(name, 1),
		rng:      sim.NewRNG(seed),
		store:    store,
		revTime:  revTime,
		pageXfer: pageXfer,
		seekMemo: make([]uint8, cfg.Pages+1),
		headLBA:  0,
		lastEnd:  -1,
	}
}

// Name implements blockdev.Device.
func (d *Disk) Name() string { return d.name }

// Pages implements blockdev.Device.
func (d *Disk) Pages() int64 { return d.cfg.Pages }

// Reads returns the number of read operations serviced.
func (d *Disk) Reads() int64 { return d.reads }

// Writes returns the number of write operations serviced.
func (d *Disk) Writes() int64 { return d.writes }

// SeqHits returns how many operations were serviced as sequential
// continuations (no seek, no rotation).
func (d *Disk) SeqHits() int64 { return d.seqHits }

// BusyTime returns total service time issued on the disk arm.
func (d *Disk) BusyTime() sim.Time { return d.q.BusyTime() }

// Store exposes the backing store (nil in timing mode).
func (d *Disk) Store() *blockdev.MemStore { return d.store }

// seekTime returns the seek latency for moving the head `dist` pages.
func (d *Disk) seekTime(dist int64) sim.Time {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	// t = min + (max-min) * sqrt(d / capacity); a seek past the last page
	// costs a full stroke.
	if dist > d.cfg.Pages {
		dist = d.cfg.Pages
	}
	frac := float64(dist) / float64(d.cfg.Pages)
	span := float64(d.cfg.FullStroke - d.cfg.TrackToTrack)
	return d.cfg.TrackToTrack + sim.Time(span*d.seekRoot(dist, frac))
}

// Seek-curve memo codes, one per seek distance. The curve is sqrt, the
// 24-step Newton iterate, which is math.Sqrt or one ulp either side of it
// at every distance of the member geometries TestSeekMemoMatchesDefinition
// walks; the memo records which, so only the first seek at a distance
// pays for sqrt (and every seek, where neither holds).
const (
	seekUnseen uint8 = iota // not yet computed
	seekDown                // sqrt = math.Sqrt one ulp down
	seekExact               // sqrt = math.Sqrt
	seekUp                  // sqrt = math.Sqrt one ulp up
	seekFar                 // more than one ulp away: run sqrt every time
)

// seekRoot returns sqrt(frac) for frac = dist/Pages, 1 <= dist <= Pages.
func (d *Disk) seekRoot(dist int64, frac float64) float64 {
	r := math.Sqrt(frac)
	switch d.seekMemo[dist] {
	case seekExact:
		return r
	case seekDown:
		return math.Float64frombits(math.Float64bits(r) - 1)
	case seekUp:
		return math.Float64frombits(math.Float64bits(r) + 1)
	case seekFar:
		return sqrt(frac)
	}
	s := sqrt(frac)
	d.seekMemo[dist] = seekCode(s, r)
	return s
}

// seekCode classifies the model's root s against the correctly rounded
// root r of the same fraction (both positive and finite).
func seekCode(s, r float64) uint8 {
	switch int64(math.Float64bits(s)) - int64(math.Float64bits(r)) {
	case -1:
		return seekDown
	case 0:
		return seekExact
	case 1:
		return seekUp
	}
	return seekFar
}

// newton is one step of Newton's iteration for the square root of x.
func newton(z, x float64) float64 { return z - (z*z-x)/(2*z) }

// sqrt returns the 24th Newton iterate from z = x. That iterate, not the
// correctly rounded root, is the model's seek curve: math.Sqrt differs
// from it in the last place on about one input in seven, which moves a
// truncated seek time by a nanosecond now and then and with it that
// disk's queue for the rest of a run. The iterates are a deterministic
// sequence, so once one repeats its predecessor (a fixed point) or the
// one before (a 2-cycle) the 24th is known without computing it — after
// about ten steps for the seek fractions a replay produces. seekRoot runs
// it once per distance and keeps only its offset from math.Sqrt.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	prev, z := x, x
	for i := 0; i < 24; i++ {
		next := newton(z, x)
		if next == z {
			return z
		}
		if next == prev { // iterates alternate z, next from here on
			if (24-i)%2 == 0 {
				return z
			}
			return next
		}
		prev, z = z, next
	}
	return z
}

// submit charges an access its positioning and transfer and queues it on
// the arm, returning its completion time.
//
// The arm's queue is work-conserving (sim.Station): an access that fits an
// idle gap before the queue's tail is served there. Its physical
// predecessor is then whatever the arm served before the gap, which the
// disk does not track, so a backfilled access is charged a full seek from
// the current head position plus a rotational draw, never sequential
// credit, and leaves the head state to the tail. An access at the tail is
// charged from the head state as it stands, as a FIFO disk would.
func (d *Disk) submit(t sim.Time, lba int64, count int) sim.Time {
	xfer := sim.Time(int64(count)) * d.pageXfer
	seq := d.lastEnd >= 0 && lba >= d.lastEnd && lba-d.lastEnd <= d.cfg.SeqWindowPages
	var pos sim.Time
	// A sequential continuation lies past the head, so a gap would charge
	// it at least a track-to-track seek: it skips the seek and the
	// rotational draw unless some gap could hold that much.
	if !seq || d.q.Fits(0, t, d.cfg.TrackToTrack+xfer) {
		pos = d.seekTime(lba - d.headLBA)
		// Uniform rotational latency in [0, revolution).
		pos += sim.Time(d.rng.Float64() * float64(d.revTime))
		if done, ok := d.q.Backfill(0, t, pos+xfer); ok {
			return done
		}
	}
	if seq {
		// Sequential continuation: no seek, negligible rotation.
		d.seqHits++
		pos = 0
	}
	d.headLBA = lba + int64(count) - 1
	d.lastEnd = lba + int64(count)
	return d.q.Append(0, t, pos+xfer)
}

// ReadPages implements blockdev.Device.
func (d *Disk) ReadPages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.Pages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	if d.store != nil && buf != nil {
		// A page that fails its checksum fails the read at once, like an
		// injected media error: no arm time, no span, no count.
		if err := d.store.ReadPagesChecked(lba, buf); err != nil {
			return t, err
		}
	}
	// Explicit End instead of a deferred closure: this is a hot traced
	// function and the defer setup is measurable per call.
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevRead, d.name, lba, count)
	}
	d.reads++
	done = d.submit(t, lba, count)
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// WritePages implements blockdev.Device.
func (d *Disk) WritePages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.Pages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevWrite, d.name, lba, count)
	}
	d.writes++
	if d.store != nil && buf != nil {
		for i := 0; i < count; i++ {
			d.store.WritePage(lba+int64(i), buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize])
		}
	}
	done = d.submit(t, lba, count)
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// PublishMetrics writes the disk's service counters into reg, labelled by
// disk name so arrays of members stay distinguishable.
func (d *Disk) PublishMetrics(reg *obs.Registry) {
	l := "{disk=\"" + d.name + "\"}"
	reg.SetCounter("hdd_reads_total"+l, "Read operations serviced.", d.reads)
	reg.SetCounter("hdd_writes_total"+l, "Write operations serviced.", d.writes)
	reg.SetCounter("hdd_seq_hits_total"+l, "Operations serviced as sequential continuations.", d.seqHits)
	reg.SetCounter("hdd_busy_ns_total"+l, "Total arm service time in virtual nanoseconds.", int64(d.q.BusyTime()))
}

var _ blockdev.Device = (*Disk)(nil)
