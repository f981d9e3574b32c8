// Package harness wires the substrates into the paper's two experimental
// rigs — the trace-driven cache simulator (§IV-A) and the prototype-style
// timing stack (§IV-B) — and regenerates every table and figure of the
// evaluation section.
package harness

import (
	"cmp"
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/hdd"
	"kddcache/internal/lsraid"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
)

// PolicyKind selects a cache management scheme.
type PolicyKind string

// The five schemes of the evaluation, plus two extra baselines this repo
// implements to make the paper's motivations demonstrable: WB (write-back
// — excluded by §IV-A1 for its RPO violation) and NVB (NVRAM write
// buffering — §I's limited alternative).
const (
	PolicyNossd PolicyKind = "Nossd"
	PolicyWT    PolicyKind = "WT"
	PolicyWA    PolicyKind = "WA"
	PolicyLeavO PolicyKind = "LeavO"
	PolicyKDD   PolicyKind = "KDD"
	PolicyWB    PolicyKind = "WB"
	PolicyNVB   PolicyKind = "NVB"
	PolicyPLog  PolicyKind = "PLog"
)

// StackOpts configures one experiment stack.
type StackOpts struct {
	Policy PolicyKind

	// Backend selects the array implementation under the cache: "kdd"
	// (the default, also when empty; parity RAID + the paper's
	// delayed-parity protocol) or "lsraid" (log-structured backend —
	// full-stripe appends, no parity debt, so PolicyPLog is refused on
	// it). The lsraid stack is built with oversized members so its
	// logical capacity equals the kdd geometry's (Disks-1)*DiskPages —
	// head-to-head runs see identical address spaces. Its geometry is
	// derived from DiskPages: segments of DiskPages/8 rows, clamped to
	// [1, 32], so a log sized for a small footprint still spans enough
	// segments to wrap; and half as many spare segments as its logical
	// space fills, clamped to [4, 16] (GC's reserve of two plus the open
	// segment's slack of two at least). From DiskPages 256 up that is
	// 32-row segments; from 1024, the 16 spares as well — every
	// figure-scale stack.
	Backend string

	// DeltaMean sets KDD's modelled content locality (0.50/0.25/0.12 for
	// KDD-50%/25%/12%). Ignored by other policies.
	DeltaMean float64

	// CachePages is the SSD cache data capacity in 4KB pages.
	CachePages int64
	// MetaFrac is the metadata partition share of the SSD (paper default
	// 0.59%); used by KDD's circular log and LeavO's metadata region.
	MetaFrac float64
	// Ways is set associativity (default 256).
	Ways int

	// Timing selects realistic device models (HDD seek curves, SSD flash
	// latencies with FTL) instead of zero-latency null devices. Null
	// devices are the right choice for pure hit-ratio/write-traffic
	// simulation; timing mode is the "prototype".
	Timing bool

	// DataMode backs every device with real bytes so the stack carries
	// and verifies actual data (delta codecs run for real). Combines with
	// Timing.
	DataMode bool

	// SSDData backs only the SSD with real bytes, so the metadata log
	// genuinely persists while the rest of the stack stays in fast
	// timing mode — what crash-recovery timing experiments need.
	SSDData bool

	// Disks and DiskPages shape the array (paper: 5 disks, 64KB chunks);
	// Level is RAID-5 (the default) or RAID-6, which only the kdd
	// backend builds.
	Disks      int
	DiskPages  int64
	ChunkPages int64
	Level      raid.Level

	// Seed drives every stochastic component.
	Seed uint64

	// Spares parks this many hot-spare member devices on the array at
	// build time; the KDD engine auto-attaches one when a member fails
	// and paces the rebuild against foreground traffic.
	Spares int

	// NVBPages sizes the NVRAM write buffer for PolicyNVB (default 2048
	// pages = 8MB: NVRAM is small "for power and cost efficiency").
	NVBPages int

	// PLogPages sizes the parity-log region for PolicyPLog (default 4096
	// pages on a dedicated log disk).
	PLogPages int64

	// KDD knobs for ablations.
	FixedDEZSets       int
	ReclaimMaterialize bool
	DisableMetaLog     bool
	SelectiveAdmission bool

	// Obs, when non-nil, threads its span tracer through every layer of
	// the stack (core engine, RAID array, SSD flash model, member disks)
	// so a run emits a deterministic per-phase trace. Nil disables tracing
	// with zero overhead.
	Obs *obs.Obs
}

// withDefaults fills zero fields with the paper's configuration.
func (o StackOpts) withDefaults() StackOpts {
	o.Policy = cmp.Or(o.Policy, PolicyKDD)
	o.DeltaMean = cmp.Or(o.DeltaMean, 0.25)
	o.CachePages = cmp.Or(o.CachePages, 262144) // 1GB
	o.MetaFrac = cmp.Or(o.MetaFrac, 0.0059)
	o.Ways = cmp.Or(o.Ways, 256)
	o.Disks = cmp.Or(o.Disks, 5)
	o.ChunkPages = cmp.Or(o.ChunkPages, 16) // 64KB
	o.Level = cmp.Or(o.Level, raid.Level5)
	o.DiskPages = cmp.Or(o.DiskPages, 1<<20) // 4GB per member
	o.Seed = cmp.Or(o.Seed, 1)
	o.Backend = cmp.Or(o.Backend, "kdd")
	return o
}

// Stack is a ready-to-run experiment rig.
type Stack struct {
	Policy cache.Policy
	Array  raidiface.Array
	SSDDev blockdev.Device
	// SSDInj is the fault injector wrapping the SSD (SSDDev == SSDInj),
	// through which whole-cache-device failure is injected mid-run.
	SSDInj *blockdev.FaultInjector
	// FlashModel is the FTL-level SSD model (nil with null devices).
	FlashModel *ssd.Device
	// Disks holds the HDD models (nil entries with null devices).
	Disks []*hdd.Disk
	Opts  StackOpts
	// KDDConfig is the core configuration used when Policy is KDD
	// (zero value otherwise); crash-recovery experiments rebuild from it.
	KDDConfig core.Config
	// PerRequest, when set, is invoked with the request index before each
	// trace request is issued — the hook kddsim's -kill-ssd-at and
	// -reattach-at flags are built on.
	PerRequest func(i int)
}

// ErrOptions is wrapped by every Build error that rejects the options
// themselves rather than a device or engine failing: a command reports
// it as a usage error.
var ErrOptions = errors.New("harness: bad stack options")

// Build assembles a stack.
func Build(o StackOpts) (*Stack, error) {
	o = o.withDefaults()
	if !(o.DeltaMean > 0 && o.DeltaMean <= 1) {
		return nil, fmt.Errorf("%w: delta mean %g outside (0,1]", ErrOptions, o.DeltaMean)
	}
	if !(o.MetaFrac > 0 && o.MetaFrac < 1) {
		return nil, fmt.Errorf("%w: metadata share %g outside (0,1)", ErrOptions, o.MetaFrac)
	}
	switch o.Policy {
	case PolicyWT, PolicyWA, PolicyLeavO, PolicyWB, PolicyKDD:
		if o.Ways < 1 || o.CachePages < int64(o.Ways) {
			return nil, fmt.Errorf("%w: cache of %d pages below one set of %d ways", ErrOptions, o.CachePages, o.Ways)
		}
	case PolicyNossd, PolicyNVB, PolicyPLog:
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", ErrOptions, o.Policy)
	}
	switch {
	case o.Level != raid.Level5 && o.Level != raid.Level6:
		return nil, fmt.Errorf("%w: no %v array (want RAID-5 or RAID-6)", ErrOptions, o.Level)
	case o.Backend == "lsraid" && o.Level != raid.Level5:
		return nil, fmt.Errorf("%w: the lsraid backend is single-parity: no %v", ErrOptions, o.Level)
	case o.Backend == "lsraid" && o.Policy == PolicyPLog:
		return nil, fmt.Errorf("%w: the lsraid backend owes no parity for PLog to log", ErrOptions)
	}

	// Member disks. The lsraid backend needs physically larger members to
	// present the same logical capacity as the kdd parity geometry: the
	// log keeps reserve segments plus GC headroom, so member size is
	// derived from the target (Disks-1)*DiskPages logical space, with the
	// segment rows and spare segments StackOpts.Backend documents.
	memberPages := o.DiskPages
	segRows := min(max(o.DiskPages/8, 1), 32)
	if o.Backend == "lsraid" {
		segPages := segRows * int64(o.Disks-1)
		dataSegs := (int64(o.Disks-1)*o.DiskPages + segPages - 1) / segPages
		memberPages = (dataSegs + min(max(dataSegs/2, 4), 16)) * segRows
	}
	var members []blockdev.Device
	var disks []*hdd.Disk
	for i := 0; i < o.Disks; i++ {
		m := buildMember(o, fmt.Sprintf("hdd%d", i), memberPages, uint64(i)*7)
		if d, ok := m.(*hdd.Disk); ok {
			disks = append(disks, d)
		}
		members = append(members, m)
	}
	var array raidiface.Array
	switch o.Backend {
	case "kdd":
		a, err := raid.New(raid.Config{Level: o.Level, ChunkPages: o.ChunkPages}, members)
		if err != nil {
			return nil, err
		}
		array = a
	case "lsraid":
		a, err := lsraid.New(lsraid.Config{
			ChunkPages:   o.ChunkPages,
			SegRows:      segRows,
			LogicalPages: int64(o.Disks-1) * o.DiskPages,
			Seed:         o.Seed ^ 0x15AA1D,
		}, members)
		if err != nil {
			return nil, err
		}
		array = a
	default:
		return nil, fmt.Errorf("%w: unknown backend %q", ErrOptions, o.Backend)
	}
	for i := 0; i < o.Spares; i++ {
		if err := array.AddSpare(buildMember(o, fmt.Sprintf("spare%d", i), memberPages, 1900+uint64(i)*7)); err != nil {
			return nil, err
		}
	}
	var tr *obs.Tracer
	if o.Obs != nil {
		tr = o.Obs.Tracer
		array.SetTracer(tr)
		for _, d := range disks {
			d.SetTracer(tr)
		}
	}

	// SSD sizing: cache pages plus the metadata partition.
	metaPages := int64(float64(o.CachePages) / (1 - o.MetaFrac) * o.MetaFrac)
	if metaPages < 8 {
		metaPages = 8
	}
	ssdPages := o.CachePages + metaPages
	ssdDev := newSSD(o, ssdPages)
	flash, _ := ssdDev.(*ssd.Device)
	if flash != nil {
		flash.SetTracer(tr)
	}
	// Every stack gets a fault injector around the SSD so whole-cache
	// failure can be injected into any experiment. It is pass-through
	// (zero latency, no fault profile) until armed.
	ssdInj := blockdev.NewFaultInjector(ssdDev, o.Seed^0x55D)
	ssdDev = ssdInj

	st := &Stack{Array: array, SSDDev: ssdDev, SSDInj: ssdInj, FlashModel: flash, Disks: disks, Opts: o}
	switch o.Policy {
	case PolicyNossd:
		st.Policy = cache.NewNossd(array)
	case PolicyWT:
		st.Policy = cache.NewWT(ssdDev, array, o.CachePages, metaPages, o.Ways)
	case PolicyWA:
		st.Policy = cache.NewWA(ssdDev, array, o.CachePages, metaPages, o.Ways)
	case PolicyLeavO:
		st.Policy = cache.NewLeavO(ssdDev, array, o.CachePages, metaPages, o.Ways)
	case PolicyWB:
		st.Policy = cache.NewWB(ssdDev, array, o.CachePages, metaPages, o.Ways)
	case PolicyNVB:
		nvb := o.NVBPages
		if nvb == 0 {
			nvb = 2048
		}
		st.Policy = cache.NewNVB(array, nvb)
	case PolicyPLog:
		cap := o.PLogPages
		if cap == 0 {
			cap = 4096
		}
		var logDev blockdev.Device
		if o.Timing {
			ld := hdd.New("logdisk", hdd.DefaultConfig(cap), o.Seed+7777)
			ld.SetTracer(tr)
			logDev = ld
		} else {
			logDev = blockdev.NewNullDevice("logdisk", cap)
		}
		st.Policy = cache.NewPLog(array, logDev, cap)
	case PolicyKDD:
		var codec delta.Codec = delta.NewModelled(o.Seed+99, o.DeltaMean)
		if o.DataMode {
			codec = delta.ZRLE{} // real bytes: run the real codec
		}
		st.KDDConfig = core.Config{
			SSD:                ssdDev,
			Backend:            array,
			CachePages:         o.CachePages,
			Ways:               o.Ways,
			MetaPages:          metaPages,
			Codec:              codec,
			FixedDEZSets:       o.FixedDEZSets,
			ReclaimMaterialize: o.ReclaimMaterialize,
			DisableMetaLog:     o.DisableMetaLog,
			SelectiveAdmission: o.SelectiveAdmission,
			Tracer:             tr,
		}
		k, err := core.New(st.KDDConfig)
		if err != nil {
			return nil, err
		}
		st.Policy = k
	}
	return st, nil
}

// newSSD constructs the cache device honoring the stack's device mode:
// the FTL flash model under Timing, a null device otherwise, byte-backed
// when the stack (or only its SSD) carries real data.
func newSSD(o StackOpts, pages int64) blockdev.Device {
	ssdBytes := o.DataMode || o.SSDData
	switch {
	case o.Timing && ssdBytes:
		return ssd.NewData("ssd", ssd.DefaultConfig(pages))
	case o.Timing:
		return ssd.New("ssd", ssd.DefaultConfig(pages))
	case ssdBytes:
		return blockdev.NewNullDataDevice("ssd", pages)
	default:
		return blockdev.NewNullDevice("ssd", pages)
	}
}

// FreshSSD builds a replacement cache device matching the stack's device
// mode and geometry (for SSD re-attach experiments).
func (st *Stack) FreshSSD() blockdev.Device {
	return newSSD(st.Opts, st.SSDInj.Inner().Pages())
}

// ReattachSSD repairs a failed (or fault-ridden) cache SSD with a fresh
// device of the same geometry and re-attaches the KDD cache online: the
// metadata log is re-initialised on the new medium and the cache warms
// back up through ordinary admission. The previous cache contents died
// with the old device; the array — kept consistent by the emergency fold
// at failover — is the source of truth.
func (st *Stack) ReattachSSD(now sim.Time) error {
	k, ok := st.Policy.(*core.KDD)
	if !ok {
		return fmt.Errorf("harness: reattach requires the KDD policy, have %s", st.Policy.Name())
	}
	fresh := st.FreshSSD()
	st.SSDInj.FailAfterOps = 0 // Repair preserves the arm; clear it explicitly
	st.SSDInj.Repair(fresh)
	if f, ok := fresh.(*ssd.Device); ok {
		if st.Opts.Obs != nil {
			f.SetTracer(st.Opts.Obs.Tracer)
		}
		st.FlashModel = f
	}
	return k.Reattach(now, nil)
}

// Serve issues one page request to the stack's policy. admit false (a
// QoS bypass verdict) suspends cache admission on a KDD stack; other
// policies have no admission to suspend and serve the request normally.
func (st *Stack) Serve(t sim.Time, lba int64, buf []byte, write, admit bool) (sim.Time, error) {
	if k, ok := st.Policy.(*core.KDD); ok {
		return k.Serve(t, lba, buf, write, admit)
	}
	if write {
		return st.Policy.Write(t, lba, buf)
	}
	return st.Policy.Read(t, lba, buf)
}

// PublishMetrics writes every layer's counters into reg: the policy's
// cache statistics, the KDD engine internals (when KDD is the policy),
// the RAID member-I/O accounting, the SSD FTL counters, and the member
// disks' service counters.
func (st *Stack) PublishMetrics(reg *obs.Registry) {
	obs.PublishCacheStats(reg, st.Policy.Stats())
	if k, ok := st.Policy.(*core.KDD); ok {
		k.PublishMetrics(reg)
	}
	st.Array.PublishMetrics(reg)
	if st.FlashModel != nil {
		st.FlashModel.PublishMetrics(reg)
	}
	for _, d := range st.Disks {
		d.PublishMetrics(reg)
	}
}

// buildMember constructs one member-class device honoring the stack's
// device mode — used for the array's members and hot spares at build
// time and for rebuild replacements.
func buildMember(o StackOpts, name string, diskPages int64, seedOff uint64) blockdev.Device {
	switch {
	case o.Timing && o.DataMode:
		return hdd.NewData(name, hdd.DefaultConfig(diskPages), o.Seed+seedOff)
	case o.Timing:
		return hdd.New(name, hdd.DefaultConfig(diskPages), o.Seed+seedOff)
	case o.DataMode:
		return blockdev.NewNullDataDevice(name, diskPages)
	default:
		return blockdev.NewNullDevice(name, diskPages)
	}
}

// FreshMember builds a replacement member disk matching the stack's
// device mode, for every replace/repair path (experiments, the cmd tools,
// the facade). It is sized from a live member, not from
// StackOpts.DiskPages: the log-structured backend's members are larger
// than the logical geometry (reserve segments plus GC headroom).
func (st *Stack) FreshMember() blockdev.Device {
	return buildMember(st.Opts, "fresh", st.Array.Member(0).Pages(), 991)
}
