// Package kddcache is a reproduction of "Improving RAID Performance Using
// an Endurable SSD Cache" (Li, Feng, Hua, Wang — ICPP 2016): the KDD
// (Keeping Data and Deltas) SSD-cache management scheme for parity-based
// RAID, together with the full substrate it runs on — a byte-accurate
// RAID-5/6 engine, HDD and flash (FTL) device models on a
// deterministic virtual-time engine, delta codecs, an NVRAM-buffered
// circular metadata log, and the write-through / write-around / LeavO
// baselines the paper compares against.
//
// This package is the public facade. A System bundles an SSD-cached RAID
// array behind a chosen policy:
//
//	sys, err := kddcache.New(kddcache.Options{
//		Policy:     kddcache.KDD,
//		CachePages: 262144,            // 1 GB of 4KB pages
//		DataMode:   true,              // carry real bytes end to end
//	})
//	...
//	sys.Write(lba, page)
//	sys.Read(lba, buf)
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation is exposed through the Experiment* functions and the
// cmd/ tools.
package kddcache

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/harness"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// PageSize is the fixed page size in bytes (the paper's 4KB).
const PageSize = blockdev.PageSize

// Policy selects the cache management scheme.
type Policy string

// Available policies. The first five are the paper's evaluation lineup;
// WB, NVB and PLog are extra baselines this repo implements to make the
// paper's prose claims measurable (write-back's RPO violation, §I's
// NVRAM-buffering limits, and §V-A's Parity Logging lineage).
const (
	Nossd Policy = "Nossd" // no cache: direct RAID access
	WT    Policy = "WT"    // write-through
	WA    Policy = "WA"    // write-around
	LeavO Policy = "LeavO" // old+new versions, delayed parity (SAC'15)
	KDD   Policy = "KDD"   // the paper's scheme
	WB    Policy = "WB"    // write-back (loses data on SSD failure)
	NVB   Policy = "NVB"   // NVRAM write buffer with full-stripe destage
	PLog  Policy = "PLog"  // parity logging (ISCA'93)
)

// Options configures a System. Zero values select the paper's defaults
// (5-disk RAID-5, 64KB chunks, 1GB cache, 0.59% metadata partition,
// 256-way sets, KDD at 25% content locality).
type Options struct {
	Policy     Policy
	CachePages int64   // SSD cache capacity in pages
	DeltaMean  float64 // KDD modelled content locality (timing mode)
	MetaFrac   float64 // metadata partition share of the SSD
	Ways       int     // set associativity

	Disks      int        // RAID member count
	DiskPages  int64      // member capacity in pages
	ChunkPages int64      // RAID chunk size in pages
	Level      raid.Level // RAID-5 (default) or RAID-6 (kdd backend only)
	Backend    string     // array backend: "kdd" (parity RAID, default) or "lsraid" (log-structured)

	// Timing enables the HDD/SSD latency models; DataMode carries real
	// bytes (and runs the real ZRLE delta codec under KDD).
	Timing   bool
	DataMode bool

	Seed uint64
}

// System is an SSD-cached RAID storage stack.
type System struct {
	st  *harness.Stack
	now sim.Time
	qos *qos.Controller
}

// New builds a System.
func New(o Options) (*System, error) {
	hs, err := harness.Build(harness.StackOpts{
		Policy:     harness.PolicyKind(o.Policy),
		DeltaMean:  o.DeltaMean,
		CachePages: o.CachePages,
		MetaFrac:   o.MetaFrac,
		Ways:       o.Ways,
		Timing:     o.Timing,
		DataMode:   o.DataMode,
		Disks:      o.Disks,
		DiskPages:  o.DiskPages,
		ChunkPages: o.ChunkPages,
		Level:      o.Level,
		Backend:    o.Backend,
		Seed:       o.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &System{st: hs}, nil
}

// Pages returns the logical capacity of the backing array in pages.
func (s *System) Pages() int64 { return s.st.Array.Pages() }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.now }

// Advance moves virtual time forward to model an idle period, which runs
// one background cleaning pass at its end. It returns the pass's error
// (an array failure under the repairs, say).
func (s *System) Advance(d sim.Time) error {
	s.now += d
	_, err := s.st.Policy.Clean(s.now, false)
	return err
}

// Read reads one page at lba into buf (len >= PageSize; may be nil in
// timing mode) and returns the virtual request latency.
func (s *System) Read(lba int64, buf []byte) (sim.Time, error) {
	return s.serve(lba, buf, false, true)
}

// Write writes one page at lba from buf and returns the virtual latency.
func (s *System) Write(lba int64, buf []byte) (sim.Time, error) {
	return s.serve(lba, buf, true, true)
}

// serve issues one request at the current virtual time and advances the
// clock to its completion.
func (s *System) serve(lba int64, buf []byte, write, admit bool) (sim.Time, error) {
	done, err := s.st.Serve(s.now, lba, buf, write, admit)
	if err != nil {
		return 0, err
	}
	lat := done - s.now
	s.now = done
	return lat, nil
}

// Flush drains all delayed parity updates and persists metadata.
func (s *System) Flush() error {
	done, err := s.st.Policy.Flush(s.now)
	if err != nil {
		return err
	}
	s.now = sim.MaxTime(s.now, done)
	return nil
}

// Stats returns the cache counters accumulated so far.
func (s *System) Stats() stats.CacheStats { return *s.st.Policy.Stats() }

// RAIDStats returns the array's operation counters.
func (s *System) RAIDStats() raid.Stats { return s.st.Array.Stats() }

// StaleParityRows returns how many parity rows are currently stale
// (delayed by KDD/LeavO write hits).
func (s *System) StaleParityRows() int { return s.st.Array.StaleRows() }

// FailDisk injects a failure of RAID member i.
func (s *System) FailDisk(i int) { s.st.Array.FailDisk(i) }

// RepairDisk replaces failed member i with a fresh device and rebuilds
// it. With the paper's semantics, call Flush first on a KDD/LeavO system
// so stale parities are repaired before the rebuild (§III-E2).
func (s *System) RepairDisk(i int) error {
	done, err := s.st.Array.ReplaceDisk(s.now, i, s.st.FreshMember())
	if err != nil {
		return err
	}
	s.now = sim.MaxTime(s.now, done)
	return nil
}

// ResyncAfterSSDLoss re-synchronises stale parities directly from the
// array's data (the SSD-failure recovery path, §III-E2). The cache
// contents are considered lost; a fresh System should be built for
// continued caching.
func (s *System) ResyncAfterSSDLoss() error {
	done, err := s.st.Array.Resync(s.now)
	if err != nil {
		return err
	}
	s.now = sim.MaxTime(s.now, done)
	return nil
}

// ErrNotKDD is returned by KDD-specific operations on other policies.
var ErrNotKDD = errors.New("kddcache: operation requires the KDD policy")

// FailSSD fail-stops the cache SSD: every subsequent cache-device op
// returns blockdev.ErrFailed. A KDD system detects this on its next
// request, performs an emergency parity fold, and continues in
// pass-through mode with no user-visible error; other policies surface
// the device failure to the caller.
func (s *System) FailSSD() { s.st.SSDInj.Fail() }

// CacheHealth reports the KDD health state machine's current state
// (Normal, Degraded, Bypass, or Rebuilding).
func (s *System) CacheHealth() (core.Health, error) {
	k, ok := s.st.Policy.(*core.KDD)
	if !ok {
		return 0, ErrNotKDD
	}
	return k.Health(), nil
}

// ReattachSSD replaces a failed cache SSD with a fresh device of the same
// geometry and re-attaches the KDD cache online. The metadata log is
// re-initialised on the new medium and the cache warms back up through
// ordinary admission; the old cache contents died with the old device.
func (s *System) ReattachSSD() error {
	if _, ok := s.st.Policy.(*core.KDD); !ok {
		return ErrNotKDD
	}
	return s.st.ReattachSSD(s.now)
}

// CrashAndRecover simulates a power failure on a KDD system: every
// volatile structure is discarded — the cache's primary map, and in the
// array the rebuild watermark and (log-structured backend) the L2P map —
// and rebuilt from the on-SSD metadata log plus the NVRAM buffers
// (§III-E1), a half-done member rebuild resuming from its NVRAM
// checkpoint. The System continues with the recovered cache; an attached
// QoS controller is host state outside the storage stack and carries on
// unchanged.
func (s *System) CrashAndRecover() error {
	k, ok := s.st.Policy.(*core.KDD)
	if !ok {
		return ErrNotKDD
	}
	if k.Log() == nil {
		return fmt.Errorf("kddcache: metadata log disabled; recovery impossible")
	}
	s.st.Array.CrashRebuildState()
	k2, done, err := core.Restore(s.st.KDDConfig, s.now, k.Log().Counters(), k.Log().BufferedEntries(), k.Staging())
	if err != nil {
		return err
	}
	s.st.Policy = k2
	s.now = sim.MaxTime(s.now, done)
	return nil
}

// Trace replays a uniform-format trace through the system and returns
// the mean response time.
func (s *System) Trace(tr *trace.Trace) (*harness.Result, error) {
	return harness.RunTrace(s.st, tr)
}

// ---------------------------------------------------------------------------
// Multi-tenant QoS surface.

// SetQoS attaches a per-tenant admission controller to the System,
// parameterised by a "name:rate:weight[:burst]" comma-separated tenant
// list (the kddsim -tenants syntax). Tenant indices in ReadTenant /
// WriteTenant refer to this list's order. An empty spec detaches the
// controller.
func (s *System) SetQoS(tenants string) error {
	if tenants == "" {
		s.qos = nil
		return nil
	}
	specs, err := qos.ParseTenants(tenants)
	if err != nil {
		return err
	}
	ctl, err := qos.NewController(qos.Config{Tenants: specs, Start: s.now})
	if err != nil {
		return err
	}
	s.qos = ctl
	return nil
}

// ReadTenant is Read with tenant attribution and an optional absolute
// deadline (virtual time; 0 means none). The request passes the
// admission gate at the System boundary before any engine work: a
// deadline already past is rejected with qos.ErrDeadlineExceeded whether
// or not a controller is attached — a deadline is a property of the
// request — and an attached controller may reject with qos.ErrThrottled
// (carrying a retry hint) or qos.ErrShed. A bypass-rung verdict on a KDD
// system serves the read with cache admission suspended (no read-fill);
// other policies serve it normally.
func (s *System) ReadTenant(tenant int, deadline sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return s.serveTenant(tenant, deadline, lba, buf, false)
}

// WriteTenant is Write under the same boundary: a bypass-rung verdict
// on a KDD system goes write-through on a miss instead of allocating.
func (s *System) WriteTenant(tenant int, deadline sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return s.serveTenant(tenant, deadline, lba, buf, true)
}

// serveTenant runs one request through the admission gate, then serves
// it — around cache admission on a bypass-rung verdict.
func (s *System) serveTenant(tenant int, deadline sim.Time, lba int64, buf []byte, write bool) (sim.Time, error) {
	d, err := s.qos.Gate(s.now, tenant, deadline)
	if err != nil {
		return 0, err
	}
	return s.serve(lba, buf, write, d.Verdict != qos.VerdictBypass)
}

// QoSCounters returns the per-tenant admission tallies, in the order of
// the SetQoS tenant list (nil without a controller).
func (s *System) QoSCounters() []qos.Counters {
	if s.qos == nil {
		return nil
	}
	return s.qos.Snapshot()
}

// QoSRung returns tenant t's current degradation-ladder rung.
func (s *System) QoSRung(t int) (int, error) {
	if s.qos == nil {
		return 0, fmt.Errorf("kddcache: no QoS controller attached")
	}
	if t < 0 || t >= s.qos.Tenants() {
		return 0, fmt.Errorf("kddcache: tenant %d out of range", t)
	}
	return s.qos.Rung(t), nil
}

// ---------------------------------------------------------------------------
// Experiment facade.

// ExperimentScale is the default scale for quick experiment runs (full
// paper-sized runs use 1.0 via the cmd tools).
const ExperimentScale = 0.02

// SetParallelism sets the worker-pool width used by every experiment
// driver. Each experiment fans its independent (workload × policy × sweep
// point) simulations over the pool; outputs are byte-identical at any
// width. n <= 0 restores the default, GOMAXPROCS.
func SetParallelism(n int) { harness.SetParallelism(n) }

// ExperimentResult is one run of an experiment: the formatted table the
// paper's figure/table corresponds to and, for the experiments that
// produce plottable series, the x-axis name and the series (XName is ""
// when there are none). As CSV, the series come from
// `kddsim -experiment <name> -csv <file>`, and kddfigs writes one
// <name>.csv beside each figure's text table.
type ExperimentResult struct {
	Text   string
	XName  string
	Series []stats.Series
}

// table adapts a text-only experiment runner.
func table(f func(float64, string) (string, error)) func(float64, string) (ExperimentResult, error) {
	return func(s float64, backend string) (ExperimentResult, error) {
		out, err := f(s, backend)
		return ExperimentResult{Text: out}, err
	}
}

// plot adapts a runner that also returns series over the x axis xName.
func plot(xName string, f func(float64, string) (string, []stats.Series, error)) func(float64, string) (ExperimentResult, error) {
	return func(s float64, backend string) (ExperimentResult, error) {
		out, series, err := f(s, backend)
		return ExperimentResult{Text: out, XName: xName, Series: series}, err
	}
}

// anyBackend adapts a text-only runner that takes no backend: Table I
// builds no stack, and the head-to-head runs both.
func anyBackend(f func(float64) (string, error)) func(float64, string) (ExperimentResult, error) {
	return table(func(s float64, _ string) (string, error) { return f(s) })
}

// Experiments maps experiment names to their runners. Each takes the
// scale and the array backend its stacks are built on ("kdd" or
// "lsraid"; empty means "kdd").
var Experiments = map[string]func(scale float64, backend string) (ExperimentResult, error){
	"table1":              anyBackend(harness.TableI),
	"fig4":                plot("metaPartPct", harness.Fig4),
	"fig5":                table(harness.Fig5),
	"fig6":                table(harness.Fig6),
	"fig7":                table(harness.Fig7),
	"fig8":                table(harness.Fig8),
	"fig9":                plot("workloadIdx", harness.Fig9),
	"fig10":               plot("readRatePct", harness.Fig10),
	"fig11":               plot("readRatePct", harness.Fig11),
	"table2":              table(harness.TableII),
	"ablation-partition":  table(harness.AblationPartition),
	"ablation-reclaim":    table(harness.AblationReclaim),
	"ablation-metalog":    table(harness.AblationMetaLog),
	"lifetime":            table(harness.LifetimeSummary),
	"recovery-tradeoff":   table(harness.RecoveryTradeoff),
	"degraded":            table(harness.DegradedPerformance),
	"rebuild-impact":      table(harness.RebuildImpact),
	"ablation-admission":  table(harness.AblationAdmission),
	"motivation":          table(harness.Motivation),
	"phases":              table(harness.PhaseBreakdown),
	"sweep-associativity": table(harness.AblationAssociativity),
	"sweep-staging":       table(harness.AblationStaging),
	"noisy-neighbor":      plot("armIdx", harness.NoisyNeighbor),
	"lsraid-compare":      anyBackend(harness.LSRaidCompare),
}

// Experiment runs one named experiment at the given scale on backend.
func Experiment(name string, scale float64, backend string) (ExperimentResult, error) {
	f, ok := Experiments[name]
	if !ok {
		return ExperimentResult{}, fmt.Errorf("kddcache: unknown experiment %q", name)
	}
	return f(scale, backend)
}

// RunExperiment executes one named experiment at the given scale on
// backend and returns its formatted table.
func RunExperiment(name string, scale float64, backend string) (string, error) {
	res, err := Experiment(name, scale, backend)
	return res.Text, err
}

// Workloads returns the paper's Table I workload specifications.
func Workloads() []workload.Spec { return workload.TableI() }
