// Package raidiface defines the backend seam between the cache/check/
// harness layers and a concrete array engine. Two engines satisfy it:
// the parity-in-place engine in internal/raid (the paper's RAID-5/6 with
// KDD's delayed parity protocol layered on top) and the log-structured
// engine in internal/lsraid (append-only full-stripe writes, segment GC,
// no parity read-modify-write). Everything above the seam — core.KDD,
// the crash checker, the chaos harness, the figure experiments — talks
// to this interface so the same workloads, fault plans, and crash-site
// sweeps run head-to-head against both architectures.
//
// Shared value types (Stats, ScrubReport, RowFix, Level) stay in
// internal/raid: both engines report through the same structures so the
// experiment and metrics plumbing needs no per-backend cases.
package raidiface

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Array is the full engine surface the rest of the repo consumes. It is
// deliberately the union of what core.KDD needs (the cache.Backend
// subset), what the crash checker drives (fault/rebuild/scrub control),
// and what the harness and CLIs observe (stats, members, locations).
type Array interface {
	// Identity and geometry.
	Name() string
	Pages() int64
	Disks() int
	ChunkPages() int64
	StripePages() int64
	StripeOf(lba int64) int64
	RowPeers(lba int64) []int64
	DataLocation(lba int64) (disk int, page int64)
	ParityLocation(lba int64) (pDisk, qDisk int, page int64)

	// Member access (fault injection, checksum sweeps).
	Member(i int) blockdev.Device
	Injector(i int) *blockdev.FaultInjector

	// Data path.
	ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error)

	// Delayed-parity repair protocol. A backend with no parity debt
	// (log-structured: every stripe is written whole) implements these
	// as cheap no-ops and reports StaleRows() == 0.
	ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error)
	ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error)
	ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error)
	ResyncRow(t sim.Time, lba int64) (sim.Time, error)
	Resync(t sim.Time) (sim.Time, error)
	StaleRows() int

	// Integrity.
	Scrub(t sim.Time) (sim.Time, raid.ScrubReport, error)

	// Fault and health.
	FailDisk(i int)
	FailedDisks() []int
	Healthy() bool
	Survivable() bool
	LostRows() []int64
	ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error)

	// Rebuild state machine (core owns pacing and checkpointing).
	AddSpare(dev blockdev.Device) error
	SpareCount() int
	RebuildActive() bool
	RebuildTarget() (disk int, watermark int64, active bool)
	StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error)
	StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error)
	ResumeRebuild(disk int, watermark int64) error
	CrashRebuildState()
	RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error)
	DrainRebuild(t sim.Time) (sim.Time, error)

	// Observability.
	SetTracer(tr *obs.Tracer)
	Stats() raid.Stats
	PublishMetrics(reg *obs.Registry)
}

// Compile-time check: the parity engine satisfies the seam.
var _ Array = (*raid.Array)(nil)
