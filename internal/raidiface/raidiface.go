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
	"kddcache/internal/cache"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Array is the full engine surface the rest of the repo consumes: what
// core.KDD needs (cache.Backend, the data path, the delayed-parity
// repair protocol and the rebuild pump), plus what the crash checker
// drives (fault, rebuild and scrub control) and what the harness and
// CLIs observe (geometry, members, stats). A backend with no parity debt
// (log-structured: every stripe is written whole) implements the repair
// protocol as cheap no-ops and reports StaleRows() == 0.
type Array interface {
	cache.Backend

	// Geometry and member access (fault injection, checksum sweeps).
	Disks() int
	DataLocation(lba int64) (disk int, page int64)
	ParityLocation(lba int64) (pDisk, qDisk int, page int64)
	Member(i int) blockdev.Device
	Injector(i int) *blockdev.FaultInjector

	// Integrity, fault and health.
	Resync(t sim.Time) (sim.Time, error)
	Scrub(t sim.Time) (sim.Time, raid.ScrubReport, error)
	FailDisk(i int)
	FailedDisks() []int
	LostRows() []int64
	ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error)

	// Rebuild state machine beyond the pump (core owns pacing and
	// checkpointing).
	AddSpare(dev blockdev.Device) error
	StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error)
	CrashRebuildState()
	DrainRebuild(t sim.Time) (sim.Time, error)

	// Observability.
	SetTracer(tr *obs.Tracer)
	Stats() raid.Stats
	PublishMetrics(reg *obs.Registry)
}

// Compile-time check: the parity engine satisfies the seam.
var _ Array = (*raid.Array)(nil)
