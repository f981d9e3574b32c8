// Package obs is the observability layer of the stack: a span tracer
// keyed to virtual time (sim.Time), a deterministic JSONL trace format,
// a phase-attribution profile, and a counter/gauge registry
// with Prometheus-text exposition.
//
// Everything here is deterministic by construction: no wall clock, no
// map-order iteration in any output path, and span IDs assigned in open
// order. A nil *Tracer is fully usable (every method is a no-op), so
// instrumented code pays nothing when tracing is disabled.
package obs

import "fmt"

// Phase names one traced stage of a request's life. The taxonomy is
// fixed: root phases delimit whole operations, core phases attribute
// where a KDD operation spends its time, raid phases cover the backend
// array, and device phases record raw service at the ssd/hdd stations.
type Phase uint8

const (
	// PhaseNone is the zero value; it never appears in a trace.
	PhaseNone Phase = iota

	// Root phases: one per top-level cache operation.
	PhaseRead
	PhaseWrite
	PhaseClean
	PhaseFlush

	// Core phases (KDD semantics).
	PhaseDAZRead    // read of the full-page copy in the data zone
	PhaseDEZRead    // read of the packed delta page in the delta zone
	PhaseCombine    // decompress + patch deltas onto the DAZ page
	PhaseNVRAMStage // staging a delta into NVRAM (instantaneous)
	PhaseDEZPack    // packing staged deltas into a DEZ page
	PhaseFill       // admitting a page into the cache (DAZ write + log)
	PhaseCleanPass  // background cleaner pass
	PhaseFold       // emergency fold of dirty state into the array

	// Metadata-log phase.
	PhaseMetaAppend // circular metadata log page append

	// RAID phases.
	PhaseRAIDRead    // array read
	PhaseRAIDWrite   // full read-modify-write array write
	PhaseRAIDWriteNP // write with parity update deferred (no-parity write)
	PhaseParityRMW   // delta-folding parity read-modify-write
	PhaseParityRecon // parity reconstruction from a fully cached row
	PhaseResync      // row resync (recompute parity from data)

	// Device phases: raw service at a device station. Present in traces
	// but excluded from phase attribution (they underlie the phases
	// above and would double-count).
	PhaseDevRead
	PhaseDevWrite

	// Redundancy-maintenance phases: background reconstruction work the
	// array interleaves with foreground traffic.
	PhaseRebuild    // one rebuild step (a batch of member rows)
	PhaseRebuildRow // reconstruction of a single member row
	PhaseScrub      // patrol scrub pass

	// QoS admission phases: instantaneous marks the plane's admission
	// gate records when it rejects a request.
	PhaseQoSThrottle // over-budget request throttled with a retry hint
	PhaseQoSShed     // over-budget request shed outright

	phaseCount
)

var phaseNames = [phaseCount]string{
	PhaseNone:        "none",
	PhaseRead:        "read",
	PhaseWrite:       "write",
	PhaseClean:       "clean",
	PhaseFlush:       "flush",
	PhaseDAZRead:     "daz_read",
	PhaseDEZRead:     "dez_read",
	PhaseCombine:     "combine",
	PhaseNVRAMStage:  "nvram_stage",
	PhaseDEZPack:     "dez_pack",
	PhaseFill:        "fill",
	PhaseCleanPass:   "clean_pass",
	PhaseFold:        "fold",
	PhaseMetaAppend:  "meta_append",
	PhaseRAIDRead:    "raid_read",
	PhaseRAIDWrite:   "raid_write",
	PhaseRAIDWriteNP: "raid_write_np",
	PhaseParityRMW:   "parity_rmw",
	PhaseParityRecon: "parity_recon",
	PhaseResync:      "resync",
	PhaseDevRead:     "dev_read",
	PhaseDevWrite:    "dev_write",
	PhaseRebuild:     "rebuild",
	PhaseRebuildRow:  "rebuild_row",
	PhaseScrub:       "scrub",
	PhaseQoSThrottle: "qos_throttle",
	PhaseQoSShed:     "qos_shed",
}

// String returns the wire name of the phase.
func (p Phase) String() string {
	if p < phaseCount {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// ParsePhase maps a wire name back to its Phase.
func ParsePhase(s string) (Phase, error) {
	for p := Phase(1); p < phaseCount; p++ {
		if phaseNames[p] == s {
			return p, nil
		}
	}
	return PhaseNone, fmt.Errorf("obs: unknown phase %q", s)
}

// IsRoot reports whether p delimits a whole top-level operation.
func (p Phase) IsRoot() bool {
	switch p {
	case PhaseRead, PhaseWrite, PhaseClean, PhaseFlush:
		return true
	}
	return false
}

// Attributable reports whether time under p is credited to p in the
// phase-attribution profile. Root and device phases are not: roots are
// the window being attributed, and device service underlies the
// semantic phases above it.
func (p Phase) Attributable() bool {
	if p.IsRoot() {
		return false
	}
	switch p {
	case PhaseNone, PhaseDevRead, PhaseDevWrite:
		return false
	}
	return true
}

// Phases returns every valid phase in declaration order (deterministic
// iteration order for tables and exposition).
func Phases() []Phase {
	ps := make([]Phase, 0, phaseCount-1)
	for p := Phase(1); p < phaseCount; p++ {
		ps = append(ps, p)
	}
	return ps
}
