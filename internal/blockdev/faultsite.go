package blockdev

import (
	"fmt"
	"sort"

	"kddcache/internal/sim"
)

// This file is the fault-site enumeration API the model checker
// (internal/check) is built on. Instead of hand-writing fault schedules,
// the checker records the device-op trace of one fault-free "profile" run
// and derives from it every fault the injector knows how to arm: a
// torn-write crash point at every write ordinal (the PR 1 ArmCrash
// machinery) and a latent plus a transient media site at every page the
// run touched. Each site is then replayed in its own run — the op-stream
// prefix up to the site is identical to the profile run, so write-ordinal
// crash points land on exactly the operation they were enumerated from.

// FaultKind classifies an armable fault site.
type FaultKind uint8

// The three armable site kinds, mirroring the injector's fault scopes
// (whole-device fail-stop is exercised separately by the degraded proof).
const (
	// FaultCrashTorn is a power loss firing on one write op, persisting
	// only a torn prefix of it (ArmCrash).
	FaultCrashTorn FaultKind = iota
	// FaultLatent is a latent sector error: the page reads ErrMedia until
	// it is rewritten (InjectBadPage).
	FaultLatent
	// FaultTransient is a recoverable glitch: the next Fails reads of the
	// page fail, then it reads fine again (InjectTransient).
	FaultTransient
	// FaultFailStop is a whole-device fail-stop firing after WriteOp total
	// operations (FailAfterOps): every operation from then on returns
	// ErrFailed until Repair. Enumerated for the cache SSD only — it
	// checks the "acked data survives whole-cache loss" property, which
	// the failover path must uphold by folding stale parity and dropping
	// to pass-through instead of erroring.
	FaultFailStop
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrashTorn:
		return "crash-torn"
	case FaultLatent:
		return "latent"
	case FaultTransient:
		return "transient"
	case FaultFailStop:
		return "fail-stop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OpRecord is one device operation captured while recording is on.
type OpRecord struct {
	Write bool
	LBA   int64
	Count int
}

// FaultSite identifies one armable fault discovered by enumeration.
type FaultSite struct {
	Kind FaultKind

	// Crash-site fields: WriteOp is the 0-based ordinal of the write op
	// (counted from arming) the crash fires on; TornPages whole pages plus
	// TornBytes of the next page persist. Fail-stop sites reuse WriteOp as
	// the total-op count the device survives before dying (FailAfterOps).
	WriteOp   int64
	TornPages int
	TornBytes int

	// Media-site fields: the faulted page, and for transients how many
	// consecutive reads fail.
	LBA   int64
	Fails int
}

// String renders the site compactly for violation reports; feeding the
// same seed back to the checker re-derives the identical site list, so
// the ordinal/page shown here is enough to replay one counterexample.
func (s FaultSite) String() string {
	switch s.Kind {
	case FaultCrashTorn:
		return fmt.Sprintf("crash@write%d(torn=%d+%dB)", s.WriteOp, s.TornPages, s.TornBytes)
	case FaultLatent:
		return fmt.Sprintf("latent@page%d", s.LBA)
	case FaultFailStop:
		return fmt.Sprintf("failstop@op%d", s.WriteOp)
	default:
		return fmt.Sprintf("transient@page%d(x%d)", s.LBA, s.Fails)
	}
}

// RecordOps toggles op-trace recording. Turning it on clears any prior
// trace, so a profile run records exactly the ops issued after the call.
func (f *FaultInjector) RecordOps(on bool) {
	f.mu.Lock()
	f.recording = on
	if on {
		f.recorded = nil
	}
	f.mu.Unlock()
}

// Recorded returns a copy of the captured op trace.
func (f *FaultInjector) Recorded() []OpRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]OpRecord, len(f.recorded))
	copy(out, f.recorded)
	return out
}

// record captures one op when recording is on. Caller holds f.mu.
func (f *FaultInjector) record(write bool, lba int64, count int) {
	if f.recording {
		f.recorded = append(f.recorded, OpRecord{Write: write, LBA: lba, Count: count})
	}
}

// Arm installs one enumerated fault site on the injector.
func (f *FaultInjector) Arm(s FaultSite) {
	switch s.Kind {
	case FaultCrashTorn:
		f.ArmCrash(s.WriteOp, s.TornPages, s.TornBytes)
	case FaultLatent:
		f.InjectBadPage(s.LBA)
	case FaultTransient:
		f.InjectTransient(s.LBA, s.Fails)
	case FaultFailStop:
		f.FailAfterOps = s.WriteOp
	}
}

// transientDepth is the read-failure count enumerated for transient
// sites: both the cache's ssdRead and the array's member-read retry loops
// allow two retries, so two consecutive failures is exactly the deepest
// glitch the stack promises to absorb — the boundary worth checking.
const transientDepth = 2

// EnumerateSites derives every armable fault site from a recorded op
// trace: one torn-write crash point per write ordinal (tear geometry
// drawn deterministically from seed) plus a latent and a transient media
// site per distinct page the trace touched. The order is deterministic —
// crash sites by ordinal, then media sites by page — so a seed fully
// identifies each site by its index.
func EnumerateSites(trace []OpRecord, seed uint64) []FaultSite {
	rng := sim.NewRNG(seed)
	var sites []FaultSite
	pages := make(map[int64]struct{})
	var writeOp int64
	for _, op := range trace {
		for i := 0; i < op.Count; i++ {
			pages[op.LBA+int64(i)] = struct{}{}
		}
		if !op.Write {
			continue
		}
		torn := 0
		if op.Count > 1 {
			torn = rng.Intn(op.Count)
		}
		sites = append(sites, FaultSite{
			Kind:      FaultCrashTorn,
			WriteOp:   writeOp,
			TornPages: torn,
			TornBytes: rng.Intn(PageSize),
		})
		writeOp++
	}
	sorted := make([]int64, 0, len(pages))
	for p := range pages {
		sorted = append(sorted, p)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range sorted {
		sites = append(sites,
			FaultSite{Kind: FaultLatent, LBA: p, Fails: -1},
			FaultSite{Kind: FaultTransient, LBA: p, Fails: transientDepth})
	}
	return sites
}

// EnumerateFailStopSites derives up to n whole-device fail-stop sites from
// a recorded op trace: op ordinals strided evenly across the run, so the
// device dies early, mid-run, and late. It is kept separate from
// EnumerateSites because fail-stop only makes sense for the cache SSD —
// killing a RAID member mid-run is the degraded-mode regime, already
// exercised by the checker's reconstruction proof.
func EnumerateFailStopSites(trace []OpRecord, n int) []FaultSite {
	total := int64(len(trace))
	if total == 0 || n <= 0 {
		return nil
	}
	if int64(n) > total {
		n = int(total)
	}
	sites := make([]FaultSite, 0, n)
	seen := make(map[int64]struct{}, n)
	for i := 0; i < n; i++ {
		// 1-based survivor count: op ordinal k means the device completes
		// k ops then fails on op k+1 (FailAfterOps semantics).
		op := total * int64(i+1) / int64(n+1)
		if op < 1 {
			op = 1
		}
		if _, dup := seen[op]; dup {
			continue
		}
		seen[op] = struct{}{}
		sites = append(sites, FaultSite{Kind: FaultFailStop, WriteOp: op})
	}
	return sites
}
