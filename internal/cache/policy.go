package cache

import (
	"kddcache/internal/raid"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// Backend is what a caching policy needs from the primary storage. It is
// the RAID array's surface plus the two delayed-parity interfaces the
// paper adds (§III-A); *raid.Array satisfies it.
type Backend interface {
	Pages() int64
	ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error)
	// WriteRow writes a full parity row (one page per data chunk, in
	// RowPeers order) with inline parity computation and no reads.
	WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error)
	ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error)
	// ParityUpdateDeltaBatch repairs many rows at once with sequential
	// run I/O per member disk (batch reconciliation).
	ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error)
	ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error)
	// ResyncRow recomputes lba's row parity from the current member data
	// (reconstruct-write), clearing any stale mark. Policies fall back to
	// it when a pending delta can no longer be applied — e.g. the old
	// version it XORs against was lost to a media error.
	ResyncRow(t sim.Time, lba int64) (sim.Time, error)
	RowPeers(lba int64) []int64
	StripePages() int64
	StaleRows() int
	// Healthy reports whether all member disks are online. Delayed-parity
	// policies stop deferring while degraded: a second failure before the
	// deferred update would lose data, so staleness must not grow.
	Healthy() bool

	// Online member rebuild (incremental, crash-safe). The policy paces
	// RebuildStep against foreground traffic and persists the watermark
	// from RebuildTarget as a checkpoint; after a crash, ResumeRebuild
	// re-opens the window from that checkpoint.
	RebuildActive() bool
	RebuildTarget() (disk int, watermark int64, active bool)
	RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error)
	ResumeRebuild(disk int, watermark int64) error
	// Hot spares: StartSpareRebuild attaches a parked spare to a failed
	// member (no-op when nothing is failed, no spare is parked, or a
	// rebuild is already running).
	SpareCount() int
	StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error)
}

// PeerAppender is the allocation-free form of Backend.RowPeers: it
// appends lba's row peers to dst. Both array engines and the plane's
// locked backend implement it.
type PeerAppender interface {
	AppendRowPeers(dst []int64, lba int64) []int64
}

// AppendRowPeers appends lba's row peers to dst, through b's PeerAppender
// when it has one (a decorator that forwards only Backend falls back to
// RowPeers, which allocates).
func AppendRowPeers(b Backend, dst []int64, lba int64) []int64 {
	if a, ok := b.(PeerAppender); ok {
		return a.AppendRowPeers(dst, lba)
	}
	return append(dst, b.RowPeers(lba)...)
}

// Policy is a cache management scheme over an SSD device and a Backend.
// All requests are page-granular; drivers split multi-page requests.
type Policy interface {
	// Name identifies the policy ("WT", "WA", "LeavO", "KDD-25%", ...).
	Name() string
	// Read serves a one-page read arriving at t; buf may be nil in
	// timing mode.
	Read(t sim.Time, lba int64, buf []byte) (sim.Time, error)
	// Write serves a one-page write arriving at t.
	Write(t sim.Time, lba int64, buf []byte) (sim.Time, error)
	// Clean lets delayed-parity policies make progress (threshold or idle
	// trigger); no-op for WT/WA. Returns the completion of issued work.
	Clean(t sim.Time, force bool) (sim.Time, error)
	// Flush drains ALL delayed state (stale parities) — used before
	// planned failovers and at end of runs.
	Flush(t sim.Time) (sim.Time, error)
	// Stats exposes the accumulated counters.
	Stats() *stats.CacheStats
}

// Nossd is the no-cache baseline the prototype evaluation includes
// (Figure 9): every request goes straight to the RAID array. It is also
// the array path every cache baseline embeds: it owns the backend and the
// counters, serves what the cache above it misses, and its Stats and
// no-op Clean and Flush serve wherever a policy defers nothing.
type Nossd struct {
	backend Backend
	st      stats.CacheStats
}

// NewNossd returns the cacheless baseline.
func NewNossd(backend Backend) *Nossd { return &Nossd{backend: backend} }

// Name implements Policy.
func (n *Nossd) Name() string { return "Nossd" }

// Read implements Policy.
func (n *Nossd) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	n.st.Reads++
	n.st.ReadMisses++
	n.st.RAIDReads++
	return n.backend.ReadPages(t, lba, 1, buf)
}

// Write implements Policy.
func (n *Nossd) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	n.st.Writes++
	n.st.WriteMiss++
	n.st.RAIDWrites++
	return n.backend.WritePages(t, lba, 1, buf)
}

// Clean implements Policy (no-op).
func (n *Nossd) Clean(t sim.Time, force bool) (sim.Time, error) { return t, nil }

// Flush implements Policy (no-op).
func (n *Nossd) Flush(t sim.Time) (sim.Time, error) { return t, nil }

// Stats implements Policy.
func (n *Nossd) Stats() *stats.CacheStats { return &n.st }

var _ Policy = (*Nossd)(nil)
