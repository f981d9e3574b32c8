package shard

import (
	"sync"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// The plane's lanes share one SSD (disjoint page regions plus the common
// metadata partition) and one RAID array. Neither surface is safe for
// concurrent use on its own, so the plane interposes coarse mutex
// wrappers: every device or array CALL is atomic. Compound sequences
// (a cleaner's read-reconstruct-write, a rebuild step) are kept
// conflict-free by the plane's structure instead — a stripe is owned by
// exactly one lane, a lane by exactly one shard worker, and the member
// rebuild is pumped only at batch barriers when no worker is running.
// In deterministic mode the locks are always uncontended; keeping them
// in both modes means one code path.
//
// Two parts of the array pass through unlocked: its geometry (Pages,
// StripePages, RowPeers, AppendRowPeers), fixed at construction, and its
// rebuild surface (RebuildActive, RebuildTarget, RebuildStep,
// ResumeRebuild, SpareCount, StartSpareRebuild), which lanes never call
// and the plane calls only at a barrier or before any worker has started.

// lockedDevice serializes a blockdev.Device shared by the lanes. Trim
// support is forwarded when the wrapped device has it.
type lockedDevice struct {
	mu  sync.Mutex
	dev blockdev.Device
}

func newLockedDevice(dev blockdev.Device) *lockedDevice {
	return &lockedDevice{dev: dev}
}

func (d *lockedDevice) Name() string { return d.dev.Name() }

func (d *lockedDevice) Pages() int64 { return d.dev.Pages() }

func (d *lockedDevice) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dev.ReadPages(t, lba, count, buf)
}

func (d *lockedDevice) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dev.WritePages(t, lba, count, buf)
}

// Store forwards the data-mode probe: core and metalog sniff for a
// MemStore-backed device to decide whether real bytes flow end to end,
// and the wrapper must not mask that.
func (d *lockedDevice) Store() *blockdev.MemStore {
	if s, ok := d.dev.(blockdev.Storer); ok {
		return s.Store()
	}
	return nil
}

func (d *lockedDevice) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tr, ok := d.dev.(blockdev.Trimmer); ok {
		return tr.TrimPages(t, lba, count)
	}
	return t, nil
}

var (
	_ blockdev.Device  = (*lockedDevice)(nil)
	_ blockdev.Trimmer = (*lockedDevice)(nil)
)

// lockedBackend serializes the calls the lanes make on a cache.Backend
// they share; the embedded Backend serves the rest.
type lockedBackend struct {
	cache.Backend
	mu sync.Mutex
}

func newLockedBackend(b cache.Backend) *lockedBackend {
	return &lockedBackend{Backend: b}
}

func (l *lockedBackend) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.ReadPages(t, lba, count, buf)
}

func (l *lockedBackend) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.WritePages(t, lba, count, buf)
}

func (l *lockedBackend) WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.WriteNoParity(t, lba, count, buf)
}

func (l *lockedBackend) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.WriteRow(t, firstLBA, buf)
}

func (l *lockedBackend) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.ParityUpdateDelta(t, lbas, deltas)
}

func (l *lockedBackend) ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.ParityUpdateDeltaBatch(t, fixes)
}

func (l *lockedBackend) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.ParityUpdateReconstruct(t, lba, rowData)
}

func (l *lockedBackend) ResyncRow(t sim.Time, lba int64) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.ResyncRow(t, lba)
}

// AppendRowPeers forwards the allocation-free peer list (geometry,
// unlocked like RowPeers).
func (l *lockedBackend) AppendRowPeers(dst []int64, lba int64) []int64 {
	return cache.AppendRowPeers(l.Backend, dst, lba)
}

func (l *lockedBackend) StaleRows() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.StaleRows()
}

func (l *lockedBackend) Healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Backend.Healthy()
}

var _ cache.Backend = (*lockedBackend)(nil)
