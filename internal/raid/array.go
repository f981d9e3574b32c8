package raid

import (
	"errors"
	"fmt"

	"kddcache/internal/bitset"
	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Errors returned by the array.
var (
	ErrTooManyFailures = errors.New("raid: too many failed disks")
	ErrStaleParity     = errors.New("raid: degraded read hit a row with stale parity (data loss window)")
	ErrNeedResync      = errors.New("raid: stale parity rows present; resync before rebuild")
	ErrNotDegraded     = errors.New("raid: no failed disk to rebuild")
	ErrBadGeometry     = errors.New("raid: invalid geometry")
	// ErrUnrecoverable marks a page whose media error cannot be repaired:
	// the row's redundancy is exhausted. It is reported loudly — never
	// served as zeros.
	ErrUnrecoverable = errors.New("raid: page unrecoverable (redundancy exhausted)")
)

// Config describes an array.
type Config struct {
	Level      Level
	ChunkPages int64 // pages per chunk (paper default: 64KB/4KB = 16)
}

// Stats counts member-disk operations by cause.
type Stats struct {
	DataReads    int64 // data-page reads for user requests
	DataWrites   int64 // data-page writes for user requests
	ParityReads  int64 // parity reads (RMW)
	ParityWrites int64 // parity writes
	RebuildReads int64
	RebuildWrite int64
	DegradedRead int64 // reconstruct-on-read operations
	NoParityWr   int64 // writes issued through WriteNoParity
	ParityFixes  int64 // deferred parity updates applied
	MediaErrors  int64 // member reads that returned blockdev.ErrMedia
	ReadRepairs  int64 // single pages reconstructed and rewritten in place

	// Online rebuild and hot spares.
	RebuildRows       int64 // member rows reconstructed by RebuildStep
	RebuildBytes      int64 // bytes written onto rebuild targets
	RebuildsStarted   int64
	RebuildsCompleted int64
	RebuildsAborted   int64 // rebuilds abandoned because the target died
	SpareAttaches     int64 // hot spares auto-attached to failed members
	LostPages         int64 // member pages whose content was declared lost

	// Log-structured backend (internal/lsraid) accounting. The seam
	// shares one Stats struct so experiments and dashboards compare
	// engines field-for-field; the parity engine leaves these zero.
	GCCopies   int64 // live pages copied forward by segment GC
	GCSegments int64 // segments reclaimed by GC
}

// Array is a parity-protected disk array over member block devices.
//
// All member devices must have equal capacity. The array runs in data mode
// when the members carry real bytes (buffers non-nil), or in timing mode
// (nil buffers); parity is byte-accurate in data mode.
type Array struct {
	// The member layer: members, failure state, counters, tracer, the row
	// primitive, the rebuild window, stale and lost rows.
	*Members
	cfg  Config
	name string // cached cfg.Level.String(); Name() is on traced hot paths
}

// New builds an array over the given member devices, wrapping each in an
// unseeded FaultInjector for failure injection.
func New(cfg Config, members []blockdev.Device) (*Array, error) {
	n := len(members)
	if n == 0 {
		return nil, fmt.Errorf("%w: no disks", ErrBadGeometry)
	}
	switch cfg.Level {
	case Level5:
		if n < 3 {
			return nil, fmt.Errorf("%w: RAID-5 needs >=3 disks", ErrBadGeometry)
		}
	case Level6:
		if n < 4 {
			return nil, fmt.Errorf("%w: RAID-6 needs >=4 disks", ErrBadGeometry)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported level %d", ErrBadGeometry, cfg.Level)
	}
	if cfg.ChunkPages <= 0 {
		return nil, fmt.Errorf("%w: chunk must be positive", ErrBadGeometry)
	}
	a := &Array{cfg: cfg, name: cfg.Level.String()}
	disks := make([]*blockdev.FaultInjector, n)
	for i, m := range members {
		disks[i] = blockdev.NewFaultInjector(m, 0)
	}
	var err error
	a.Members, err = NewMembers(RebuildEngine{
		Name: a.name, Pkg: "raid",
		Prepare: a.resyncForRebuild, Row: a.rebuildMember,
	}, cfg.Level, cfg.ChunkPages, disks)
	if err != nil {
		return nil, err
	}
	a.stale = bitset.New(a.geo.diskPages)
	a.lost = make(map[int64]uint32)
	return a, nil
}

// Name implements blockdev.Device.
func (a *Array) Name() string { return a.name }

// Pages implements blockdev.Device (logical capacity).
func (a *Array) Pages() int64 { return a.geo.dataPages() }

// PublishMetrics writes the array's member-I/O accounting into reg.
func (a *Array) PublishMetrics(reg *obs.Registry) {
	a.Members.PublishMetrics(reg)
	reg.SetGauge("raid_stale_rows", "Rows whose parity is currently stale.", float64(a.stale.Len()))
	reg.SetGauge("raid_lost_rows", "Rows currently holding at least one lost page.", float64(len(a.lost)))
}

// StaleRows returns the number of rows with stale parity.
func (a *Array) StaleRows() int { return a.stale.Len() }

// Level returns the array's RAID level.
func (a *Array) Level() Level { return a.cfg.Level }

// ChunkPages returns pages per chunk.
func (a *Array) ChunkPages() int64 { return a.geo.chunkPages }

// DataChunks returns data chunks per stripe.
func (a *Array) DataChunks() int { return int(a.geo.dataChunksPerStripe()) }

// StripePages returns logical pages per stripe (the paper's parity-stripe
// granularity for cache-set alignment).
func (a *Array) StripePages() int64 {
	return a.geo.chunkPages * a.geo.dataChunksPerStripe()
}

// StripeOf returns the stripe number holding the logical page.
func (a *Array) StripeOf(lba int64) int64 { return lba / a.StripePages() }

// RowPeers returns the logical LBAs that share a parity row with lba
// (including lba itself), in data-chunk order. A parity row is one page
// per data chunk at the same disk offset — the unit over which P/Q are
// computed.
func (a *Array) RowPeers(lba int64) []int64 {
	return a.AppendRowPeers(make([]int64, 0, a.geo.dataChunksPerStripe()), lba)
}

// AppendRowPeers appends RowPeers(lba) to dst without allocating when dst
// has room (cache.PeerAppender).
func (a *Array) AppendRowPeers(dst []int64, lba int64) []int64 {
	l := a.geo.locate(lba)
	dc := int(a.geo.dataChunksPerStripe())
	pic := l.row % a.geo.chunkPages
	for i := 0; i < dc; i++ {
		dst = append(dst, a.geo.logicalLBA(l.stripe, i, pic))
	}
	return dst
}

// ReadPages implements blockdev.Device. Failed members trigger degraded
// reconstruction.
func (a *Array) ReadPages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, a.Pages()); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if a.tr != nil {
		sp = a.tr.BeginDev(t, obs.PhaseRAIDRead, a.Name(), lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		c, err := a.ReadData(t, lba+int64(i), blockdev.Page(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		if c > done {
			done = c
		}
	}
	sp.End(done)
	return done, nil
}

// WritePages implements blockdev.Device: the conventional write path with
// immediate parity maintenance. Runs of pages covering an entire parity
// row use reconstruct-write; single pages use read-modify-write — the two
// modes named in §III-A.
func (a *Array) WritePages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, a.Pages()); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if a.tr != nil {
		sp = a.tr.BeginDev(t, obs.PhaseRAIDWrite, a.Name(), lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		c, err := a.smallWrite(t, a.geo.locate(lba+int64(i)), blockdev.Page(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		if c > done {
			done = c
		}
	}
	sp.End(done)
	return done, nil
}

// smallWrite is the read-modify-write path: read old data and old
// parity(ies) in parallel, then write new data and new parity(ies) in
// parallel — "two read and two write disk I/O operations" (§I) for RAID-5.
func (a *Array) smallWrite(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	if a.Missing(l.disk, l.row) || a.parityMissing(l.parity, l.row) > 0 {
		return a.degradedWrite(t, l, buf)
	}

	// Scratch from the page pool: each page is overwritten in full by its
	// member read (or the repair that stands in for it) before it is
	// used, the members copy what they are handed, and nothing keeps a
	// page past the return.
	var diff []byte // old data, then old ⊕ new
	var par [2][]byte
	if buf != nil {
		diff = blockdev.GetPage()
		for j := 0; j < l.np; j++ {
			par[j] = blockdev.GetPage()
		}
		defer func() {
			blockdev.PutPage(diff)
			blockdev.PutPage(par[0])
			blockdev.PutPage(par[1])
		}()
	}

	// Phase 1: parallel reads of old data and parity. A latent media
	// error on any of these pages must not fail the write (let alone the
	// member): the old data is reconstructible from the row, and lost
	// parity can be recomputed from the members before folding the diff.
	a.stats.DataReads++
	phase1, err := a.memberRead(t, l.disk, l.row, diff)
	if err != nil {
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, err
		}
		a.stats.MediaErrors++
		if phase1, err = a.readRepair(t, l, diff); err != nil {
			return t, err
		}
	}
	for j, d := range l.par[:l.np] {
		a.stats.ParityReads++
		c, err := a.memberRead(t, d, l.row, par[j])
		if err != nil {
			if c, err = a.rereadParity(t, d, l, par[j], err); err != nil {
				return t, err
			}
		}
		phase1 = sim.MaxTime(phase1, c)
	}

	// Compute new parity: P' = P ^ old ^ new; Q' = Q ^ g^i·(old ^ new).
	blockdev.XORInto(diff, buf)
	encode(par[:], diff, l.dataIdx)

	// Phase 2: parallel writes of new data and parity.
	a.stats.DataWrites++
	done, err := a.disks[l.disk].WritePages(phase1, l.row, 1, buf)
	if err != nil {
		return t, err
	}
	c, _, err := a.writeParity(phase1, l.parity, l.row, par[:], 0)
	if err != nil {
		return t, err
	}
	a.clearLost(l.disk, l.row) // the page now holds known bytes again
	return sim.MaxTime(done, c), nil
}

// rereadParity recovers from a media error on a parity page read inside
// the RMW path. On a stale row the lost copy carried no information, so
// the parity is recomputed from the member data and read back; on a
// current row the copy is recomputed by decoding the row — which, unlike
// a data-only resync, still works when a member is missing (RAID-6
// absorbs the media page plus the rebuild hole as two erasures). Any
// error other than ErrMedia is passed through untouched.
func (a *Array) rereadParity(t sim.Time, disk int, l loc, buf []byte, readErr error) (sim.Time, error) {
	if !errors.Is(readErr, blockdev.ErrMedia) {
		return t, readErr
	}
	a.stats.MediaErrors++
	if a.stale.Has(l.row) {
		done, err := a.resyncFix(t, l.row)
		if err != nil {
			return t, err
		}
		c, err := a.disks[disk].ReadPages(done, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		return sim.MaxTime(done, c), nil
	}
	return a.repairParityRow(t, l.row, disk, buf)
}
