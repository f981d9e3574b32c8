package main

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// The decorators below sit at the interfaces the program already has, so
// the benchmark times each layer without touching it. Only calls that do
// I/O or codec work open a span; geometry and health getters forward
// untimed, which books their (small) cost to the caller's self time.

// tracedDevice wraps a blockdev.Device. On the SSD the first metaPages
// LBAs are the metadata partition and are booked to their own seam;
// member devices have none.
type tracedDevice struct {
	inner     blockdev.Device
	tr        *tracer
	seam      seam
	metaPages int64
}

func traceSSD(inner blockdev.Device, tr *tracer, metaPages int64) *tracedDevice {
	return &tracedDevice{inner: inner, tr: tr, seam: seamSSDData, metaPages: metaPages}
}

func traceMember(inner blockdev.Device, tr *tracer) *tracedDevice {
	return &tracedDevice{inner: inner, tr: tr, seam: seamMember}
}

func (d *tracedDevice) seamOf(lba int64) seam {
	if lba < d.metaPages {
		return seamSSDMeta
	}
	return d.seam
}

func (d *tracedDevice) Name() string { return d.inner.Name() }
func (d *tracedDevice) Pages() int64 { return d.inner.Pages() }

func (d *tracedDevice) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tr.begin(d.seamOf(lba), mRead)
	done, err := d.inner.ReadPages(t, lba, count, buf)
	d.tr.end(count)
	return done, err
}

func (d *tracedDevice) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tr.begin(d.seamOf(lba), mWrite)
	done, err := d.inner.WritePages(t, lba, count, buf)
	d.tr.end(count)
	return done, err
}

// Store forwards the data-mode probe, as shard.lockedDevice does: core,
// metalog, raid and lsraid sniff for a MemStore-backed device, and a
// wrapper that hid it would silently drop the stack out of data mode.
func (d *tracedDevice) Store() *blockdev.MemStore {
	if s, ok := d.inner.(blockdev.Storer); ok {
		return s.Store()
	}
	return nil
}

// TrimPages forwards the trim when the wrapped device supports it.
func (d *tracedDevice) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	tr, ok := d.inner.(blockdev.Trimmer)
	if !ok {
		return t, nil
	}
	d.tr.begin(d.seamOf(lba), mTrim)
	done, err := tr.TrimPages(t, lba, count)
	d.tr.end(count)
	return done, err
}

var (
	_ blockdev.Device  = (*tracedDevice)(nil)
	_ blockdev.Storer  = (*tracedDevice)(nil)
	_ blockdev.Trimmer = (*tracedDevice)(nil)
)

// tracedBackend wraps the array at the cache.Backend seam.
type tracedBackend struct {
	inner cache.Backend
	tr    *tracer
}

func (b *tracedBackend) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.begin(seamArray, mRead)
	done, err := b.inner.ReadPages(t, lba, count, buf)
	b.tr.end(count)
	return done, err
}

func (b *tracedBackend) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.begin(seamArray, mWrite)
	done, err := b.inner.WritePages(t, lba, count, buf)
	b.tr.end(count)
	return done, err
}

func (b *tracedBackend) WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.begin(seamArray, mNoParity)
	done, err := b.inner.WriteNoParity(t, lba, count, buf)
	b.tr.end(count)
	return done, err
}

func (b *tracedBackend) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	pages := len(b.inner.RowPeers(firstLBA))
	b.tr.begin(seamArray, mWriteRow)
	done, err := b.inner.WriteRow(t, firstLBA, buf)
	b.tr.end(pages)
	return done, err
}

func (b *tracedBackend) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	b.tr.begin(seamArray, mParityFix)
	done, err := b.inner.ParityUpdateDelta(t, lbas, deltas)
	b.tr.end(1)
	return done, err
}

func (b *tracedBackend) ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error) {
	b.tr.begin(seamArray, mParityFix)
	done, err := b.inner.ParityUpdateDeltaBatch(t, fixes)
	b.tr.end(len(fixes))
	return done, err
}

func (b *tracedBackend) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	b.tr.begin(seamArray, mParityFix)
	done, err := b.inner.ParityUpdateReconstruct(t, lba, rowData)
	b.tr.end(1)
	return done, err
}

func (b *tracedBackend) ResyncRow(t sim.Time, lba int64) (sim.Time, error) {
	b.tr.begin(seamArray, mParityFix)
	done, err := b.inner.ResyncRow(t, lba)
	b.tr.end(1)
	return done, err
}

func (b *tracedBackend) Pages() int64               { return b.inner.Pages() }
func (b *tracedBackend) RowPeers(lba int64) []int64 { return b.inner.RowPeers(lba) }
func (b *tracedBackend) StripePages() int64         { return b.inner.StripePages() }
func (b *tracedBackend) StaleRows() int             { return b.inner.StaleRows() }
func (b *tracedBackend) Healthy() bool              { return b.inner.Healthy() }
func (b *tracedBackend) RebuildActive() bool        { return b.inner.RebuildActive() }
func (b *tracedBackend) SpareCount() int            { return b.inner.SpareCount() }

func (b *tracedBackend) RebuildTarget() (int, int64, bool) { return b.inner.RebuildTarget() }

// The rebuild surface never runs on a fault-free benchmark stack; it is
// forwarded so the wrapper satisfies cache.Backend.
func (b *tracedBackend) RebuildStep(t sim.Time, maxRows int) (sim.Time, int, bool, error) {
	return b.inner.RebuildStep(t, maxRows)
}

func (b *tracedBackend) ResumeRebuild(disk int, watermark int64) error {
	return b.inner.ResumeRebuild(disk, watermark)
}

func (b *tracedBackend) StartSpareRebuild(t sim.Time) (sim.Time, bool, error) {
	return b.inner.StartSpareRebuild(t)
}

var _ cache.Backend = (*tracedBackend)(nil)

// tracedPolicy opens the root span of every request on the stacks driven
// through cache.Policy.
type tracedPolicy struct {
	inner cache.Policy
	tr    *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	p.tr.begin(seamRoot, mRead)
	done, err := p.inner.Read(t, lba, buf)
	p.tr.end(1)
	return done, err
}

func (p *tracedPolicy) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	p.tr.begin(seamRoot, mWrite)
	done, err := p.inner.Write(t, lba, buf)
	p.tr.end(1)
	return done, err
}

func (p *tracedPolicy) Clean(t sim.Time, force bool) (sim.Time, error) {
	p.tr.begin(seamRoot, mClean)
	done, err := p.inner.Clean(t, force)
	p.tr.end(0)
	return done, err
}

func (p *tracedPolicy) Flush(t sim.Time) (sim.Time, error) { return p.inner.Flush(t) }
func (p *tracedPolicy) Stats() *stats.CacheStats           { return p.inner.Stats() }

var _ cache.Policy = (*tracedPolicy)(nil)

// tracedCodec wraps a real codec. The modelled codec is never wrapped:
// core type-asserts *delta.Modelled to leave data mode, so wrapping it
// would change the system under test.
type tracedCodec struct {
	inner delta.Codec
	tr    *tracer
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) Encode(old, new []byte) delta.Delta {
	c.tr.begin(seamCodec, mEncode)
	d := c.inner.Encode(old, new)
	c.tr.end(d.Len)
	return d
}

func (c *tracedCodec) Apply(old []byte, d delta.Delta, out []byte) error {
	c.tr.begin(seamCodec, mApply)
	err := c.inner.Apply(old, d, out)
	c.tr.end(d.Len)
	return err
}

var _ delta.Codec = (*tracedCodec)(nil)
