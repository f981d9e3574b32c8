package blockdev

import (
	"fmt"
	"hash/crc32"
)

// MemStore is a sparse in-memory page store used as the backing bytes for
// data-mode devices. Pages never written read back as all-zero, like a
// fresh disk.
//
// Every stored page carries a CRC32 checksum, computed on write and
// verified by ReadPageChecked: this is the per-page integrity metadata
// real drives keep alongside each sector, and it is what turns silent
// bit-rot into a detectable media error. CorruptPage flips bits without
// refreshing the checksum (detectable corruption); CorruptPageSilently
// refreshes it too, modelling corruption the device itself cannot see —
// only cross-device redundancy checks (parity scrub) can catch that.
//
// The store is two dense tables over the capacity, built at
// construction: a page pointer (nil while the page is unwritten) and a
// checksum per LBA, 12 bytes per page. Payloads materialise on first
// write, taken from the page pool, and go back to it when trimmed: a cache
// cleaner trims a few per cent of the SSD in one burst and the cache
// rewrites those slots soon after. Addresses outside the capacity hold
// nothing: they read as zeros, verify, and ignore trims and corruption;
// writing one is a caller bug (see WritePage).
type MemStore struct {
	pages   []*[PageSize]byte // by LBA; nil = unwritten
	sums    []uint32          // by LBA; meaningful while the page is written
	written int
}

// Storer is satisfied by any data-mode device (or wrapper that can see
// through to one) whose bytes live in a MemStore. Test rigs and recovery
// paths use it to reach the backing bytes for checksum sweeps and
// corruption injection without caring which device wrapper they hold.
type Storer interface {
	Store() *MemStore
}

// NewMemStore returns a store with the given capacity in pages.
func NewMemStore(pages int64) *MemStore {
	return &MemStore{
		pages: make([]*[PageSize]byte, pages),
		sums:  make([]uint32, pages),
	}
}

// Pages returns the capacity in pages.
func (m *MemStore) Pages() int64 { return int64(len(m.pages)) }

// page returns the stored page at lba, nil when it is unwritten or lba
// lies outside the capacity.
func (m *MemStore) page(lba int64) *[PageSize]byte {
	if lba < 0 || lba >= int64(len(m.pages)) {
		return nil
	}
	return m.pages[lba]
}

// ReadPage copies page lba into dst (one page) without integrity
// verification. Prefer ReadPageChecked on device read paths.
func (m *MemStore) ReadPage(lba int64, dst []byte) {
	if p := m.page(lba); p != nil {
		copy(dst, p[:])
		return
	}
	clear(dst[:PageSize])
}

// ReadPageChecked copies page lba into dst and verifies its checksum,
// returning ErrMedia (wrapped with the LBA) when the stored bytes no
// longer match the checksum recorded at write time.
func (m *MemStore) ReadPageChecked(lba int64, dst []byte) error {
	p := m.page(lba)
	if p == nil {
		clear(dst[:PageSize])
		return nil
	}
	if crc32.ChecksumIEEE(p[:]) != m.sums[lba] {
		return fmt.Errorf("%w: checksum mismatch at page %d", ErrMedia, lba)
	}
	copy(dst, p[:])
	return nil
}

// WritePage stores one page at lba and records its checksum. A page
// from the pool is overwritten in full before it becomes readable, so
// recycled bytes are never exposed. Every device range-
// checks a request before it touches its store, so an lba outside the
// capacity cannot come from input: it is a bug in the calling device and
// panics.
func (m *MemStore) WritePage(lba int64, src []byte) {
	if lba < 0 || lba >= int64(len(m.pages)) {
		panic(fmt.Sprintf("blockdev: MemStore.WritePage(%d) outside the store's %d pages", lba, len(m.pages)))
	}
	p := m.pages[lba]
	if p == nil {
		p = (*[PageSize]byte)(GetPage())
		m.pages[lba] = p
		m.written++
	}
	copy(p[:], src[:PageSize])
	m.sums[lba] = crc32.ChecksumIEEE(p[:])
}

// TrimPage discards the page at lba; subsequent reads return zeros.
func (m *MemStore) TrimPage(lba int64) {
	p := m.page(lba)
	if p == nil {
		return
	}
	m.pages[lba] = nil
	m.written--
	PutPage(p[:])
}

// Written returns the number of distinct pages currently stored.
func (m *MemStore) Written() int { return m.written }

// VerifyPage reports whether the page at lba passes its checksum
// (unwritten pages trivially pass).
func (m *MemStore) VerifyPage(lba int64) bool {
	p := m.page(lba)
	return p == nil || crc32.ChecksumIEEE(p[:]) == m.sums[lba]
}

// CorruptPage flips one bit of the stored page WITHOUT refreshing the
// checksum: detectable corruption (bit-rot the drive's per-sector ECC/CRC
// catches). Reads through ReadPageChecked will return ErrMedia until the
// page is rewritten. No-op on unwritten pages (they have no bits to rot).
func (m *MemStore) CorruptPage(lba int64, bit uint) bool {
	p := m.page(lba)
	if p == nil {
		return false
	}
	p[(bit/8)%PageSize] ^= 1 << (bit % 8)
	return true
}

// CorruptPageSilently flips one bit AND refreshes the checksum, modelling
// corruption introduced before the checksum was computed (e.g. in a buggy
// controller's RAM): the device cannot detect it; only a parity scrub
// across devices can. No-op on unwritten pages.
func (m *MemStore) CorruptPageSilently(lba int64, bit uint) bool {
	if !m.CorruptPage(lba, bit) {
		return false
	}
	m.sums[lba] = crc32.ChecksumIEEE(m.pages[lba][:])
	return true
}

// TruncatePage keeps the first keep bytes of the stored page, zeroes the
// rest, and refreshes the checksum — a torn in-page write that persisted
// only a prefix (the tail never reached the medium, so the device sees a
// self-consistent page). No-op on unwritten pages.
func (m *MemStore) TruncatePage(lba int64, keep int) bool {
	p := m.page(lba)
	if p == nil {
		return false
	}
	keep = max(0, min(keep, PageSize))
	clear(p[keep:])
	m.sums[lba] = crc32.ChecksumIEEE(p[:])
	return true
}

// Clone returns a deep copy (used to snapshot device state for
// crash-recovery tests).
func (m *MemStore) Clone() *MemStore {
	c := NewMemStore(m.Pages())
	for lba, p := range m.pages {
		if p != nil {
			cp := *p
			c.pages[lba] = &cp
		}
	}
	copy(c.sums, m.sums)
	c.written = m.written
	return c
}
