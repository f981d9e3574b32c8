package blockdev

import (
	"fmt"
	"hash/crc32"
	"maps"
)

// MemStore is a sparse in-memory page store used as the backing bytes for
// data-mode devices. Pages never written read back as all-zero, like a
// fresh disk.
//
// Every stored page carries a CRC32 checksum, defined as the CRC of the
// bytes last written there and verified by ReadPageChecked: this is the
// per-page integrity metadata real drives keep alongside each sector, and
// it is what turns silent bit-rot into a detectable media error.
// CorruptPage flips bits without refreshing the checksum (detectable
// corruption); CorruptPageSilently refreshes it too, modelling corruption
// the device itself cannot see — only cross-device redundancy checks
// (parity scrub) can catch that.
//
// Checksums are computed on demand. CorruptPage is the only operation
// that changes stored bytes behind their checksum, so it hashes the page
// once before its first flip and marks the page suspect; every write,
// truncation and silent corruption leaves the page consistent by
// definition and clears the mark. Only suspect pages are ever hashed on a
// read, so a checked read of a consistent page costs a copy.
//
// The page table is dense over the capacity, built at construction: a page
// pointer per LBA (nil while the page is unwritten), 8 bytes per page.
// Payloads materialise on first write, taken from the page pool, and go
// back to it when trimmed: a cache cleaner trims a few per cent of the SSD
// in one burst and the cache rewrites those slots soon after. Addresses
// outside the capacity hold nothing: they read as zeros, verify, and
// ignore trims and corruption; writing one is a caller bug (see
// WritePage).
type MemStore struct {
	pages   []*[PageSize]byte // by LBA; nil = unwritten
	suspect map[int64]uint32  // CorruptPage'd LBA -> CRC of the bytes last written
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
	return &MemStore{pages: make([]*[PageSize]byte, pages)}
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
// returning ErrMedia (wrapped with the LBA) and leaving dst alone when the
// stored bytes no longer match the bytes last written.
func (m *MemStore) ReadPageChecked(lba int64, dst []byte) error {
	p := m.page(lba)
	if p == nil {
		clear(dst[:PageSize])
		return nil
	}
	if !m.intact(lba, p) {
		return fmt.Errorf("%w: checksum mismatch at page %d", ErrMedia, lba)
	}
	copy(dst, p[:])
	return nil
}

// ReadPagesChecked is ReadPageChecked for each page of buf, from lba on:
// a device's data-mode read. It stops at the first page that fails.
func (m *MemStore) ReadPagesChecked(lba int64, buf []byte) error {
	for off := 0; off < len(buf); off, lba = off+PageSize, lba+1 {
		if err := m.ReadPageChecked(lba, buf[off:off+PageSize]); err != nil {
			return err
		}
	}
	return nil
}

// intact reports whether the stored page p at lba still holds the bytes
// last written there: a page CorruptPage never touched does by definition;
// a suspect one is hashed against the checksum taken before its first flip.
func (m *MemStore) intact(lba int64, p *[PageSize]byte) bool {
	if len(m.suspect) == 0 {
		return true
	}
	sum, ok := m.suspect[lba]
	return !ok || crc32.ChecksumIEEE(p[:]) == sum
}

// settle marks lba consistent: its stored bytes are, from now on, the
// bytes its checksum is defined over.
func (m *MemStore) settle(lba int64) {
	if len(m.suspect) > 0 {
		delete(m.suspect, lba)
	}
}

// WritePage stores one page at lba; the page is consistent with its
// checksum by definition. A page from the pool is overwritten in full
// before it becomes readable, so recycled bytes are never exposed. Every
// device range-checks a request before it touches its store, so an lba
// outside the capacity cannot come from input: it is a bug in the calling
// device and panics.
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
	m.settle(lba)
}

// TrimPage discards the page at lba; subsequent reads return zeros.
func (m *MemStore) TrimPage(lba int64) {
	p := m.page(lba)
	if p == nil {
		return
	}
	m.pages[lba] = nil
	m.written--
	m.settle(lba)
	PutPage(p[:])
}

// Written returns the number of distinct pages currently stored.
func (m *MemStore) Written() int { return m.written }

// VerifyPage reports whether the page at lba passes its checksum
// (unwritten pages trivially pass).
func (m *MemStore) VerifyPage(lba int64) bool {
	p := m.page(lba)
	return p == nil || m.intact(lba, p)
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
	if _, ok := m.suspect[lba]; !ok {
		if m.suspect == nil {
			m.suspect = make(map[int64]uint32)
		}
		m.suspect[lba] = crc32.ChecksumIEEE(p[:])
	}
	flip(p, bit)
	return true
}

// CorruptPageSilently flips one bit AND refreshes the checksum, modelling
// corruption introduced before the checksum was computed (e.g. in a buggy
// controller's RAM): the device cannot detect it; only a parity scrub
// across devices can. No-op on unwritten pages.
func (m *MemStore) CorruptPageSilently(lba int64, bit uint) bool {
	p := m.page(lba)
	if p == nil {
		return false
	}
	flip(p, bit)
	m.settle(lba)
	return true
}

func flip(p *[PageSize]byte, bit uint) { p[(bit/8)%PageSize] ^= 1 << (bit % 8) }

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
	m.settle(lba)
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
	c.suspect = maps.Clone(m.suspect)
	c.written = m.written
	return c
}
