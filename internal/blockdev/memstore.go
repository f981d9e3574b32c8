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
type MemStore struct {
	pages map[int64]*storedPage
	free  []*storedPage // trimmed pages awaiting reuse, at most maxFreePages
	cap   int64
}

// storedPage is one written page and the checksum recorded with it.
type storedPage struct {
	sum  uint32
	data []byte
}

// maxFreePages bounds the pages TrimPage keeps for WritePage to reuse.
// A cache that trims a slot and soon writes another (the SSD under KDD)
// then stops allocating a page per write, while a store that is only
// ever trimmed holds at most 256 KiB it no longer needs.
const maxFreePages = 64

// Storer is satisfied by any data-mode device (or wrapper that can see
// through to one) whose bytes live in a MemStore. Test rigs and recovery
// paths use it to reach the backing bytes for checksum sweeps and
// corruption injection without caring which device wrapper they hold.
type Storer interface {
	Store() *MemStore
}

// NewMemStore returns a store with the given capacity in pages.
func NewMemStore(pages int64) *MemStore {
	return &MemStore{pages: make(map[int64]*storedPage), cap: pages}
}

// Pages returns the capacity in pages.
func (m *MemStore) Pages() int64 { return m.cap }

// ReadPage copies page lba into dst (one page) without integrity
// verification. Prefer ReadPageChecked on device read paths.
func (m *MemStore) ReadPage(lba int64, dst []byte) {
	if p, ok := m.pages[lba]; ok {
		copy(dst, p.data)
		return
	}
	clear(dst[:PageSize])
}

// ReadPageChecked copies page lba into dst and verifies its checksum,
// returning ErrMedia (wrapped with the LBA) when the stored bytes no
// longer match the checksum recorded at write time.
func (m *MemStore) ReadPageChecked(lba int64, dst []byte) error {
	p, ok := m.pages[lba]
	if !ok {
		clear(dst[:PageSize])
		return nil
	}
	if crc32.ChecksumIEEE(p.data) != p.sum {
		return fmt.Errorf("%w: checksum mismatch at page %d", ErrMedia, lba)
	}
	copy(dst, p.data)
	return nil
}

// WritePage stores one page at lba and records its checksum. A page
// taken from the free list is overwritten in full before it becomes
// readable, so recycled bytes are never exposed.
func (m *MemStore) WritePage(lba int64, src []byte) {
	p, ok := m.pages[lba]
	if !ok {
		if n := len(m.free); n > 0 {
			p, m.free[n-1] = m.free[n-1], nil
			m.free = m.free[:n-1]
		} else {
			p = &storedPage{data: make([]byte, PageSize)}
		}
		m.pages[lba] = p
	}
	copy(p.data, src[:PageSize])
	p.sum = crc32.ChecksumIEEE(p.data)
}

// TrimPage discards the page at lba; subsequent reads return zeros.
func (m *MemStore) TrimPage(lba int64) {
	p, ok := m.pages[lba]
	if !ok {
		return
	}
	delete(m.pages, lba)
	if len(m.free) < maxFreePages {
		m.free = append(m.free, p)
	}
}

// Written returns the number of distinct pages currently stored.
func (m *MemStore) Written() int { return len(m.pages) }

// VerifyPage reports whether the page at lba passes its checksum
// (unwritten pages trivially pass).
func (m *MemStore) VerifyPage(lba int64) bool {
	p, ok := m.pages[lba]
	return !ok || crc32.ChecksumIEEE(p.data) == p.sum
}

// CorruptPage flips one bit of the stored page WITHOUT refreshing the
// checksum: detectable corruption (bit-rot the drive's per-sector ECC/CRC
// catches). Reads through ReadPageChecked will return ErrMedia until the
// page is rewritten. No-op on unwritten pages (they have no bits to rot).
func (m *MemStore) CorruptPage(lba int64, bit uint) bool {
	p, ok := m.pages[lba]
	if !ok {
		return false
	}
	p.data[(bit/8)%PageSize] ^= 1 << (bit % 8)
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
	p := m.pages[lba]
	p.sum = crc32.ChecksumIEEE(p.data)
	return true
}

// TruncatePage keeps the first keep bytes of the stored page, zeroes the
// rest, and refreshes the checksum — a torn in-page write that persisted
// only a prefix (the tail never reached the medium, so the device sees a
// self-consistent page). No-op on unwritten pages.
func (m *MemStore) TruncatePage(lba int64, keep int) bool {
	p, ok := m.pages[lba]
	if !ok {
		return false
	}
	keep = max(0, min(keep, PageSize))
	clear(p.data[keep:])
	p.sum = crc32.ChecksumIEEE(p.data)
	return true
}

// Clone returns a deep copy (used to snapshot device state for
// crash-recovery tests).
func (m *MemStore) Clone() *MemStore {
	c := NewMemStore(m.cap)
	for lba, p := range m.pages {
		cp := make([]byte, PageSize)
		copy(cp, p.data)
		c.pages[lba] = &storedPage{sum: p.sum, data: cp}
	}
	return c
}
