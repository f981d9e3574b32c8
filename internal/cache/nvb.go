package cache

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// NVB models the classic alternative the paper's introduction dismisses:
// "buffering parity/data blocks in Non-volatile RAM ... small writes can
// be reduced to full stripe writes. However, the access time reduction
// they can provide is limited due to the poor locality at the disk I/O
// level" (§I).
//
// Writes land in a small battery-backed buffer instantly; the buffer
// destages a parity row at a time, using a full-stripe write when every
// data page of the row is buffered and read-modify-write otherwise. With
// random small writes, full rows rarely form and the destage rate is
// RMW-bound — so once the buffer fills, write latency collapses to RAID
// small-write speed, which is exactly the limitation KDD removes.
//
// There is no SSD in this policy; reads it cannot serve from the buffer
// take the embedded Nossd's array path.
type NVB struct {
	Nossd
	capPages int
	buf      map[int64][]byte  // lba -> page (nil values in timing mode)
	rows     map[int64][]int64 // row key (first peer) -> buffered lbas
	peers    []int64           // rowKey's and destageRow's row scratch
}

// NewNVB builds an NVRAM write buffer of capPages 4KB pages (NVRAM is
// small "for power and cost efficiency", §V-A — a few thousand pages).
func NewNVB(backend Backend, capPages int) *NVB {
	if capPages < 1 {
		panic("cache: NVB needs capacity")
	}
	return &NVB{
		Nossd:    Nossd{backend: backend},
		capPages: capPages,
		buf:      make(map[int64][]byte),
		rows:     make(map[int64][]int64),
	}
}

// Name implements Policy.
func (n *NVB) Name() string { return "NVB" }

// rowKey identifies lba's parity row by its first peer.
func (n *NVB) rowKey(lba int64) int64 {
	n.peers = AppendRowPeers(n.backend, n.peers[:0], lba)
	return n.peers[0]
}

// Read implements Policy: buffered pages are served at NVRAM speed, the
// rest by Nossd's array read.
func (n *NVB) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	page, ok := n.buf[lba]
	if !ok {
		return n.Nossd.Read(t, lba, buf)
	}
	n.st.Reads++
	n.st.ReadHits++
	if buf != nil && page != nil {
		copy(buf, page)
	}
	return t, nil // DRAM-speed; negligible at disk granularity
}

// Write implements Policy: instant while the buffer has room; once full,
// the caller pays for a destage first (back-pressure).
func (n *NVB) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	n.st.Writes++
	done := t
	if _, ok := n.buf[lba]; !ok && len(n.buf) >= n.capPages {
		c, err := n.destageOne(t)
		if err != nil {
			return t, err
		}
		done = c
	}
	if _, ok := n.buf[lba]; ok {
		n.st.WriteHits++
	} else {
		n.st.WriteMiss++
		key := n.rowKey(lba)
		n.rows[key] = append(n.rows[key], lba)
	}
	var page []byte
	if buf != nil {
		page = make([]byte, blockdev.PageSize)
		copy(page, buf)
	}
	n.buf[lba] = page
	return done, nil
}

// destageOne flushes the row with the most buffered pages (maximising
// full-stripe opportunities; the lowest row key on a tie, so the pick does
// not depend on map order) and returns the completion time.
func (n *NVB) destageOne(t sim.Time) (sim.Time, error) {
	var bestKey int64
	best := -1
	for k, lbas := range n.rows {
		if l := len(lbas); l > best || (l == best && k < bestKey) {
			best, bestKey = l, k
		}
	}
	if best < 0 {
		return t, nil
	}
	return n.destageRow(t, bestKey)
}

// destageRow writes one row's buffered pages to RAID.
func (n *NVB) destageRow(t sim.Time, key int64) (sim.Time, error) {
	lbas := n.rows[key]
	n.peers = AppendRowPeers(n.backend, n.peers[:0], key)
	peers := n.peers
	done := t
	if len(lbas) == len(peers) {
		// Full stripe: one parity computation, no reads. Buffered pages
		// carry bytes in data mode only.
		var rowBuf []byte
		if n.buf[key] != nil {
			rowBuf = make([]byte, len(peers)*blockdev.PageSize)
			for i, p := range peers {
				copy(rowBuf[i*blockdev.PageSize:], n.buf[p])
			}
		}
		n.st.RAIDWrites += int64(len(peers))
		c, err := n.backend.WriteRow(t, peers[0], rowBuf)
		if err != nil {
			return t, err
		}
		done = c
		n.st.SmallWritesSaved += int64(len(peers))
	} else {
		// Partial row: per-page read-modify-write.
		for _, lba := range lbas {
			n.st.RAIDWrites++
			c, err := n.backend.WritePages(t, lba, 1, n.buf[lba])
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
	}
	for _, lba := range lbas {
		delete(n.buf, lba)
	}
	delete(n.rows, key)
	return done, nil
}

// Clean implements Policy: opportunistic destaging in idle periods. Every
// row of the pass is destaged at the pass start (see sim.Station).
func (n *NVB) Clean(t sim.Time, force bool) (sim.Time, error) {
	done := t
	for len(n.rows) > 0 {
		c, err := n.destageOne(t)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if !force && len(n.buf) < n.capPages/2 {
			break
		}
	}
	return done, nil
}

// Flush implements Policy.
func (n *NVB) Flush(t sim.Time) (sim.Time, error) { return n.Clean(t, true) }

// Buffered returns the number of pages currently in NVRAM.
func (n *NVB) Buffered() int { return len(n.buf) }

var _ Policy = (*NVB)(nil)
