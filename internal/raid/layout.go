package raid

import "fmt"

// Level identifies the array organisation.
type Level int

// Supported RAID levels: the parity levels whose parity update KDD
// delays.
const (
	Level5 Level = 5
	Level6 Level = 6
)

func (l Level) String() string { return fmt.Sprintf("RAID-%d", int(l)) }

// parityDisks returns how many disks per stripe hold parity, which is
// also how many simultaneous disk losses are survivable.
func (l Level) parityDisks() int {
	if l == Level6 {
		return 2
	}
	return 1
}

// parity is the parity set of one stripe: which members hold its np
// parity copies. Copy 0 is P, copy 1 is Q; unused entries are -1.
type parity struct {
	par [2]int
	np  int
}

// coef returns the coefficient data index i carries in parity copy j:
// copy j of a row is Σ coef(j, i)·D_i, with 1 for P and g^i for Q.
func coef(j, i int) byte {
	if j == 0 {
		return 1
	}
	return gfPow(i)
}

// mask returns the parity members as a bitmask of disks.
func (ps parity) mask() uint32 {
	var m uint32
	for _, d := range ps.par[:ps.np] {
		m |= 1 << uint(d)
	}
	return m
}

// loc pins one logical page onto the array.
type loc struct {
	stripe  int64 // stripe number
	row     int64 // disk LBA: stripe*chunkPages + pageInChunk
	dataIdx int   // index of the page's chunk among the stripe's data chunks
	disk    int   // disk holding the data page
	parity        // disks holding the row's parity
}

// layout computes address mapping for an array.
type layout struct {
	level      Level
	disks      int
	chunkPages int64
	diskPages  int64 // capacity of each member disk
}

// dataChunksPerStripe returns the number of data chunks in one stripe.
func (g *layout) dataChunksPerStripe() int64 {
	return int64(g.disks - g.level.parityDisks())
}

// dataPages returns the logical capacity in pages: every disk LBA is one
// row, and each row carries one page per data chunk.
func (g *layout) dataPages() int64 {
	usableRows := g.diskPages - g.diskPages%g.chunkPages // whole chunks only
	return usableRows * g.dataChunksPerStripe()
}

// rotate returns the parity set of a stripe and the disk holding its
// first data chunk. Left-symmetric rotation: parity starts on the last
// disk and moves left each stripe; data chunks wrap around starting just
// after the parity (after Q for RAID-6), matching the Linux MD default
// layout.
func (g *layout) rotate(stripe int64) (ps parity, first int) {
	ps = parity{par: [2]int{-1, -1}, np: g.level.parityDisks()}
	p := g.disks - 1 - int(stripe%int64(g.disks))
	for j := 0; j < ps.np; j++ {
		ps.par[j] = (p + j) % g.disks
	}
	return ps, (p + ps.np) % g.disks
}

// locate maps a logical page number to its physical location.
func (g *layout) locate(lba int64) loc {
	dc := g.dataChunksPerStripe()
	stripePages := g.chunkPages * dc
	stripe := lba / stripePages
	off := lba % stripePages
	dataIdx := int(off / g.chunkPages)
	ps, first := g.rotate(stripe)
	return loc{
		stripe:  stripe,
		row:     stripe*g.chunkPages + off%g.chunkPages,
		dataIdx: dataIdx,
		disk:    (first + dataIdx) % g.disks,
		parity:  ps,
	}
}

// rowLoc describes a full parity row (same disk LBA across the stripe):
// which disks hold the data pages (in data-chunk order) and parity.
type rowLoc struct {
	row       int64
	dataDisks []int
	parity
}

// locateRow expands the row at disk LBA row.
func (g *layout) locateRow(row int64) rowLoc {
	ps, first := g.rotate(row / g.chunkPages)
	rl := rowLoc{row: row, dataDisks: make([]int, g.dataChunksPerStripe()), parity: ps}
	for i := range rl.dataDisks {
		rl.dataDisks[i] = (first + i) % g.disks
	}
	return rl
}

// member returns the disk at position k of the row: the data disks in
// chunk order, then the parity copies.
func (rl rowLoc) member(k int) int {
	if k < len(rl.dataDisks) {
		return rl.dataDisks[k]
	}
	return rl.par[k-len(rl.dataDisks)]
}

// logicalLBA is the inverse of locate for a (stripe, dataIdx, pageInChunk).
func (g *layout) logicalLBA(stripe int64, dataIdx int, pageInChunk int64) int64 {
	dc := g.dataChunksPerStripe()
	return stripe*g.chunkPages*dc + int64(dataIdx)*g.chunkPages + pageInChunk
}
