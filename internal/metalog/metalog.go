// Package metalog implements KDD's persistent cache metadata: a fixed
// partition at the beginning of the SSD managed as a circular log
// (§III-B/C). Mapping entries accumulate in an NVRAM metadata buffer and
// are committed one full page at a time at the log tail; reclamation is
// oldest-first from the head, reinserting still-valid entries into the
// buffer. The head/tail counters live in NVRAM. Recovery rebuilds the
// mapping by scanning the log from head to tail and then overlaying the
// NVRAM buffer.
//
// The in-memory index is dense, not hashed: the buffer is a queue in
// arrival order, the paper's "list in memory for each metadata page"
// (§III-C) is a ring with one slot per partition page, and one int32 per
// SSD page says where the newest entry of that cache page lives (see
// Log.where). Timing-only devices persist no bytes, so there the page
// image is never built: no encode, no checksum, the same flash writes.
package metalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"kddcache/internal/blockdev"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// State is the cache-page state recorded in mapping entries (§III-B).
type State uint8

// Page states. A Free entry records the reclamation of a DAZ page.
const (
	StateFree State = iota
	StateClean
	StateOld
	StateDelta // never logged (DEZ mapping is embedded in Old entries); present for completeness
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateClean:
		return "clean"
	case StateOld:
		return "old"
	case StateDelta:
		return "delta"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// NoDez marks entries without an associated DEZ delta.
const NoDez = ^uint32(0)

// Entry is one persistent mapping record. Encoding is variable-size,
// following §III-C: "mapping entries in the primary map have different
// required fields for different kinds of pages" — a free record needs
// only the cache page, a clean record adds the storage LBA, and an old
// record adds the delta location tuple. LBAs are 4 bytes (16TB
// addressability at 4KB pages).
type Entry struct {
	State   State
	DazPage uint32 // cache page index holding the data (lba_daz)
	RaidLBA uint32 // storage address of the data (lba_raid)
	DezPage uint32 // cache page holding the delta, or NoDez (lba_dez)
	DezOff  uint16 // byte offset of the delta within the DEZ page
	DezLen  uint16 // encoded delta length in bytes
	DezRaw  bool   // delta is a raw full page, not an encoding
}

// On-flash entry sizes per state: 1 type byte + fields.
const (
	FreeEntrySize  = 1 + 4             // type, daz
	CleanEntrySize = 1 + 4 + 4         // type, daz, raid
	OldEntrySize   = 1 + 4 + 4 + 4 + 4 // type, daz, raid, dez, off+len
)

// EntriesPerPage is the nominal entry density of a metadata page (used
// for buffer-sizing heuristics by LeavO's uncoalesced model; the log
// itself packs variable-size entries).
const EntriesPerPage = blockdev.PageSize / 20

// ErrLogFull is returned when the circular log cannot reclaim space
// because every entry is live; the partition is undersized.
var ErrLogFull = errors.New("metalog: log full of live entries; metadata partition too small")

// ErrLogCorrupt is returned by Recover when a committed metadata page
// fails validation (bad magic, impossible length, or checksum mismatch).
// Recovery NEVER silently drops or guesses around such a page: the
// primary map rebuilt from it would be wrong, which is worse than
// failing the recovery and falling back to a full resync.
var ErrLogCorrupt = errors.New("metalog: corrupt metadata page")

// Each committed metadata page carries an 8-byte header so recovery can
// tell a genuine log page from garbage and can detect corruption the
// device-level checksum cannot: silent bit-flips (checksummed after the
// damage) and torn in-page writes that persisted only a prefix.
//
//	bytes 0-1  magic
//	bytes 2-3  used: encoded entry bytes following the header
//	bytes 4-7  CRC-32 (IEEE) of those entry bytes
const (
	logPageMagic   = 0x4C4B // "KL"
	logPageHdrLen  = 8
	logPagePayload = blockdev.PageSize - logPageHdrLen
)

// ErrVolatileDevice is returned by Recover when the SSD device carries no
// bytes (timing-only mode): committed metadata pages cannot be read back,
// so pretending to recover would silently lose the mapping. Build the
// stack with a data-backed SSD for crash-recovery experiments.
var ErrVolatileDevice = errors.New("metalog: cannot recover from a timing-only device that persisted no bytes")

// encSize returns the on-flash size of e.
func (e Entry) encSize() int {
	switch e.State {
	case StateFree:
		return FreeEntrySize
	case StateOld:
		return OldEntrySize
	default:
		return CleanEntrySize
	}
}

// typeByte encodes state (+1 so 0 terminates a page) and the raw flag.
func (e Entry) typeByte() byte {
	t := byte(e.State) + 1
	if e.DezRaw {
		t |= 0x80
	}
	return t
}

// encode writes e into b and returns the bytes consumed.
func (e Entry) encode(b []byte) int {
	b[0] = e.typeByte()
	binary.LittleEndian.PutUint32(b[1:], e.DazPage)
	switch e.State {
	case StateFree:
		return FreeEntrySize
	case StateOld:
		binary.LittleEndian.PutUint32(b[5:], e.RaidLBA)
		binary.LittleEndian.PutUint32(b[9:], e.DezPage)
		binary.LittleEndian.PutUint16(b[13:], e.DezOff)
		binary.LittleEndian.PutUint16(b[15:], e.DezLen)
		return OldEntrySize
	default:
		binary.LittleEndian.PutUint32(b[5:], e.RaidLBA)
		return CleanEntrySize
	}
}

// decodeEntry parses one entry at the start of b; n is the bytes
// consumed, ok is false at the page terminator or on garbage.
func decodeEntry(b []byte) (e Entry, n int, ok bool) {
	if len(b) < FreeEntrySize || b[0] == 0 {
		return Entry{}, 0, false
	}
	raw := b[0]&0x80 != 0
	st := State(b[0]&0x7F) - 1
	if st > StateOld {
		return Entry{}, 0, false
	}
	e = Entry{State: st, DezRaw: raw, DazPage: binary.LittleEndian.Uint32(b[1:]), DezPage: NoDez}
	switch st {
	case StateFree:
		return e, FreeEntrySize, true
	case StateOld:
		if len(b) < OldEntrySize {
			return Entry{}, 0, false
		}
		e.RaidLBA = binary.LittleEndian.Uint32(b[5:])
		e.DezPage = binary.LittleEndian.Uint32(b[9:])
		e.DezOff = binary.LittleEndian.Uint16(b[13:])
		e.DezLen = binary.LittleEndian.Uint16(b[15:])
		return e, OldEntrySize, true
	default:
		if len(b) < CleanEntrySize {
			return Entry{}, 0, false
		}
		e.RaidLBA = binary.LittleEndian.Uint32(b[5:])
		return e, CleanEntrySize, true
	}
}

// Stats counts metadata traffic.
type Stats struct {
	PagesWritten      int64 // metadata pages committed to flash
	EntriesLogged     int64 // entries committed (including reinsertions)
	ReinsertedEntries int64 // entries re-logged by GC
	ReinsertedBytes   int64 // encoded bytes re-logged by GC
	GCRuns            int64
	Recoveries        int64
}

// GCPageEquivalent returns GC traffic expressed in whole metadata pages.
func (s Stats) GCPageEquivalent() int64 {
	return s.ReinsertedBytes / blockdev.PageSize
}

// Log is the circular metadata log plus its NVRAM metadata buffer.
//
// A Log may be shared by every lane of a sharded plane, which appends
// through PutBuffered and commits at FlushBatch; a page committed by
// either path has the one header above (logPageMagic). The public
// mutating surface is serialized by an internal mutex, so any goroutine
// may Put/PutBuffered/FlushBatch against one log. The Counters pointer
// itself is handed out unlocked — callers snapshot it only at quiesce
// barriers (crash snapshots) or mutate it from the owner of the rebuild
// pump.
type Log struct {
	mu     sync.Mutex
	dev    blockdev.Device
	npages int64 // partition size in pages: SSD pages [0, npages)

	ctr *nvram.Counters

	// NVRAM metadata buffer: the queue buf[bufHead:] in arrival order, at
	// most one entry per cache page (a newer entry replaces the older one
	// in place). A commit takes a prefix of the queue; entries before
	// bufHead are committed and wait for bufDrop's compaction.
	buf      []Entry
	bufHead  int
	bufBytes int // total encoded size of buffered entries

	// Volatile acceleration structures (rebuilt on recovery).
	//
	// pages is §III-C's "list in memory for each metadata page": ring slot
	// seq%npages holds the entries of committed page seq, empty once GC has
	// reclaimed it. A commit builds the new page's list in its slot's old
	// backing array, so the steady state allocates nothing.
	//
	// where locates the newest entry of every cache page, indexed by
	// Entry.DazPage (an SSD page of dev): 0 = none, v > 0 = committed in
	// ring slot v-1, v < 0 = buffered at buf[^v]. At most one live page
	// maps to a ring slot, so the slot names the page unambiguously.
	pages [][]Entry
	where []int32

	stats Stats

	tr *obs.Tracer
}

// SetTracer installs a span tracer (nil disables tracing). Page commits
// appear as meta_append spans nested inside the operation that forced
// them.
func (l *Log) SetTracer(tr *obs.Tracer) { l.tr = tr }

// gcThreshold is the live fraction of the partition above which GC
// reclaims head pages.
const gcThreshold = 0.9

// New creates a log over the first npages pages of dev with fresh NVRAM
// counters. The partition must lie on dev and hold at least 2 and fewer
// than 2^31 pages (ring slots are int32).
func New(dev blockdev.Device, npages int64) (*Log, error) {
	if npages < 2 || npages >= math.MaxInt32 {
		return nil, fmt.Errorf("metalog: partition of %d pages; it needs at least 2 and fewer than 2^31", npages)
	}
	if npages > dev.Pages() {
		return nil, fmt.Errorf("metalog: partition [0, %d) is not on the %d-page device", npages, dev.Pages())
	}
	return &Log{
		dev:    dev,
		npages: npages,
		ctr:    &nvram.Counters{},
		pages:  make([][]Entry, npages),
		where:  make([]int32, dev.Pages()),
	}, nil
}

// Counters exposes the NVRAM head/tail counters (handed to recovery after
// a simulated power failure).
func (l *Log) Counters() *nvram.Counters { return l.ctr }

// BufferedEntries returns the NVRAM metadata buffer contents in insertion
// order (what survives a crash alongside the counters).
func (l *Log) BufferedEntries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry{}, l.buf[l.bufHead:]...)
}

// Stats returns a snapshot of metadata traffic counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// LivePages returns the number of committed pages currently in the log.
func (l *Log) LivePages() int64 { return int64(l.ctr.Live()) }

// Reinit wipes the log back to empty: fresh NVRAM counters (head == tail,
// so a later Recover scans zero device pages — crucially this works even
// when the old device is dead, because nothing is read or written), empty
// metadata buffer, and cleared acceleration structures. If dev is non-nil
// the log switches to it (a replacement SSD on re-attach); it must have
// the same partition geometry. Traffic stats are preserved — they count
// lifetime metadata I/O, which a re-attach does not undo.
func (l *Log) Reinit(dev blockdev.Device) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dev != nil {
		l.dev = dev
	}
	// The RAID member-rebuild checkpoint shares the NVRAM counter block
	// but belongs to the array, not the log: wiping the log (a cache
	// failover) must not lose a half-done rebuild's watermark.
	l.ctr = &nvram.Counters{
		RebuildActive: l.ctr.RebuildActive,
		RebuildDisk:   l.ctr.RebuildDisk,
		RebuildRow:    l.ctr.RebuildRow,
	}
	l.buf, l.bufHead, l.bufBytes = l.buf[:0], 0, 0
	l.resetIndex()
}

// resetIndex empties the volatile structures.
func (l *Log) resetIndex() {
	for i := range l.pages {
		l.pages[i] = l.pages[i][:0]
	}
	clear(l.where)
}

// loc returns cache page k's cell of the where table. The table is sized
// by the device the log lives on; an entry naming a page beyond it (the
// hand-built logs of unit tests) grows the table instead of faulting.
func (l *Log) loc(k uint32) *int32 {
	if int(k) >= len(l.where) {
		l.where = append(l.where, make([]int32, int(k)+1-len(l.where))...)
	}
	return &l.where[k]
}

// slotOf returns the ring slot of committed page seq, which is also its
// SSD page.
func (l *Log) slotOf(seq uint64) int32 { return int32(seq % uint64(l.npages)) }

// Put records a mapping entry. When the buffer fills a page, the page is
// committed to the log tail; when the log passes the GC threshold, head
// pages are reclaimed. Returns the virtual completion time of any flash
// writes performed (t if none).
func (l *Log) Put(t sim.Time, e Entry) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bufInsert(e)
	return l.commitFull(t, false)
}

// commitFull commits pages while the buffer holds a full page's worth of
// entries; ackEarly is the kddbug mutation (see commitPage), set only by
// FlushBatch. Caller holds l.mu.
func (l *Log) commitFull(t sim.Time, ackEarly bool) (sim.Time, error) {
	done := t
	// Bound the flush loop: GC reinsertion can refill the buffer, and if
	// every entry in the log is live no amount of cleaning makes progress
	// — the partition is undersized.
	for rounds := l.npages + 2; l.bufBytes >= blockdev.PageSize; rounds-- {
		if rounds <= 0 {
			return t, ErrLogFull
		}
		c, err := l.commitPage(t, ackEarly)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// commitAll drains the buffer completely, final partial page included.
// Caller holds l.mu.
func (l *Log) commitAll(t sim.Time) (sim.Time, error) {
	done := t
	for l.bufHead < len(l.buf) {
		c, err := l.commitPage(t, false)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// bufInsert adds or coalesces an entry in the NVRAM metadata buffer.
func (l *Log) bufInsert(e Entry) {
	w := l.loc(e.DazPage)
	if *w < 0 {
		prev := &l.buf[^*w]
		l.bufBytes += e.encSize() - prev.encSize()
		*prev = e
		return
	}
	*w = ^int32(len(l.buf))
	l.buf = append(l.buf, e)
	l.bufBytes += e.encSize()
}

// bufDrop removes the oldest n entries from the NVRAM buffer and slides
// the queue back to the front of buf once the drained prefix is at least
// as long as what remains, so buf is reused instead of regrown and an
// entry moves at most once per entry drained past it.
func (l *Log) bufDrop(n int) {
	for _, e := range l.buf[l.bufHead : l.bufHead+n] {
		l.bufBytes -= e.encSize()
		l.where[e.DazPage] = 0
	}
	l.bufHead += n
	if rest := len(l.buf) - l.bufHead; l.bufHead >= rest {
		copy(l.buf, l.buf[l.bufHead:])
		l.buf, l.bufHead = l.buf[:rest], 0
		for i, e := range l.buf {
			l.where[e.DazPage] = ^int32(i)
		}
	}
}

// commitPage commits the oldest buffered entries that fit one page at
// the tail. With ackEarly (the kddbug build's FlushBatch only) the
// entries leave NVRAM before the page is durable. Caller holds l.mu.
func (l *Log) commitPage(t sim.Time, ackEarly bool) (sim.Time, error) {
	if l.bufHead == len(l.buf) {
		return t, nil
	}
	sp := l.tr.Begin(t, obs.PhaseMetaAppend)
	// Make room first so tail never collides with head.
	if err := l.maybeGC(t); err != nil {
		sp.End(t)
		return t, err
	}
	// A timing-only device persists no bytes: the page is sized, not built.
	var image []byte
	if l.dataMode() {
		image = blockdev.GetZeroPage()
	}
	seq := l.ctr.Tail
	slot := l.slotOf(seq)
	flushed := l.pages[slot][:0] // the slot's page was reclaimed a lap ago
	used := 0
	for _, e := range l.buf[l.bufHead:] {
		n := e.encSize()
		if used+n > logPagePayload {
			break
		}
		if image != nil {
			e.encode(image[logPageHdrLen+used:])
		}
		used += n
		flushed = append(flushed, e)
	}
	if image != nil {
		binary.LittleEndian.PutUint16(image[0:], logPageMagic)
		binary.LittleEndian.PutUint16(image[2:], uint16(used))
		binary.LittleEndian.PutUint32(image[4:], crc32.ChecksumIEEE(image[logPageHdrLen:logPageHdrLen+used]))
	}
	if ackEarly {
		// MUTATION (kddbug build tag): treat the batch as committed before
		// its page is durable — the entries leave NVRAM ahead of the write
		// ack. A crash on this very write ordinal then loses the mappings
		// of already-acked operations, which the shard checker must catch.
		l.bufDrop(len(flushed))
	}
	done, err := l.dev.WritePages(t, int64(slot), 1, image)
	blockdev.PutPage(image) // the device copied it (or ignored it on error)
	if err != nil {
		// The page never acked. The entries stay in the NVRAM buffer and
		// the tail counter untouched, so a crash here is
		// repaired from NVRAM alone — committing an entry to Put is
		// atomic-in-NVRAM.
		sp.End(t)
		return t, err
	}
	l.ctr.Tail++
	if !ackEarly {
		// Only now that the page is durable do the entries leave NVRAM.
		l.bufDrop(len(flushed))
	}
	l.pages[slot] = flushed
	for _, e := range flushed {
		l.where[e.DazPage] = slot + 1
	}
	l.stats.EntriesLogged += int64(len(flushed))
	l.stats.PagesWritten++
	sp.End(done)
	return done, nil
}

// Flush commits all buffered entries (final partial page included); used
// on clean shutdown, before planned failovers and at the plane's quiesce.
func (l *Log) Flush(t sim.Time) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitAll(t)
}

// maybeGC reclaims head pages while the log is above its threshold.
// Valid entries of the candidate page are reinserted into the metadata
// buffer from the in-memory page list — no flash read needed (§III-C).
func (l *Log) maybeGC(t sim.Time) error {
	max := int64(float64(l.npages) * gcThreshold)
	if max < 1 {
		max = 1
	}
	guard := l.npages * 2 // bound the work; a full-live log cannot make progress
	for l.LivePages() >= max {
		if guard--; guard < 0 {
			return ErrLogFull
		}
		head := l.ctr.Head
		if head == l.ctr.Tail {
			return nil
		}
		l.stats.GCRuns++
		slot := l.slotOf(head)
		for _, e := range l.pages[slot] {
			if l.where[e.DazPage] != slot+1 {
				continue // superseded later; dead
			}
			if e.State == StateFree {
				// Head is the oldest page: no earlier entry can exist that
				// this free marker must supersede, so it can be dropped.
				l.where[e.DazPage] = 0
				continue
			}
			l.bufInsert(e)
			l.stats.ReinsertedEntries++
			l.stats.ReinsertedBytes += int64(e.encSize())
		}
		l.pages[slot] = l.pages[slot][:0]
		l.ctr.Head++
		// Reinsertions may refill the buffer past a page; the caller's
		// flush loop handles that.
		if l.bufBytes >= blockdev.PageSize && l.LivePages() < max {
			break
		}
	}
	return nil
}

func (l *Log) dataMode() bool {
	if s, ok := l.dev.(blockdev.Storer); ok {
		return s.Store() != nil
	}
	return false
}

// Recover rebuilds a log's volatile structures after a power failure: it
// re-reads every live metadata page from flash (head to tail), replays
// the entries in commit order, then overlays the NVRAM buffer. It returns
// the final surviving mapping entries in replay order so the cache can
// rebuild its primary map (§III-E1). Pages reach flash in commit order —
// the log has one tail — so the head→tail order they are read in is the
// order they replay in.
//
// The receiver must have been constructed with Restore (same device,
// partition, counters and buffered entries as before the crash).
func (l *Log) Recover(t sim.Time) ([]Entry, sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dataMode() && l.ctr.Live() > 0 {
		return nil, t, ErrVolatileDevice
	}
	l.stats.Recoveries++
	l.resetIndex()
	var page [blockdev.PageSize]byte
	done := t
	var replay []Entry
	for seq := l.ctr.Head; seq != l.ctr.Tail; seq++ {
		slot := l.slotOf(seq)
		var buf []byte
		if l.dataMode() {
			buf = page[:]
		}
		c, err := l.dev.ReadPages(t, int64(slot), 1, buf)
		if err != nil {
			// A detectable media error on a log page is unrecoverable from
			// this replica; surface it with enough context to act on.
			return nil, t, fmt.Errorf("metalog: recovery read of log seq %d (ssd page %d): %w", seq, slot, err)
		}
		done = sim.MaxTime(done, c)
		var entries []Entry
		if l.dataMode() {
			if entries, err = decodePage(page[:], seq, int64(slot)); err != nil {
				return nil, t, err
			}
		}
		l.pages[slot] = entries
		for _, e := range entries {
			*l.loc(e.DazPage) = slot + 1
		}
		replay = append(replay, entries...)
	}
	// Overlay NVRAM buffer (newest state per DazPage).
	for i := l.bufHead; i < len(l.buf); i++ {
		*l.loc(l.buf[i].DazPage) = ^int32(i)
	}
	replay = append(replay, l.buf[l.bufHead:]...)
	return replay, done, nil
}

// decodePage validates one committed metadata page (header magic, length
// bound, payload checksum) and decodes its entries. Any mismatch is a
// loud ErrLogCorrupt carrying the page's log sequence and SSD address.
func decodePage(page []byte, seq uint64, phys int64) ([]Entry, error) {
	if binary.LittleEndian.Uint16(page[0:]) != logPageMagic {
		return nil, fmt.Errorf("%w: log seq %d (ssd page %d): bad magic", ErrLogCorrupt, seq, phys)
	}
	used := int(binary.LittleEndian.Uint16(page[2:]))
	if used > logPagePayload {
		return nil, fmt.Errorf("%w: log seq %d (ssd page %d): entry bytes %d overflow the page",
			ErrLogCorrupt, seq, phys, used)
	}
	if got := crc32.ChecksumIEEE(page[logPageHdrLen : logPageHdrLen+used]); got != binary.LittleEndian.Uint32(page[4:]) {
		return nil, fmt.Errorf("%w: log seq %d (ssd page %d): checksum mismatch", ErrLogCorrupt, seq, phys)
	}
	var entries []Entry
	for i := 0; i < used; {
		e, n, ok := decodeEntry(page[logPageHdrLen+i : logPageHdrLen+used])
		if !ok {
			return nil, fmt.Errorf("%w: log seq %d (ssd page %d): undecodable entry at offset %d",
				ErrLogCorrupt, seq, phys, i)
		}
		entries = append(entries, e)
		i += n
	}
	return entries, nil
}

// Restore reconstructs a Log handle around surviving NVRAM state after a
// crash: same device and partition, the NVRAM counters, and the NVRAM
// metadata buffer contents in order. Call Recover next. The geometry is
// checked as New checks it.
func Restore(dev blockdev.Device, npages int64,
	ctr *nvram.Counters, buffered []Entry) (*Log, error) {
	l, err := New(dev, npages)
	if err != nil {
		return nil, err
	}
	l.ctr = ctr
	for _, e := range buffered {
		l.bufInsert(e)
	}
	return l, nil
}
