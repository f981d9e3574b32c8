package metalog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// This file implements the sharded data plane's batched append path.
//
// Lanes of the shard plane share one metadata log (one NVRAM buffer, one
// circular partition, one tail). In batch mode an operation's entries are
// inserted into the NVRAM buffer immediately — insertion is the
// durability point, exactly as in Put, so the RPO-zero contract is
// untouched — but the page flushes that Put would perform inline are
// deferred to one FlushBatch call at the end of the shard's batch: one
// fsync-equivalent barrier per batch instead of one per entry.
//
// Pages committed by FlushBatch carry an extended header ("KS" magic)
// tagging the flushing shard and a per-shard batch sequence number; the
// commit itself is Log.commitPage, the routine Put and Flush use.
// Recovery uses the tags to tolerate interleaved multi-writer logs: pages
// of the same shard replay in shard-sequence order even if a future
// multi-tail design (or an adversarial test) lands them on flash out of
// order. Pages from Put/Flush keep the legacy "KL" header; the two kinds
// may be mixed freely in one log.

// Shard-tagged page header layout:
//
//	bytes 0-1   magic "KS"
//	bytes 2-3   used: encoded entry bytes following the header
//	bytes 4-7   CRC-32 (IEEE) of those entry bytes
//	byte  8     shard tag of the flushing writer
//	byte  9     reserved (zero)
//	bytes 10-13 per-shard batch sequence number
//	bytes 14-15 reserved (zero)
const (
	batchPageMagic   = 0x534B // "KS"
	batchPageHdrLen  = 16
	batchPagePayload = blockdev.PageSize - batchPageHdrLen
)

// pageTag identifies a committed page's writer. Untagged ("KL") pages
// form the legacy single-writer stream.
type pageTag struct {
	tagged   bool
	shard    uint8
	shardSeq uint32
}

// PutBuffered records a mapping entry in the NVRAM metadata buffer
// WITHOUT flushing any full page to flash. The insert is the durability
// point (atomic-in-NVRAM, same as Put); the deferred page commits are
// issued by the next FlushBatch. Safe for concurrent use.
func (l *Log) PutBuffered(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bufInsert(e)
}

// FlushBatch commits every full page's worth of buffered entries to the
// log tail in one barrier, tagging each page with the flushing shard and
// its next batch sequence number. Partial pages stay in NVRAM (they are
// durable there). Returns the virtual completion time of the flash
// writes, t if none were needed. Safe for concurrent use.
func (l *Log) FlushBatch(t sim.Time, shard uint8) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitFull(t, int(shard))
}

// FlushBatchAll drains the buffer completely (final partial page
// included) through the tagged path — the plane's quiesce barrier.
func (l *Log) FlushBatchAll(t sim.Time, shard uint8) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitAll(t, int(shard))
}

// arrangeReplay computes the page replay order for recovery: pages keep
// their physical (head→tail) positions, except that pages sharing a shard
// tag are permuted within the positions that shard occupies so they
// replay in shard-sequence order. Untagged pages — a single-writer stream
// by construction — never move. This is what makes replay tolerant of
// shard-tagged interleaving: a multi-writer log whose pages landed on
// flash out of per-shard order still rebuilds each shard's last-writer-
// wins map correctly, while cross-shard relative order (which only
// matters for pages addressing the same DazPage, something the plane's
// disjoint lane regions rule out) stays physical.
func arrangeReplay(pages []recoveredPage) []recoveredPage {
	positions := make(map[uint8][]int)
	for i, p := range pages {
		if p.tag.tagged {
			positions[p.tag.shard] = append(positions[p.tag.shard], i)
		}
	}
	out := make([]recoveredPage, len(pages))
	copy(out, pages)
	for _, idxs := range positions {
		if len(idxs) < 2 {
			continue
		}
		group := make([]recoveredPage, len(idxs))
		for k, i := range idxs {
			group[k] = pages[i]
		}
		// Insertion sort by shardSeq (stable: equal seqs keep physical
		// order); groups are small and this avoids pulling in sort for a
		// hot path that normally runs on already-ordered logs.
		for a := 1; a < len(group); a++ {
			for b := a; b > 0 && group[b].tag.shardSeq < group[b-1].tag.shardSeq; b-- {
				group[b], group[b-1] = group[b-1], group[b]
			}
		}
		for k, i := range idxs {
			out[i] = group[k]
		}
	}
	return out
}

// recoveredPage is one committed page as seen by Recover: its physical
// log sequence, its entries, and its writer tag.
type recoveredPage struct {
	seq     uint64
	entries []Entry
	tag     pageTag
}

// decodeTaggedPage validates a shard-tagged ("KS") metadata page and
// decodes its entries and tag. The caller has already matched the magic.
func decodeTaggedPage(page []byte, seq uint64, phys int64) ([]Entry, pageTag, error) {
	used := int(binary.LittleEndian.Uint16(page[2:]))
	if used > batchPagePayload {
		return nil, pageTag{}, fmt.Errorf("%w: log seq %d (ssd page %d): entry bytes %d overflow the page",
			ErrLogCorrupt, seq, phys, used)
	}
	if got := crc32.ChecksumIEEE(page[batchPageHdrLen : batchPageHdrLen+used]); got != binary.LittleEndian.Uint32(page[4:]) {
		return nil, pageTag{}, fmt.Errorf("%w: log seq %d (ssd page %d): checksum mismatch", ErrLogCorrupt, seq, phys)
	}
	tag := pageTag{
		tagged:   true,
		shard:    page[8],
		shardSeq: binary.LittleEndian.Uint32(page[10:]),
	}
	var entries []Entry
	for i := 0; i < used; {
		e, n, ok := decodeEntry(page[batchPageHdrLen+i : batchPageHdrLen+used])
		if !ok {
			return nil, pageTag{}, fmt.Errorf("%w: log seq %d (ssd page %d): undecodable entry at offset %d",
				ErrLogCorrupt, seq, phys, i)
		}
		entries = append(entries, e)
		i += n
	}
	return entries, tag, nil
}
