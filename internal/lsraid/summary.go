package lsraid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The segment-summary codec: the byte representation of one segment's
// NVRAM summary. Layout (little-endian):
//
//	magic   [4]byte  "LSSG"
//	version u8       1
//	seq     uvarint
//	rows    uvarint
//	count   uvarint  number of LBA entries
//	lbas    count × varint, delta-encoded (zig-zag of lba[i]-lba[i-1])
//	crc     u32      CRC-32 (IEEE) of everything above
//
// Delta encoding keeps sequential workloads' summaries small; zig-zag
// keeps backwards deltas cheap. The format carries any non-negative LBA;
// the decoder rejects one past 4 bytes, which no segment can hold. The decoder is hardened against
// arbitrary bytes (fuzzed by FuzzLSRaidSegmentDecode): every length is
// bounded before allocation, every varint checked for truncation, and
// the CRC rejects torn or bit-rotted summaries loudly.

var (
	// ErrBadSummary reports an undecodable segment summary.
	ErrBadSummary = errors.New("lsraid: bad segment summary")

	summaryMagic = [4]byte{'L', 'S', 'S', 'G'}
)

const (
	summaryVersion = 1
	// maxSummaryEntries bounds decode-side allocation: no realistic
	// segment geometry exceeds it, and fuzz inputs cannot make us
	// allocate gigabytes.
	maxSummaryEntries = 1 << 20
)

// EncodeSummary serialises a segment summary.
func EncodeSummary(m *segMeta) []byte { return encodeSummary(m.Seq, m.Rows, m.LBAs) }

// encodeSummary serialises a summary's fields; the tests also encode LBAs
// no segment can hold.
func encodeSummary[L uint32 | int64](seq uint64, rows int64, lbas []L) []byte {
	buf := make([]byte, 0, 5+3*binary.MaxVarintLen64+len(lbas)*2+4)
	buf = append(buf, summaryMagic[:]...)
	buf = append(buf, summaryVersion)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(rows))
	buf = binary.AppendUvarint(buf, uint64(len(lbas)))
	prev := int64(0)
	for _, lba := range lbas {
		buf = binary.AppendVarint(buf, int64(lba)-prev)
		prev = int64(lba)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	return append(buf, crc[:]...)
}

// DecodeSummary parses an encoded segment summary, rejecting truncated,
// corrupt, or absurd inputs with ErrBadSummary.
func DecodeSummary(b []byte) (segMeta, error) {
	var m segMeta
	if len(b) < 4+1+4 {
		return m, fmt.Errorf("%w: %d bytes", ErrBadSummary, len(b))
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return m, fmt.Errorf("%w: crc mismatch", ErrBadSummary)
	}
	if [4]byte(body[:4]) != summaryMagic {
		return m, fmt.Errorf("%w: magic %q", ErrBadSummary, body[:4])
	}
	if body[4] != summaryVersion {
		return m, fmt.Errorf("%w: version %d", ErrBadSummary, body[4])
	}
	rest := body[5:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: truncated seq", ErrBadSummary)
	}
	rest = rest[n:]
	rows, n := binary.Uvarint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: truncated rows", ErrBadSummary)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: truncated count", ErrBadSummary)
	}
	rest = rest[n:]
	if count > maxSummaryEntries {
		return m, fmt.Errorf("%w: %d entries", ErrBadSummary, count)
	}
	if rows > count {
		return m, fmt.Errorf("%w: %d rows but %d entries", ErrBadSummary, rows, count)
	}
	if rows > 0 && count%rows != 0 {
		return m, fmt.Errorf("%w: %d entries not a multiple of %d rows", ErrBadSummary, count, rows)
	}
	if rows == 0 && count != 0 {
		return m, fmt.Errorf("%w: %d entries with no rows", ErrBadSummary, count)
	}
	lbas := make([]uint32, 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(rest)
		if n <= 0 {
			return m, fmt.Errorf("%w: truncated lba %d", ErrBadSummary, i)
		}
		rest = rest[n:]
		lba := prev + d
		if lba < 0 || lba > math.MaxUint32 {
			return m, fmt.Errorf("%w: lba %d outside [0, 2^32)", ErrBadSummary, lba)
		}
		lbas = append(lbas, uint32(lba))
		prev = lba
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadSummary, len(rest))
	}
	m.Seq = seq
	m.Rows = int64(rows)
	m.LBAs = lbas
	return m, nil
}
