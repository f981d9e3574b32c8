package metalog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"kddcache/internal/blockdev"
)

// FuzzEntryDecode: decodeEntry on arbitrary bytes must reject cleanly or
// produce an entry whose re-encoding is byte-exact — the log's replay
// correctness rides on decode∘encode being the identity.
func FuzzEntryDecode(f *testing.F) {
	for _, e := range []Entry{
		{State: StateFree, DazPage: 7},
		{State: StateClean, DazPage: 7, RaidLBA: 99},
		{State: StateOld, DazPage: 7, RaidLBA: 99, DezPage: 3, DezOff: 512, DezLen: 128},
		{State: StateOld, DazPage: 7, RaidLBA: 99, DezPage: 3, DezOff: 0, DezLen: 4096, DezRaw: true},
	} {
		buf := make([]byte, OldEntrySize)
		n := e.encode(buf)
		f.Add(buf[:n])
	}
	f.Add([]byte{0})                // page terminator
	f.Add([]byte{0x80, 1, 2, 3, 4}) // raw flag with state bits zero
	f.Add([]byte{0x05, 1, 2, 3, 4}) // state out of range
	f.Fuzz(func(t *testing.T, b []byte) {
		e, n, ok := decodeEntry(b)
		if !ok {
			if n != 0 {
				t.Fatalf("rejected input consumed %d bytes", n)
			}
			return
		}
		if n < FreeEntrySize || n > OldEntrySize || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		if e.encSize() != n {
			t.Fatalf("encSize %d != consumed %d", e.encSize(), n)
		}
		out := make([]byte, OldEntrySize)
		m := e.encode(out)
		if m != n || !bytes.Equal(out[:m], b[:n]) {
			t.Fatalf("re-encode not byte-exact:\n in  %x\n out %x", b[:n], out[:m])
		}
	})
}

// FuzzPageDecode: decodePage on an arbitrary page image must either
// return ErrLogCorrupt or yield entries whose sequential re-encoding
// reproduces the page's used payload exactly.
func FuzzPageDecode(f *testing.F) {
	// A valid committed page with three entries.
	page := make([]byte, blockdev.PageSize)
	used := 0
	for _, e := range []Entry{
		{State: StateClean, DazPage: 1, RaidLBA: 10},
		{State: StateOld, DazPage: 2, RaidLBA: 20, DezPage: 5, DezOff: 100, DezLen: 50},
		{State: StateFree, DazPage: 3},
	} {
		used += e.encode(page[logPageHdrLen+used:])
	}
	binary.LittleEndian.PutUint16(page[0:], logPageMagic)
	binary.LittleEndian.PutUint16(page[2:], uint16(used))
	binary.LittleEndian.PutUint32(page[4:], crc32.ChecksumIEEE(page[logPageHdrLen:logPageHdrLen+used]))
	f.Add(page)
	// An empty committed page (zero used bytes, checksum of nothing).
	empty := make([]byte, blockdev.PageSize)
	binary.LittleEndian.PutUint16(empty[0:], logPageMagic)
	binary.LittleEndian.PutUint32(empty[4:], crc32.ChecksumIEEE(nil))
	f.Add(empty)
	f.Add(make([]byte, blockdev.PageSize)) // bad magic
	f.Fuzz(func(t *testing.T, b []byte) {
		page := make([]byte, blockdev.PageSize)
		copy(page, b)
		entries, err := decodePage(nil, page, 1, 42)
		if err != nil {
			return
		}
		used := int(binary.LittleEndian.Uint16(page[2:]))
		out := make([]byte, logPagePayload)
		off := 0
		for _, e := range entries {
			off += e.encode(out[off:])
		}
		if off != used || !bytes.Equal(out[:off], page[logPageHdrLen:logPageHdrLen+used]) {
			t.Fatalf("re-encoded payload diverges: %d bytes vs used %d", off, used)
		}
	})
}
