package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"kddcache/internal/sim"
)

// The JSONL trace format: one span per line, fields in fixed order so
// equal traces are equal bytes.
//
//	{"id":7,"par":5,"req":5,"ph":"daz_read","lba":42,"n":1,"b":1000,"e":2000}
//
// "dev" appears only on device spans, "lba" only when >= 0, "n" only
// when > 0. "b"/"e" are virtual nanoseconds.

// AppendRecord appends the canonical JSONL encoding of r (without the
// trailing newline) to b and returns the extended slice.
func AppendRecord(b []byte, r *Record) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"par":`...)
	b = strconv.AppendUint(b, r.Parent, 10)
	b = append(b, `,"req":`...)
	b = strconv.AppendUint(b, r.Req, 10)
	b = append(b, `,"ph":"`...)
	b = append(b, r.Phase.String()...)
	b = append(b, '"')
	if r.Dev != "" {
		b = append(b, `,"dev":"`...)
		b = appendEscaped(b, r.Dev)
		b = append(b, '"')
	}
	if r.LBA >= 0 {
		b = append(b, `,"lba":`...)
		b = strconv.AppendInt(b, r.LBA, 10)
	}
	if r.N > 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(r.N), 10)
	}
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.Begin), 10)
	b = append(b, `,"e":`...)
	b = strconv.AppendInt(b, int64(r.End), 10)
	b = append(b, '}')
	return b
}

func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// recJSON is the decode shape; pointers distinguish absent from zero.
type recJSON struct {
	ID  uint64 `json:"id"`
	Par uint64 `json:"par"`
	Req uint64 `json:"req"`
	Ph  string `json:"ph"`
	Dev string `json:"dev"`
	LBA *int64 `json:"lba"`
	N   int64  `json:"n"`
	B   int64  `json:"b"`
	E   int64  `json:"e"`
}

const (
	maxDevLen   = 64
	maxPageSpan = 1 << 30
)

// DecodeRecord parses one JSONL trace line. It rejects unknown fields,
// trailing garbage, and any structurally impossible span, so it is safe
// to point at hostile input.
func DecodeRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var a recJSON
	if err := dec.Decode(&a); err != nil {
		return Record{}, fmt.Errorf("obs: bad trace line: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, fmt.Errorf("obs: trailing data after trace record")
	}
	ph, err := ParsePhase(a.Ph)
	if err != nil {
		return Record{}, err
	}
	r := Record{
		ID: a.ID, Parent: a.Par, Req: a.Req, Phase: ph, Dev: a.Dev,
		LBA: -1, N: int(a.N), Begin: sim.Time(a.B), End: sim.Time(a.E),
	}
	if a.LBA != nil {
		r.LBA = *a.LBA
	}
	switch {
	case r.ID == 0:
		return Record{}, fmt.Errorf("obs: span id must be nonzero")
	case r.Parent == r.ID:
		return Record{}, fmt.Errorf("obs: span %d is its own parent", r.ID)
	case r.Req == 0:
		return Record{}, fmt.Errorf("obs: span %d has no request id", r.ID)
	case a.LBA != nil && *a.LBA < 0:
		return Record{}, fmt.Errorf("obs: span %d has negative lba", r.ID)
	case a.N < 0 || a.N > maxPageSpan:
		return Record{}, fmt.Errorf("obs: span %d has page count %d out of range", r.ID, a.N)
	case len(a.Dev) > maxDevLen:
		return Record{}, fmt.Errorf("obs: span %d device name too long (%d bytes)", r.ID, len(a.Dev))
	case a.B < 0:
		return Record{}, fmt.Errorf("obs: span %d begins before t=0", r.ID)
	case a.E < a.B:
		return Record{}, fmt.Errorf("obs: span %d ends before it begins", r.ID)
	}
	return r, nil
}

// ReadTrace decodes a whole JSONL trace stream. Blank lines are
// skipped; any malformed line aborts with its line number.
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest folds the canonical JSONL bytes of every span into an FNV-1a 64
// hash — a compact trace fingerprint for chaos tables where storing full
// traces would drown the output. Feed it a ring's trees with
// Ring.Trees(d.Tree).
type Digest struct {
	h   uint64
	n   uint64
	buf []byte
}

// NewDigest returns an empty trace digest.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

// Tree hashes one span tree.
func (d *Digest) Tree(spans []Record) {
	for i := range spans {
		d.buf = AppendRecord(d.buf[:0], &spans[i])
		d.buf = append(d.buf, '\n')
		for _, c := range d.buf {
			d.h ^= uint64(c)
			d.h *= fnvPrime
		}
		d.n++
	}
}

// Sum64 returns the digest over every span hashed so far.
func (d *Digest) Sum64() uint64 { return d.h }

// Spans returns how many spans have been hashed.
func (d *Digest) Spans() uint64 { return d.n }
