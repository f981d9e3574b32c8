package obs

import (
	"bytes"
	"strings"
	"testing"

	"kddcache/internal/sim"
)

func TestAppendRecordShape(t *testing.T) {
	cases := []struct {
		r    Record
		want string
	}{
		{
			Record{ID: 1, Parent: 0, Req: 1, Phase: PhaseRead, LBA: 42, N: 1, Begin: 1000, End: 2000},
			`{"id":1,"par":0,"req":1,"ph":"read","lba":42,"n":1,"b":1000,"e":2000}`,
		},
		{
			Record{ID: 7, Parent: 5, Req: 5, Phase: PhaseDevWrite, Dev: "ssd", LBA: -1, Begin: 0, End: 0},
			`{"id":7,"par":5,"req":5,"ph":"dev_write","dev":"ssd","b":0,"e":0}`,
		},
		{
			Record{ID: 2, Parent: 1, Req: 1, Phase: PhaseCleanPass, LBA: -1, Begin: 5, End: 9},
			`{"id":2,"par":1,"req":1,"ph":"clean_pass","b":5,"e":9}`,
		},
	}
	for _, c := range cases {
		got := string(AppendRecord(nil, &c.r))
		if got != c.want {
			t.Errorf("encode mismatch:\n got %s\nwant %s", got, c.want)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: 1, Req: 1, Phase: PhaseWrite, LBA: 9, N: 1, Begin: 10, End: 20},
		{ID: 2, Parent: 1, Req: 1, Phase: PhaseDevWrite, Dev: "hdd0", LBA: 4, N: 2, Begin: 10, End: 15},
		{ID: 3, Parent: 1, Req: 1, Phase: PhaseMetaAppend, LBA: -1, Begin: 15, End: 20},
	}
	for _, r := range recs {
		line := AppendRecord(nil, &r)
		got, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		if got != r {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
		// Re-encoding the decoded record must reproduce the bytes.
		if again := AppendRecord(nil, &got); !bytes.Equal(again, line) {
			t.Fatalf("re-encode mismatch: %s vs %s", again, line)
		}
	}
}

func TestDecodeHostileInputs(t *testing.T) {
	bad := map[string]string{
		"not json":          `hello`,
		"empty object":      `{}`,
		"zero id":           `{"id":0,"par":0,"req":1,"ph":"read","b":0,"e":1}`,
		"self parent":       `{"id":3,"par":3,"req":3,"ph":"read","b":0,"e":1}`,
		"zero req":          `{"id":3,"par":0,"req":0,"ph":"read","b":0,"e":1}`,
		"unknown phase":     `{"id":1,"par":0,"req":1,"ph":"teleport","b":0,"e":1}`,
		"phase none":        `{"id":1,"par":0,"req":1,"ph":"none","b":0,"e":1}`,
		"end before begin":  `{"id":1,"par":0,"req":1,"ph":"read","b":10,"e":9}`,
		"negative begin":    `{"id":1,"par":0,"req":1,"ph":"read","b":-1,"e":1}`,
		"negative lba":      `{"id":1,"par":0,"req":1,"ph":"read","lba":-4,"b":0,"e":1}`,
		"negative n":        `{"id":1,"par":0,"req":1,"ph":"read","n":-1,"b":0,"e":1}`,
		"huge n":            `{"id":1,"par":0,"req":1,"ph":"read","n":1073741825,"b":0,"e":1}`,
		"unknown field":     `{"id":1,"par":0,"req":1,"ph":"read","b":0,"e":1,"x":2}`,
		"trailing garbage":  `{"id":1,"par":0,"req":1,"ph":"read","b":0,"e":1}{"id":2}`,
		"long device":       `{"id":1,"par":0,"req":1,"ph":"dev_read","dev":"` + strings.Repeat("d", 65) + `","b":0,"e":1}`,
		"float id":          `{"id":1.5,"par":0,"req":1,"ph":"read","b":0,"e":1}`,
		"array":             `[1,2,3]`,
		"string timestamps": `{"id":1,"par":0,"req":1,"ph":"read","b":"0","e":"1"}`,
	}
	for name, line := range bad {
		if _, err := DecodeRecord([]byte(line)); err == nil {
			t.Errorf("%s: decode accepted %s", name, line)
		}
	}
}

func TestReadTrace(t *testing.T) {
	in := `{"id":1,"par":0,"req":1,"ph":"read","b":0,"e":5}

{"id":2,"par":1,"req":1,"ph":"daz_read","b":0,"e":3}
`
	recs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Phase != PhaseDAZRead {
		t.Fatalf("got %+v", recs)
	}
	if _, err := ReadTrace(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("want error on malformed line")
	}
}

func TestDigestMatchesBytes(t *testing.T) {
	run := func(lba0 int64) (*Digest, []byte) {
		o := New()
		for i := 0; i < 5; i++ {
			sp := o.Tracer.BeginLBA(sim.Time(i*10), PhaseWrite, lba0+int64(i))
			sp.End(sim.Time(i*10 + 5))
		}
		d := NewDigest()
		o.Ring().Trees(d.Tree)
		return d, o.TraceJSONL()
	}
	d1, b1 := run(0)
	d2, b2 := run(0)
	if !bytes.Equal(b1, b2) {
		t.Fatal("trace bytes not deterministic")
	}
	if d1.Sum64() != d2.Sum64() || d1.Spans() != d2.Spans() || d1.Spans() != 5 {
		t.Fatal("digest not deterministic")
	}
	// The digest is FNV-1a over exactly the exported JSONL bytes.
	h := uint64(fnvOffset)
	for _, c := range b1 {
		h ^= uint64(c)
		h *= fnvPrime
	}
	if d1.Sum64() != h {
		t.Fatalf("digest %#x is not the FNV-1a of the trace bytes (%#x)", d1.Sum64(), h)
	}
	// The digest must change when the trace does.
	if d3, _ := run(99); d3.Sum64() == d1.Sum64() {
		t.Fatal("different traces produced the same digest")
	}
}
