package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"kddcache/internal/sim"
)

// Parser robustness: arbitrary byte soup must produce an error or a valid
// trace — never a panic, never a request with nonsensical geometry.
func TestParsersNeverPanicOnGarbage(t *testing.T) {
	parsers := map[string]func(string) (*Trace, error){
		"spc":     func(s string) (*Trace, error) { return ParseSPC("g", strings.NewReader(s)) },
		"msr":     func(s string) (*Trace, error) { return ParseMSR("g", strings.NewReader(s)) },
		"uniform": func(s string) (*Trace, error) { return ParseUniform("g", strings.NewReader(s)) },
	}
	for name, parse := range parsers {
		f := func(raw []byte) bool {
			tr, err := parse(string(raw))
			if err != nil {
				return true
			}
			for _, r := range tr.Requests {
				if r.Pages < 1 || r.LBA < 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Near-valid inputs: single corrupted fields must be rejected cleanly.
func TestParsersRejectFieldCorruption(t *testing.T) {
	base := "0,20941264,8192,W,0.551706"
	fields := strings.Split(base, ",")
	for i := range fields {
		mutated := make([]string, len(fields))
		copy(mutated, fields)
		mutated[i] = "\x00\xff!"
		line := strings.Join(mutated, ",")
		if _, err := ParseSPC("m", strings.NewReader(line)); err == nil && i != 0 {
			// Field 0 (ASU) is ignored by the parser, so corruption there
			// is legitimately accepted.
			t.Errorf("spc accepted corrupted field %d: %q", i, line)
		}
	}
}

// Mixed valid and blank/comment lines parse to exactly the valid ones.
func TestParsersSkipNoise(t *testing.T) {
	in := "\n# c\n1,W,5,1\n\n# d\n2,R,6,2\n"
	tr, err := ParseUniform("n", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("parsed %d requests", len(tr.Requests))
	}
}

// Round-trip property: WriteUniform∘ParseUniform is the identity on valid
// traces (microsecond-granular timestamps).
func TestUniformRoundTripProperty(t *testing.T) {
	f := func(times []uint32, lbas []uint16) bool {
		n := len(times)
		if len(lbas) < n {
			n = len(lbas)
		}
		tr := &Trace{Name: "p"}
		for i := 0; i < n; i++ {
			op := Read
			if lbas[i]%2 == 0 {
				op = Write
			}
			tr.Requests = append(tr.Requests, Request{
				Time:  sim2us(int64(times[i])),
				Op:    op,
				LBA:   int64(lbas[i]),
				Pages: 1 + int32(lbas[i]%5),
			})
		}
		var b strings.Builder
		if err := WriteUniform(&b, tr); err != nil {
			return false
		}
		got, err := ParseUniform("p", strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		if len(got.Requests) != len(tr.Requests) {
			return false
		}
		for i := range got.Requests {
			if got.Requests[i] != tr.Requests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sim2us builds a microsecond-aligned timestamp (the uniform format's
// resolution).
func sim2us(us int64) sim.Time { return sim.Time(us) * sim.Microsecond }
