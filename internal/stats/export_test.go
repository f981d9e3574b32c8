package stats

import (
	"bytes"
	"strings"
	"testing"
)

func sampleSeries() []Series {
	return []Series{
		{Label: "WT", X: []float64{1, 2}, Y: []float64{0.5, 0.6}},
		{Label: "KDD,25%", X: []float64{1, 2}, Y: []float64{0.45, 0.55}},
		{Label: "short", X: []float64{1}, Y: []float64{0.4}},
	}
}

func TestWriteCSV(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCSV(&b, "cache", sampleSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if lines[0] != `cache,WT,"KDD,25%",short` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,0.5,0.45,0.4" {
		t.Fatalf("row1 = %q", lines[1])
	}
	if lines[2] != "2,0.6,0.55," {
		t.Fatalf("row2 = %q (short series should leave a blank)", lines[2])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCSV(&b, "x", nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "x" {
		t.Fatalf("empty csv = %q", b.String())
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain escaped")
	}
	if csvEscape(`with"quote`) != `"with""quote"` {
		t.Fatalf("quote escape: %q", csvEscape(`with"quote`))
	}
}
