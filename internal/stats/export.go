package stats

import (
	"fmt"
	"io"
	"strings"
)

// Export helper: the harness prints figures as text tables; WriteCSV
// renders the same series as CSV for external plotting tools.

// WriteCSV renders labelled series as CSV with one row per x value:
// header "x,<label1>,<label2>,..." followed by data rows. Series are
// aligned by index; missing points render empty.
func WriteCSV(w io.Writer, xName string, series []Series) error {
	if len(series) == 0 {
		_, err := fmt.Fprintln(w, xName)
		return err
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, csvEscape(xName))
	for _, s := range series {
		cols = append(cols, csvEscape(s.Label))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	n := 0
	for _, s := range series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(series)+1)
		x := ""
		for _, s := range series {
			if i < len(s.X) {
				x = fmt.Sprintf("%g", s.X[i])
				break
			}
		}
		row = append(row, x)
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field when it contains separators or quotes.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
