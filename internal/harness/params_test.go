package harness

import (
	"strings"
	"testing"
)

// TestParameterSweeps smoke-runs the §IV-A1 knob sweeps at a tiny scale:
// every sweep point must simulate cleanly and emit one table row.
func TestParameterSweeps(t *testing.T) {
	cases := []struct {
		name string
		run  func(Env) (Output, error)
		rows []string
	}{
		{"associativity", AblationAssociativity, []string{"32", "64", "256", "1024"}},
		{"staging", AblationStaging, []string{"== Parameter sweep"}},
	}
	for _, c := range cases {
		out, err := c.run(Env{Scale: 0.004})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, want := range c.rows {
			if !strings.Contains(out.Text, want) {
				t.Fatalf("%s: output missing %q:\n%s", c.name, want, out.Text)
			}
		}
	}
}
