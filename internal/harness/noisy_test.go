package harness

import (
	"strings"
	"testing"

	"kddcache/internal/qos"
)

// TestNoisyNeighborIsolation is the tentpole acceptance test: with the
// QoS layer on, one tenant flooding at 10x its budget moves the
// victims' p99 by at most nnGate (2x) over their aggressor-free baseline, while
// the aggressor itself is throttled, shed, and walked down the ladder
// to the bypass rung. The unprotected arm must be strictly worse — that
// is the interference being prevented.
func TestNoisyNeighborIsolation(t *testing.T) {
	res, err := NoisyNeighborSweep(Env{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimP99Ratio <= 0 {
		t.Fatalf("victim p99 ratio %v; isolated baseline missing", res.VictimP99Ratio)
	}
	if res.VictimP99Ratio > nnGate {
		t.Errorf("victim p99 ratio %.2fx exceeds the %gx isolation gate", res.VictimP99Ratio, nnGate)
	}
	if res.UnprotectedRatio <= res.VictimP99Ratio {
		t.Errorf("unprotected ratio %.2fx not worse than protected %.2fx; QoS bought nothing",
			res.UnprotectedRatio, res.VictimP99Ratio)
	}
	if res.AggThrottled == 0 {
		t.Error("aggressor never throttled")
	}
	if res.AggShed == 0 {
		t.Error("aggressor never shed")
	}
	if res.AggDeadline == 0 {
		t.Error("no aggressor retry ever died on its deadline")
	}
	if res.AggRung != qos.RungBypass {
		t.Errorf("aggressor finished on rung %d, want bypass (%d)", res.AggRung, qos.RungBypass)
	}
	for _, want := range []string{"victim-a", "aggressor", "isolated", "unprotected"} {
		if !strings.Contains(res.Table, want) {
			t.Errorf("table missing %q:\n%s", want, res.Table)
		}
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series, want one per tenant", len(res.Series))
	}
}

// TestDeterministicNoisyAcrossParallelism proves the experiment's
// rendered output is byte-identical at any worker-pool width: the QoS
// gate, the replay loop and the timing stack are all virtual-time
// deterministic.
func TestDeterministicNoisyAcrossParallelism(t *testing.T) {
	t.Parallel()
	serial, err := NoisyNeighbor(Env{Scale: 0.02, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Series) == 0 {
		t.Fatal("registry entry point dropped the tenant series")
	}
	for _, par := range []int{4, 16} {
		got, err := NoisyNeighborSweep(Env{Scale: 0.02, Parallel: par})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if got.Table != serial.Text {
			t.Fatalf("noisy-neighbor output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				par, serial.Text, got.Table)
		}
	}
}

// TestNoisyNeighborGolden pins the rendered table byte for byte, so a
// change to the stack it drives, the replay loop or the QoS controller
// shows up as a diff of testdata/noisy.golden (regenerate with -update
// after an intended change and say which rows moved).
func TestNoisyNeighborGolden(t *testing.T) {
	out, err := NoisyNeighbor(Env{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "noisy.golden", []byte(out.Text))
}

// TestNoisyNeighborLSRaid runs the experiment on the log-structured
// backend, where a cold read costs no seek, so the aggressor's flood
// does not load the members: the unprotected arm shows no interference,
// and the table reports the measured ratios instead of an isolation
// verdict it has nothing to rest on.
func TestNoisyNeighborLSRaid(t *testing.T) {
	res, err := NoisyNeighborSweep(Env{Scale: 0.02, Backend: "lsraid"})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnprotectedRatio > nnGate {
		t.Fatalf("unprotected ratio %.2fx on lsraid; this test expects no interference", res.UnprotectedRatio)
	}
	if strings.Contains(res.Table, "QoS on  =") || !strings.Contains(res.Table, "does not load this backend's members") {
		t.Errorf("table states an isolation verdict without interference:\n%s", res.Table)
	}
	if res.AggThrottled == 0 || res.AggShed == 0 {
		t.Errorf("aggressor throttled %d, shed %d: the controller did not act", res.AggThrottled, res.AggShed)
	}
}
