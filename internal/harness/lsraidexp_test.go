package harness

import (
	"fmt"
	"strings"
	"testing"
)

// TestLSRaidCompareSweep runs the backend head-to-head at a small scale
// and checks the structural claims the experiment exists to make: both
// arms complete, the log-structured arm actually pays GC (the log must
// wrap), and the parity arm pays more member writes per user write. It
// also pins what the collector's I/O schedule must not move — the pages
// copied, the segments reclaimed and the write amplification at this
// scale — and the tail target the schedule exists to meet: the log's p99
// below the parity arm's.
func TestLSRaidCompareSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("head-to-head sweep is slow")
	}
	// 0.004 is the smallest scale whose write volume wraps the log and
	// forces the lsraid arm into steady-state GC.
	res, err := LSRaidCompareSweep(Env{Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	if res.KddMeanMs <= 0 || res.LsMeanMs <= 0 || res.KddP99Ms <= 0 || res.LsP99Ms <= 0 {
		t.Fatalf("degenerate latencies: %+v", res)
	}
	if res.LsGCSegs == 0 || res.LsGCCopies == 0 {
		t.Fatalf("log never wrapped — GC cost unmeasured: %+v", res)
	}
	if res.LsGCCopies != 171 || res.LsGCSegs != 23 || fmt.Sprintf("%.3f", res.LsWriteAmp) != "0.932" {
		t.Fatalf("lsraid GC moved: %d copies over %d segments at write amp %.3f, want 171 over 23 at 0.932",
			res.LsGCCopies, res.LsGCSegs, res.LsWriteAmp)
	}
	if res.LsP99Ms >= res.KddP99Ms {
		t.Fatalf("lsraid p99 %.3f ms is not below kdd's %.3f ms", res.LsP99Ms, res.KddP99Ms)
	}
	if res.KddWriteAmp <= res.LsWriteAmp {
		t.Fatalf("parity arm should amplify more than the log arm: kdd=%.3f lsraid=%.3f",
			res.KddWriteAmp, res.LsWriteAmp)
	}
	if !strings.Contains(res.Table, "kdd") || !strings.Contains(res.Table, "lsraid") {
		t.Fatalf("table missing arms:\n%s", res.Table)
	}
}
