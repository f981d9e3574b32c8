package harness

import (
	"bytes"
	"reflect"
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/obs"
	"kddcache/internal/qos"
	"kddcache/internal/sim"
	"kddcache/internal/trace"
)

// qosTrace builds a two-tenant interleaved stream: tenant 0 ("big")
// trickles well inside its budget while tenant 1 ("small", 1 kIOPS,
// burst 1) floods a burst every millisecond — sustained overload that
// must walk small down the ladder while big never feels it.
func qosTrace() *trace.Trace {
	tr := &trace.Trace{Name: "qos-two-tenant"}
	for ms := int64(0); ms < 100; ms++ {
		at := sim.Time(ms) * sim.Millisecond
		if ms%5 == 0 {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: at, Op: trace.Write, LBA: 4096 + ms, Pages: 1, Tenant: 0,
			})
		}
		for i := int64(0); i < 20; i++ {
			op := trace.Write
			if i%3 == 0 {
				op = trace.Read
			}
			tr.Requests = append(tr.Requests, trace.Request{
				Time: at + sim.Time(i), Op: op, LBA: (ms*7 + i) % 512, Pages: 1, Tenant: 1,
			})
		}
	}
	return tr
}

func qosReplay(t *testing.T, deadline sim.Time) *QoSResult {
	t.Helper()
	st, err := Build(StackOpts{
		Policy: PolicyKDD, DeltaMean: 0.25,
		CachePages: 1024, DiskPages: 65536, Timing: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := qos.ParseTenants("big:10000:4,small:1000:1:1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := qos.NewController(qos.Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := RunTraceQoS(st, qosTrace(), ctl, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

// TestRunTraceQoS covers the controller-gated replay (the kddsim
// -tenants path): the flooding tenant is throttled, shed, and demoted
// to the bypass rung, the in-budget tenant sails through untouched, and
// the per-tenant tallies conserve the offered load.
func TestRunTraceQoS(t *testing.T) {
	qr := qosReplay(t, 2*sim.Millisecond)
	if len(qr.Tenants) != 2 {
		t.Fatalf("got %d tenants, want 2", len(qr.Tenants))
	}
	big, small := qr.Tenants[0], qr.Tenants[1]
	if big.Name != "big" || small.Name != "small" {
		t.Fatalf("tenant names %q/%q", big.Name, small.Name)
	}
	if big.Throttled != 0 || big.Shed != 0 || big.Bypassed != 0 {
		t.Fatalf("in-budget tenant was degraded: %+v", big.Counters)
	}
	if big.Admitted != big.Offered {
		t.Fatalf("in-budget tenant: admitted %d of %d offered", big.Admitted, big.Offered)
	}
	if small.Throttled == 0 {
		t.Error("flooding tenant never throttled")
	}
	if small.Shed == 0 {
		t.Error("flooding tenant never shed")
	}
	if small.Bypassed == 0 {
		t.Error("flooding tenant never reached the bypass rung")
	}
	for _, tn := range qr.Tenants {
		if got := tn.Admitted + tn.Bypassed + tn.Throttled + tn.Shed; got != tn.Offered {
			t.Errorf("%s: offered %d but verdicts sum to %d", tn.Name, tn.Offered, got)
		}
	}
	if qr.Run.Latency.Count() == 0 {
		t.Fatal("no served request was measured")
	}
	if small.Latency.Count() == 0 || big.Latency.Count() == 0 {
		t.Fatal("per-tenant latency histograms empty")
	}

	// Deterministic: the same replay yields the same tallies.
	again := qosReplay(t, 2*sim.Millisecond)
	for i := range qr.Tenants {
		if qr.Tenants[i].Counters != again.Tenants[i].Counters {
			t.Fatalf("replay not deterministic: %+v vs %+v",
				qr.Tenants[i].Counters, again.Tenants[i].Counters)
		}
	}
}

// TestRunTraceQoSDeadline proves deadline enforcement: with a tight
// deadline the throttle-retry loop gives up on requests whose hints
// land past it, and those rejections are tallied, not served. Without
// deadlines the same trace records none.
func TestRunTraceQoSDeadline(t *testing.T) {
	tight := qosReplay(t, 500*sim.Microsecond)
	if tight.Tenants[1].Deadline == 0 {
		t.Error("tight deadline never rejected a retry")
	}
	off := qosReplay(t, 0)
	if n := off.Tenants[1].Deadline; n != 0 {
		t.Errorf("deadlines disabled but %d recorded", n)
	}
}

// TestReplayNilControllerEqualsWideOpen: RunTrace is the gated replay
// with nobody at the gate. Against budgets nothing can exhaust the two
// entry points must agree on everything a run produces — the Result, the
// engine's StateDigest and every span of the trace.
func TestReplayNilControllerEqualsWideOpen(t *testing.T) {
	build := func() (*Stack, *obs.Obs) {
		ob := obs.New()
		st, err := Build(StackOpts{
			Policy: PolicyKDD, DeltaMean: 0.25,
			CachePages: 1024, DiskPages: 65536, Timing: true, Seed: 7, Obs: ob,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, ob
	}
	plainSt, plainOb := build()
	plain, err := RunTrace(plainSt, qosTrace())
	if err != nil {
		t.Fatal(err)
	}

	specs, err := qos.ParseTenants("big:1000000000:1,small:1000000000:1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := qos.NewController(qos.Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	gatedSt, gatedOb := build()
	gated, err := RunTraceQoS(gatedSt, qosTrace(), ctl, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range gated.Tenants {
		if tn.Admitted != tn.Offered || tn.Deadline != 0 {
			t.Fatalf("setup: %s was not wide open: %+v", tn.Name, tn.Counters)
		}
	}

	if !reflect.DeepEqual(plain, gated.Run) {
		t.Fatalf("results differ:\nRunTrace    %+v %+v\nRunTraceQoS %+v %+v",
			plain, plain.Cache, gated.Run, gated.Run.Cache)
	}
	if a, b := plainSt.Policy.(*core.KDD).StateDigest(), gatedSt.Policy.(*core.KDD).StateDigest(); a != b {
		t.Fatalf("state digests differ: %016x vs %016x", a, b)
	}
	if a, b := plainOb.TraceJSONL(), gatedOb.TraceJSONL(); len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("span traces differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunTraceQoSTracesVerdicts: a traced gated replay leaves one
// qos_throttle mark per throttle verdict and one qos_shed mark per shed
// verdict on the stack's tracer, and no span open or malformed.
func TestRunTraceQoSTracesVerdicts(t *testing.T) {
	ob := obs.New()
	st, err := Build(StackOpts{
		Policy: PolicyKDD, DeltaMean: 0.25,
		CachePages: 1024, DiskPages: 65536, Timing: true, Seed: 7, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := qos.ParseTenants("big:10000:4,small:1000:1:1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := qos.NewController(qos.Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := RunTraceQoS(st, qosTrace(), ctl, 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n := ob.Tracer.OpenSpans(); n != 0 {
		t.Fatalf("%d spans leaked open", n)
	}
	if err := ob.Tracer.Err(); err != nil {
		t.Fatalf("trace integrity: %v", err)
	}
	jsonl := ob.TraceJSONL()
	small := qr.Tenants[1]
	for _, c := range []struct {
		phase string
		want  int64
	}{
		{`"qos_throttle"`, small.Throttled},
		{`"qos_shed"`, small.Shed},
	} {
		if c.want == 0 {
			t.Fatalf("no %s verdict: the marks are not exercised", c.phase)
		}
		if got := int64(bytes.Count(jsonl, []byte(c.phase))); got != c.want {
			t.Errorf("%d %s spans, want one per verdict (%d)", got, c.phase, c.want)
		}
	}
}

// issueRecorder is a policy that records the time of every request the
// replay issues to it.
type issueRecorder struct {
	cache.Policy
	times []sim.Time
}

func (r *issueRecorder) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	r.times = append(r.times, t)
	return r.Policy.Read(t, lba, buf)
}

func (r *issueRecorder) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	r.times = append(r.times, t)
	return r.Policy.Write(t, lba, buf)
}

// TestReplayServesInTimeOrder: the replay is one event loop in virtual
// time, so a throttled request waits for its retry time among the other
// arrivals instead of being served at it while the loop is still at an
// earlier arrival. Two tenants alternate writes 1 ms apart; tenant b's
// 10 IOPS budget throttles most of its requests. The times the stack
// sees never decrease.
func TestReplayServesInTimeOrder(t *testing.T) {
	st, err := Build(StackOpts{Policy: PolicyWT, CachePages: 1024, DiskPages: 65536, Timing: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := &issueRecorder{Policy: st.Policy}
	st.Policy = rec
	tr := &trace.Trace{Name: "alternating"}
	for i := int64(0); i < 100; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: sim.Time(i) * sim.Millisecond, Op: trace.Write, LBA: 8 * i, Pages: 1, Tenant: uint16(i % 2),
		})
	}
	specs, err := qos.ParseTenants("a:1000000:1,b:10:1:1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := qos.NewController(qos.Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := RunTraceQoS(st, tr, ctl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Tenants[1].Throttled == 0 {
		t.Fatal("tenant b was never throttled: the retry path is not exercised")
	}
	late := 0
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] < rec.times[i-1] {
			late++
		}
	}
	if late != 0 {
		t.Fatalf("%d of %d requests issued before an earlier one", late, len(rec.times))
	}
}
