package qos

import (
	"errors"
	"strings"
	"testing"

	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// TestBucketConservation is the token-conservation property: over a
// randomized schedule of takes and idle gaps, granted ≤ rate·elapsed +
// burst holds at every virtual instant.
func TestBucketConservation(t *testing.T) {
	rng := sim.NewRNG(0x90571)
	for trial := 0; trial < 200; trial++ {
		rate := int64(1 + rng.Intn(5000))
		burst := int64(1 + rng.Intn(200))
		start := sim.Time(rng.Intn(1000)) * sim.Millisecond
		b := NewBucket(rate, burst, start)
		now := start
		for step := 0; step < 400; step++ {
			// Mix dense bursts (zero-gap arrivals) with long idle gaps.
			switch rng.Intn(4) {
			case 0:
			case 1:
				now += sim.Time(rng.Intn(int(sim.Millisecond)))
			case 2:
				now += sim.Time(rng.Intn(int(sim.Second)))
			case 3:
				now += sim.Time(rng.Intn(100)) * sim.Second
			}
			b.Take(now)
			if !b.Conserved(now) {
				t.Fatalf("trial %d: bucket rate=%d burst=%d granted %d over budget at %d",
					trial, rate, burst, b.Granted(), int64(now))
			}
		}
		// A full drain after a long idle period grants exactly burst.
		idle := now + 1000*sim.Second
		got := int64(0)
		for b.Take(idle) {
			got++
		}
		if got != burst {
			t.Fatalf("trial %d: full bucket drained %d tokens, want burst %d", trial, got, burst)
		}
	}
}

// TestBucketNext checks the refill horizon: Next returns the first
// instant a token exists, and Take at that instant succeeds.
func TestBucketNext(t *testing.T) {
	b := NewBucket(1000, 1, 0) // 1 token/ms, burst 1
	if !b.Take(0) {
		t.Fatal("full bucket refused its burst token")
	}
	if b.Take(0) {
		t.Fatal("empty bucket granted a token")
	}
	next := b.Next(0)
	if next <= 0 {
		t.Fatalf("refill horizon %d not in the future", int64(next))
	}
	if b.Take(next - 1) {
		t.Fatal("token granted before the refill horizon")
	}
	if !b.Take(next) {
		t.Fatalf("no token at the advertised horizon %d", int64(next))
	}
}

// TestAccessors covers the small introspection surface: verdict names,
// and controller-wide tenant count and conservation.
func TestAccessors(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictAdmit: "admit", VerdictBypass: "bypass",
		VerdictThrottle: "throttle", VerdictShed: "shed", Verdict(99): "verdict(99)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, got, want)
		}
	}

	ctl, err := NewController(Config{Tenants: []TenantSpec{
		{Name: "a", RateIOPS: 1000, Weight: 1, Burst: 4},
		{Name: "b", RateIOPS: 2000, Weight: 2, Burst: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Tenants() != 2 {
		t.Fatalf("Tenants() = %d, want 2", ctl.Tenants())
	}
	var last sim.Time
	for i := 0; i < 50; i++ {
		last = sim.Time(i) * 200 * sim.Microsecond
		ctl.admit(last, i%2)
	}
	if !ctl.Conserved(last) {
		t.Fatal("controller buckets violated conservation")
	}
}

func ctl(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLadderDemotesAndRecovers drives one tenant through the full
// ladder: sustained overload walks throttle → shed → bypass, and
// sustained in-budget traffic climbs back with slower hysteresis.
func TestLadderDemotesAndRecovers(t *testing.T) {
	win := sim.Millisecond
	c := ctl(t, Config{
		Tenants: []TenantSpec{{Name: "a", RateIOPS: 1000, Weight: 1, Burst: 1}},
		Window:  win,
	})
	// Flood: 10 requests per 1-token window, every window over-budget and
	// past the retry budget.
	now := sim.Time(0)
	var sawThrottle, sawShed, sawBypass bool
	for w := 0; w < 12; w++ {
		for i := 0; i < 10; i++ {
			d := c.admit(now+sim.Time(i), 0)
			switch d.Verdict {
			case VerdictThrottle:
				sawThrottle = true
				if d.RetryAfter <= now {
					t.Fatalf("throttle retry hint %d not in the future", int64(d.RetryAfter))
				}
			case VerdictShed:
				sawShed = true
			case VerdictBypass:
				sawBypass = true
			}
		}
		now += win
	}
	if !sawThrottle || !sawShed {
		t.Fatalf("flood saw throttle=%v shed=%v, want both", sawThrottle, sawShed)
	}
	if c.Rung(0) != RungBypass {
		t.Fatalf("after sustained flood rung = %d, want bypass (%d)", c.Rung(0), RungBypass)
	}
	if !sawBypass {
		t.Fatal("bypass rung never produced a bypass verdict for in-budget traffic")
	}
	// Recovery: in-budget traffic (1 request per window). promoteAfter
	// windows per rung, two rungs to climb.
	start := c.Rung(0)
	for w := 0; w < 2; w++ {
		c.admit(now, 0)
		now += win
	}
	if c.Rung(0) != start {
		t.Fatalf("promoted after only 2 clean windows (hysteresis %d)", promoteAfter)
	}
	for w := 0; w < 8; w++ {
		c.admit(now, 0)
		now += win
	}
	if c.Rung(0) != RungThrottle {
		t.Fatalf("after sustained in-budget traffic rung = %d, want throttle (%d)", c.Rung(0), RungThrottle)
	}
}

// TestLadderWeightOrdering: under identical overload the low-weight
// tenant demotes first — shed lowest priority first.
func TestLadderWeightOrdering(t *testing.T) {
	win := sim.Millisecond
	c := ctl(t, Config{
		Tenants: []TenantSpec{
			{Name: "gold", RateIOPS: 1000, Weight: 4, Burst: 1},
			{Name: "tin", RateIOPS: 1000, Weight: 1, Burst: 1},
		},
		Window: win,
	})
	now := sim.Time(0)
	demotedFirst := -1
	for w := 0; w < 20 && demotedFirst < 0; w++ {
		for i := 0; i < 8; i++ {
			c.admit(now+sim.Time(i), 0)
			c.admit(now+sim.Time(i), 1)
		}
		now += win
		c.roll(now)
		for tn := 0; tn < 2; tn++ {
			if c.Rung(tn) > RungThrottle {
				demotedFirst = tn
				break
			}
		}
	}
	if demotedFirst != 1 {
		t.Fatalf("tenant %d demoted first, want the low-weight tenant (1)", demotedFirst)
	}
	if c.Rung(0) != RungThrottle {
		t.Fatal("high-weight tenant demoted in the same window as the low-weight one")
	}
}

// TestRetryBudgetAndBackoff: throttle verdicts double their backoff and
// stop at the per-window budget, after which the excess sheds.
func TestRetryBudgetAndBackoff(t *testing.T) {
	c := ctl(t, Config{
		Tenants: []TenantSpec{{Name: "a", RateIOPS: 1, Weight: 1, Burst: 1}},
		Window:  sim.Second,
	})
	if d := c.admit(0, 0); d.Verdict != VerdictAdmit {
		t.Fatalf("burst token refused: %v", d.Verdict)
	}
	var hints []sim.Time
	for i := 0; i < retryBudget; i++ {
		d := c.admit(0, 0)
		if d.Verdict != VerdictThrottle {
			t.Fatalf("within retry budget got %v, want throttle", d.Verdict)
		}
		hints = append(hints, d.RetryAfter)
	}
	for i := 1; i < len(hints); i++ {
		if hints[i] <= hints[i-1] {
			t.Fatalf("backoff not increasing: %v", hints)
		}
	}
	// The backoff starts at backoffBase and is capped at backoffMax (the
	// bucket's own refill time is the same in every hint).
	if got := hints[len(hints)-1] - hints[0]; got != backoffMax-backoffBase {
		t.Fatalf("backoff spread %d, want %d", int64(got), int64(backoffMax-backoffBase))
	}
	if d := c.admit(0, 0); d.Verdict != VerdictShed {
		t.Fatalf("past retry budget got %v, want shed", d.Verdict)
	}
	cs := c.Snapshot()[0]
	if cs.Offered != cs.Admitted+cs.Bypassed+cs.Throttled+cs.Shed {
		t.Fatalf("counter conservation broken: %+v", cs)
	}
}

// TestControllerDeterminism: two controllers fed the identical stream
// make identical decisions.
func TestControllerDeterminism(t *testing.T) {
	mk := func() *Controller {
		return ctl(t, Config{Tenants: []TenantSpec{
			{Name: "a", RateIOPS: 500, Weight: 2, Burst: 8},
			{Name: "b", RateIOPS: 100, Weight: 1, Burst: 2},
		}})
	}
	a, b := mk(), mk()
	rng := sim.NewRNG(77)
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now += sim.Time(rng.Intn(int(sim.Millisecond)))
		tn := rng.Intn(2)
		da, db := a.admit(now, tn), b.admit(now, tn)
		if da != db {
			t.Fatalf("op %d: decisions diverge: %+v vs %+v", i, da, db)
		}
	}
	if a.Snapshot()[0] != b.Snapshot()[0] || a.Snapshot()[1] != b.Snapshot()[1] {
		t.Fatal("counters diverge on identical streams")
	}
}

// TestRejectErrors: typed errors match their sentinels and name the
// tenant.
func TestRejectErrors(t *testing.T) {
	c := ctl(t, Config{Tenants: []TenantSpec{{Name: "a", RateIOPS: 1, Weight: 1, Burst: 1}}})
	c.admit(0, 0) // burst token
	_, err := c.Gate(0, 0, 0)
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("throttle error %v does not match ErrThrottled", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatal("throttle error matches ErrShed")
	}
	if !strings.Contains(err.Error(), "a") {
		t.Fatalf("rejection %q does not name the tenant", err)
	}
}

// TestUnknownTenantAdmitted: untagged traffic is never throttled.
func TestUnknownTenantAdmitted(t *testing.T) {
	c := ctl(t, Config{Tenants: []TenantSpec{{Name: "a", RateIOPS: 1, Weight: 1, Burst: 1}}})
	for i := 0; i < 100; i++ {
		if d := c.admit(0, -1); d.Verdict != VerdictAdmit {
			t.Fatalf("unknown tenant got %v", d.Verdict)
		}
		if d := c.admit(0, 7); d.Verdict != VerdictAdmit {
			t.Fatalf("out-of-range tenant got %v", d.Verdict)
		}
	}
}

// TestParseTenants covers the accept and reject sides of the spec
// grammar.
func TestParseTenants(t *testing.T) {
	specs, err := ParseTenants("a:100:2,b:50:1:7")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0] != (TenantSpec{Name: "a", RateIOPS: 100, Weight: 2, Burst: 10}) {
		t.Fatalf("spec a: %+v", specs[0])
	}
	if specs[1] != (TenantSpec{Name: "b", RateIOPS: 50, Weight: 1, Burst: 7}) {
		t.Fatalf("spec b: %+v", specs[1])
	}
	bad := []string{
		"", "a", "a:100", "a:100:2:3:4", ":100:2", "a:0:1", "a:-5:1",
		"a:100:0", "a:100:2:0", "a:100:2,a:50:1", "a:9223372036854775807:1",
		"a:1e3:1", "bad name:100:1", "a:100:1,", strings.Repeat("x", 40) + ":1:1",
	}
	for _, s := range bad {
		if _, err := ParseTenants(s); err == nil {
			t.Fatalf("spec %q parsed, want error", s)
		}
	}
}

// TestPublish: the registry exposition is valid and carries the
// per-tenant series.
func TestPublish(t *testing.T) {
	c := ctl(t, Config{Tenants: []TenantSpec{{Name: "a", RateIOPS: 1, Weight: 1, Burst: 1}}})
	c.admit(0, 0)
	c.admit(0, 0)
	c.Gate(2, 0, 1) //nolint:errcheck // a past-deadline request, for the tally
	reg := obs.NewRegistry()
	c.Publish(reg)
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Counter(`qos_admitted_total{tenant="a"}`); !ok || v != 1 {
		t.Fatalf("admitted counter: %d ok=%v", v, ok)
	}
	if v, ok := reg.Counter(`qos_throttled_total{tenant="a"}`); !ok || v != 1 {
		t.Fatalf("throttled counter: %d ok=%v", v, ok)
	}
	if v, ok := reg.Counter(`qos_deadline_total{tenant="a"}`); !ok || v != 1 {
		t.Fatalf("deadline counter: %d ok=%v", v, ok)
	}
}

// TestGate pins the one admission boundary: a nil controller admits
// everything but still enforces deadlines, the deadline is checked
// before the buckets (a past-deadline request consumes no token and is
// not Offered), unknown tenants are admitted untallied, and every
// rejecting verdict comes back as its typed error.
func TestGate(t *testing.T) {
	var none *Controller
	if d, err := none.Gate(100, 3, 0); err != nil || d.Verdict != VerdictAdmit {
		t.Fatalf("nil controller, no deadline: %v, %v", d.Verdict, err)
	}
	if d, err := none.Gate(100, 3, 100); err != nil || d.Verdict != VerdictAdmit {
		t.Fatalf("nil controller, deadline not yet passed: %v, %v", d.Verdict, err)
	}
	if _, err := none.Gate(101, 3, 100); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("nil controller, past deadline: %v, want ErrDeadlineExceeded", err)
	}

	// One token, no refill to speak of: the first request takes it.
	c := ctl(t, Config{Tenants: []TenantSpec{{Name: "a", RateIOPS: 1, Weight: 1, Burst: 1}}})
	if _, err := c.Gate(5, 0, 4); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("past deadline: %v, want ErrDeadlineExceeded", err)
	}
	if got := c.Snapshot()[0]; got != (Counters{Deadline: 1}) {
		t.Fatalf("past-deadline request touched the buckets: %+v", got)
	}
	if d, err := c.Gate(5, 0, 5); err != nil || d.Verdict != VerdictAdmit {
		t.Fatalf("the token the deadline reject must not have spent: %v, %v", d.Verdict, err)
	}
	for i := 0; i < retryBudget; i++ {
		d, err := c.Gate(5, 0, 0)
		var rej *Reject
		if !errors.Is(err, ErrThrottled) || !errors.As(err, &rej) || rej.Tenant != "a" ||
			d.Verdict != VerdictThrottle || d.RetryAfter <= 5 || rej.RetryAfter != d.RetryAfter {
			t.Fatalf("over budget inside the retry allowance: %+v, %v", d, err)
		}
	}
	if d, err := c.Gate(5, 0, 0); !errors.Is(err, ErrShed) || errors.Is(err, ErrThrottled) || d.Verdict != VerdictShed {
		t.Fatalf("over budget past the retry allowance: %+v, %v", d, err)
	}
	if got, want := c.Snapshot()[0], (Counters{Offered: 2 + retryBudget, Admitted: 1, Throttled: retryBudget, Shed: 1, Deadline: 1}); got != want {
		t.Fatalf("tallies %+v, want %+v", got, want)
	}

	for _, tenant := range []int{-1, 7} {
		if d, err := c.Gate(5, tenant, 0); err != nil || d.Verdict != VerdictAdmit {
			t.Fatalf("unknown tenant %d: %v, %v", tenant, d.Verdict, err)
		}
		if _, err := c.Gate(5, tenant, 4); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("unknown tenant %d past deadline: %v", tenant, err)
		}
	}

	// A demoted tenant's in-budget request is served around the cache:
	// bypass verdict, no error.
	b := ctl(t, Config{Tenants: []TenantSpec{{Name: "b", RateIOPS: 1000, Weight: 1, Burst: 1}}})
	b.ts[0].rung = RungBypass
	if d, err := b.Gate(0, 0, 0); err != nil || d.Verdict != VerdictBypass {
		t.Fatalf("bypass rung: %v, %v", d.Verdict, err)
	}
}
