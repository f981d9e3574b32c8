package qos

import (
	"fmt"

	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Rungs of the degradation ladder. A tenant's rung decides what happens
// to its traffic; demotion is per-tenant, so one flooding tenant slides
// down the ladder while in-SLO tenants stay at the top.
const (
	// RungThrottle (the top): over-budget requests are throttled with a
	// retry hint, up to the per-window retry budget; the excess is shed.
	RungThrottle = 0

	// RungShed: sustained overload exhausted the tenant's patience —
	// over-budget requests are shed outright, no retry advice.
	RungShed = 1

	// RungBypass (the bottom): cache admission is suspended. In-budget
	// requests are still served, but around the cache (reads pass
	// through to the array, writes go write-through), so the flooding
	// tenant cannot pollute the shared cache; over-budget requests shed.
	RungBypass = 2
)

// The ladder's hysteresis and retry pacing.
const (
	// demoteAfter scales the demotion threshold: a tenant drops one rung
	// after demoteAfter × Weight consecutive over-budget windows. The
	// weight factor makes the lowest-priority tenant demote first — that
	// is the "shed lowest-priority load first" ordering under shared
	// overload.
	demoteAfter = 2

	// promoteAfter is the recovery hysteresis: consecutive fully
	// in-budget windows required to climb one rung (recovery is
	// deliberately slower than demotion).
	promoteAfter = 4

	// retryBudget caps throttle verdicts (retry advisories) per tenant
	// per window; past it, over-budget requests shed.
	retryBudget = 8

	// backoffBase and backoffMax bound the doubling virtual-time backoff
	// added to RetryAfter hints.
	backoffBase = 100 * sim.Microsecond
	backoffMax  = 10 * sim.Millisecond
)

// Config parameterises a Controller. Zero fields select defaults.
type Config struct {
	Tenants []TenantSpec

	// Start anchors the buckets and the first accounting window.
	Start sim.Time

	// Window is the hysteresis accounting interval (default 5ms): rung
	// moves are decided once per window from that window's bucket
	// outcomes, never from a single request.
	Window sim.Time
}

// Counters is one tenant's admission tally. Offered = Admitted +
// Bypassed + Throttled + Shed (Gate rejects a past-deadline request
// before it is offered to the buckets, so Deadline is not part of
// Offered).
type Counters struct {
	Offered   int64
	Admitted  int64
	Bypassed  int64
	Throttled int64
	Shed      int64
	Deadline  int64
}

type tenantState struct {
	spec   TenantSpec
	bucket *Bucket
	rung   int

	strikes int // consecutive over-budget windows toward demotion
	clean   int // consecutive in-budget windows toward promotion

	winHits   int64 // bucket grants this window
	winMisses int64 // bucket refusals this window
	retries   int   // throttle verdicts issued this window

	backoff sim.Time
	c       Counters
}

// Controller is the per-tenant admission controller. It is not
// goroutine-safe by design: the replay loop consults it in virtual-time
// order on one goroutine, which is exactly what keeps its decisions
// independent of parallelism.
type Controller struct {
	cfg    Config
	ts     []tenantState
	winEnd sim.Time
}

// NewController builds a controller over the tenant set.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Window <= 0 {
		cfg.Window = 5 * sim.Millisecond
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("qos: controller needs at least one tenant")
	}
	c := &Controller{cfg: cfg, winEnd: cfg.Start + cfg.Window}
	c.ts = make([]tenantState, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		if spec.Weight < 1 {
			return nil, fmt.Errorf("qos: tenant %q weight must be >= 1", spec.Name)
		}
		c.ts[i] = tenantState{spec: spec, bucket: NewBucket(spec.RateIOPS, spec.Burst, cfg.Start)}
	}
	return c, nil
}

// Tenants returns the controller's tenant count.
func (c *Controller) Tenants() int { return len(c.ts) }

// Name returns tenant t's name ("?" when out of range).
func (c *Controller) Name(t int) string {
	if t < 0 || t >= len(c.ts) {
		return "?"
	}
	return c.ts[t].spec.Name
}

// Rung returns tenant t's current ladder rung.
func (c *Controller) Rung(t int) int { return c.ts[t].rung }

// roll closes every accounting window that ended at or before now and
// applies the ladder hysteresis from each window's bucket outcomes.
func (c *Controller) roll(now sim.Time) {
	for now >= c.winEnd {
		for i := range c.ts {
			t := &c.ts[i]
			switch {
			case t.winMisses > t.winHits:
				// Over-budget window: demand exceeded budget for the
				// majority of the window's requests.
				t.strikes++
				t.clean = 0
				if t.strikes >= demoteAfter*int(t.spec.Weight) && t.rung < RungBypass {
					t.rung++
					t.strikes = 0
				}
			case t.winMisses == 0:
				// Fully in-budget window (idle windows count: an absent
				// tenant is by definition in budget).
				t.clean++
				t.strikes = 0
				if t.clean >= promoteAfter && t.rung > RungThrottle {
					t.rung--
					t.clean = 0
				}
			default:
				// Mixed window: neither streak survives.
				t.strikes = 0
				t.clean = 0
			}
			t.winHits, t.winMisses, t.retries = 0, 0, 0
		}
		c.winEnd += c.cfg.Window
	}
}

// Gate is the one admission boundary every serving path runs a request
// through: deadline first (absolute virtual time; 0 means none), then
// the controller's verdict, then a typed rejection. A non-nil error
// means the request must not be served: ErrDeadlineExceeded (zero
// Decision), or a *Reject matching ErrThrottled — Decision.RetryAfter
// says when to come back — or ErrShed. With a nil error the verdict is
// Admit or Bypass (serve with cache admission suspended).
//
// A deadline is a property of the request, not of the controller, so a
// nil *Controller still enforces it; it admits everything else and
// tallies nothing. A past-deadline request never reaches the buckets: it
// consumes no token and is not counted as Offered.
func (c *Controller) Gate(at sim.Time, tenant int, deadline sim.Time) (Decision, error) {
	if deadline > 0 && at > deadline {
		if c != nil && tenant >= 0 && tenant < len(c.ts) {
			c.ts[tenant].c.Deadline++
		}
		return Decision{}, fmt.Errorf("qos: tenant %d: %w", tenant, ErrDeadlineExceeded)
	}
	if c == nil {
		return Decision{}, nil
	}
	d := c.admit(at, tenant)
	switch d.Verdict {
	case VerdictThrottle, VerdictShed:
		return d, &Reject{Tenant: c.Name(tenant), Verdict: d.Verdict, RetryAfter: d.RetryAfter}
	}
	return d, nil
}

// admit decides one request for tenant t arriving at now. Unknown
// tenant indices are admitted unlimited (the zero tenant of untagged
// traffic must never be throttled by accident).
func (c *Controller) admit(now sim.Time, tenant int) Decision {
	if tenant < 0 || tenant >= len(c.ts) {
		return Decision{Verdict: VerdictAdmit}
	}
	c.roll(now)
	t := &c.ts[tenant]
	t.c.Offered++
	if t.bucket.Take(now) {
		t.winHits++
		t.backoff = 0
		if t.rung >= RungBypass {
			t.c.Bypassed++
			return Decision{Verdict: VerdictBypass}
		}
		t.c.Admitted++
		return Decision{Verdict: VerdictAdmit}
	}
	t.winMisses++
	if t.rung == RungThrottle && t.retries < retryBudget {
		t.retries++
		if t.backoff == 0 {
			t.backoff = backoffBase
		} else if t.backoff < backoffMax {
			t.backoff *= 2
			if t.backoff > backoffMax {
				t.backoff = backoffMax
			}
		}
		t.c.Throttled++
		return Decision{Verdict: VerdictThrottle, RetryAfter: t.bucket.Next(now) + t.backoff}
	}
	t.c.Shed++
	return Decision{Verdict: VerdictShed}
}

// Snapshot returns every tenant's counters in tenant order.
func (c *Controller) Snapshot() []Counters {
	out := make([]Counters, len(c.ts))
	for i := range c.ts {
		out[i] = c.ts[i].c
	}
	return out
}

// Conserved checks every tenant bucket's conservation invariant at now.
func (c *Controller) Conserved(now sim.Time) bool {
	for i := range c.ts {
		if !c.ts[i].bucket.Conserved(now) {
			return false
		}
	}
	return true
}

// Publish writes the per-tenant admission tallies and ladder rungs into
// the metrics registry as labelled series.
func (c *Controller) Publish(reg *obs.Registry) {
	for i := range c.ts {
		t := &c.ts[i]
		l := fmt.Sprintf("{tenant=%q}", t.spec.Name)
		reg.SetCounter("qos_offered_total"+l, "requests offered per tenant", t.c.Offered)
		reg.SetCounter("qos_admitted_total"+l, "requests admitted to the cache per tenant", t.c.Admitted)
		reg.SetCounter("qos_bypassed_total"+l, "requests served around the cache per tenant", t.c.Bypassed)
		reg.SetCounter("qos_throttled_total"+l, "requests throttled with a retry hint per tenant", t.c.Throttled)
		reg.SetCounter("qos_shed_total"+l, "requests shed per tenant", t.c.Shed)
		reg.SetCounter("qos_deadline_total"+l, "requests rejected on a missed deadline per tenant", t.c.Deadline)
		reg.SetGauge("qos_rung"+l, "degradation-ladder rung per tenant (0 throttle, 1 shed, 2 bypass)", float64(t.rung))
	}
}
