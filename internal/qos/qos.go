// Package qos is the multi-tenant admission-control layer of the serving
// path: per-tenant token-bucket rate limiters, typed rejection errors
// with retry hints, and a degradation ladder (throttle → shed → bypass)
// with recovery hysteresis. Two serving paths gate through it, each at
// one place: the harness replay loop (kddsim -tenants and the
// noisy-neighbor experiment) and the kddcache.System facade.
//
// Everything is deterministic in virtual time: buckets account in
// integer token-nanoseconds (no floating point on the admission path),
// and the controller is driven solely by the sim.Time values the caller
// hands it. Two runs over the same request stream make identical
// decisions at any parallelism, which is what lets the noisy-neighbor
// experiment stay byte-identical at every -parallel width.
package qos

import (
	"errors"
	"fmt"

	"kddcache/internal/sim"
)

// Typed rejection sentinels. Errors returned from the admission path
// match these under errors.Is.
var (
	// ErrThrottled marks an over-budget request the tenant may retry:
	// the wrapping Reject carries the earliest virtual retry time.
	ErrThrottled = errors.New("qos: throttled")

	// ErrDeadlineExceeded marks a request whose deadline passed before
	// it could be served.
	ErrDeadlineExceeded = errors.New("qos: deadline exceeded")

	// ErrShed marks a request dropped outright: the tenant is over
	// budget past its retry allowance, or demoted on the degradation
	// ladder. There is no retry hint; back off at the client.
	ErrShed = errors.New("qos: shed")
)

// Verdict is the controller's decision for one request.
type Verdict uint8

// Admission verdicts, in degradation order.
const (
	// VerdictAdmit serves the request normally, cache admission included.
	VerdictAdmit Verdict = iota

	// VerdictBypass serves the request around the cache: reads pass
	// through to the array, writes go write-through, existing cached
	// state stays coherent but nothing new is admitted.
	VerdictBypass

	// VerdictThrottle rejects with ErrThrottled and a RetryAfter hint.
	VerdictThrottle

	// VerdictShed rejects with ErrShed; no retry hint.
	VerdictShed
)

// String returns the wire name of the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictBypass:
		return "bypass"
	case VerdictThrottle:
		return "throttle"
	case VerdictShed:
		return "shed"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Decision is the controller's answer for one request at one instant.
type Decision struct {
	Verdict Verdict

	// RetryAfter is the earliest virtual time a throttled request
	// should be retried (valid when Verdict == VerdictThrottle). It
	// combines the bucket's refill horizon with the tenant's doubling
	// backoff, so repeat offenders are pushed further out.
	RetryAfter sim.Time
}

// Reject is the error carried by throttle/shed rejections: it names the
// tenant and matches ErrThrottled or ErrShed under errors.Is.
type Reject struct {
	Tenant     string
	Verdict    Verdict
	RetryAfter sim.Time
}

// Error renders the rejection.
func (e *Reject) Error() string {
	if e.Verdict == VerdictThrottle {
		return fmt.Sprintf("qos: tenant %s throttled, retry at %d", e.Tenant, int64(e.RetryAfter))
	}
	return fmt.Sprintf("qos: tenant %s shed", e.Tenant)
}

// Is matches the rejection against the typed sentinels.
func (e *Reject) Is(target error) bool {
	switch target {
	case ErrThrottled:
		return e.Verdict == VerdictThrottle
	case ErrShed:
		return e.Verdict == VerdictShed
	}
	return false
}
