// Package sim provides a deterministic virtual-time engine used by all
// timing experiments in this repository.
//
// There is no event loop: every device model computes its completion
// times analytically through Stations, which model devices as
// multi-server work-conserving queues using "next free time" bookkeeping
// plus a few remembered idle gaps, the standard technique for
// trace-driven storage simulation, and callers thread the resulting
// Times through the stack themselves.
//
// All times are expressed as Time, a nanosecond count since simulation
// start. Nothing in this package reads the wall clock, so simulations are
// exactly reproducible.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, also in nanoseconds (Time doubles as a duration).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
