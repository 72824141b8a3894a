// Package simclock provides the deterministic simulated clock that every
// component of the POLM2 reproduction runs against.
//
// The paper's evaluation runs workloads for 30 wall-clock minutes on a Xeon
// E5505; this reproduction compresses those runs into simulated time so a
// full experiment executes in seconds. All durations reported by the
// benchmark harness are simulated durations, advanced explicitly by the
// workload driver (mutator work) and by the collectors (stop-the-world
// pauses).
package simclock

import (
	"fmt"
	"time"
)

// Clock is a deterministic simulated clock. The zero value is ready to use
// and starts at instant zero.
//
// Clock is not safe for concurrent use: a simulation runs on one goroutine,
// and a caller that shares a clock across goroutines synchronizes itself.
type Clock struct {
	now time.Duration
}

// New returns a clock starting at instant zero.
func New() *Clock {
	return &Clock{}
}

// Now returns the current simulated instant, expressed as the duration since
// the start of the simulation.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Advance moves the clock forward by d and returns the new instant.
// Advancing by a negative duration is a programming error and panics, since
// a backwards-moving clock would silently corrupt every pause log and
// throughput series derived from it.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance by negative duration %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to instant t. It is a no-op when t is in
// the past; this makes it safe for rate-paced schedulers that may have been
// overtaken by a long GC pause.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	if t > c.now {
		c.now = t
	}
	return c.now
}
