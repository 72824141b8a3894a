// Package workload provides the deterministic building blocks the simulated
// applications are driven with: seeded randomness, Zipfian key popularity
// (YCSB's default distribution), and an open-loop request pacer that lets
// GC pauses eat into throughput exactly the way they do on a loaded server.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"polm2/internal/simclock"
)

// Rand is a seeded random source. It wraps math/rand.Rand so every workload
// run is reproducible from its seed; no global randomness is used anywhere
// in the simulation.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// SizeAround returns a size jittered uniformly within ±spread of base
// (spread in [0,1)), never below 16 bytes.
func (r *Rand) SizeAround(base uint32, spread float64) uint32 {
	if spread <= 0 {
		return base
	}
	lo := float64(base) * (1 - spread)
	hi := float64(base) * (1 + spread)
	size := uint32(lo + r.Float64()*(hi-lo))
	if size < 16 {
		size = 16
	}
	return size
}

// Zipf draws keys in [0, n) with Zipfian popularity — YCSB's default
// request distribution, which the paper's Cassandra workloads mirror.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipfian distribution over n keys with skew s (> 1).
func NewZipf(r *Rand, s float64, n uint64) (*Zipf, error) {
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf skew must be > 1, got %v", s)
	}
	if n == 0 {
		return nil, fmt.Errorf("workload: zipf needs at least one key")
	}
	z := rand.NewZipf(r.r, s, 1, n-1)
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters (s=%v, n=%d)", s, n)
	}
	return &Zipf{z: z}, nil
}

// Next draws the next key.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Pacer schedules operations at a target rate against the simulated clock,
// open loop without catch-up: if the application stalls (a GC pause), the
// operations that should have run during the stall are lost, so observed
// throughput dips exactly when pauses happen — the behaviour behind the
// paper's Figure 8 time series.
type Pacer struct {
	clock  *simclock.Clock
	period time.Duration
	next   time.Duration
}

// NewPacer builds a pacer issuing ops at the given rate (ops per simulated
// second).
func NewPacer(clock *simclock.Clock, rate float64) (*Pacer, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: pacer rate must be positive, got %v", rate)
	}
	period := time.Duration(float64(time.Second) / rate)
	if period <= 0 {
		period = time.Nanosecond
	}
	return &Pacer{clock: clock, period: period, next: clock.Now()}, nil
}

// Await blocks (advances the simulated clock) until the next operation is
// due, then schedules the following one. If the clock has already passed
// the due time, the operation runs immediately and the schedule resets from
// now: missed slots are not replayed.
func (p *Pacer) Await() {
	now := p.clock.Now()
	if now < p.next {
		now = p.clock.AdvanceTo(p.next)
	}
	p.next = now + p.period
}
