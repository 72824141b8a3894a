package core

import (
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/simclock"
	"polm2/internal/workload"
)

// Env is the execution environment a workload runs in: the engine, the
// simulated clock, seeded randomness, the run deadline, and the operation
// counter that feeds the throughput figures.
type Env struct {
	vm       *jvm.VM
	clock    *simclock.Clock
	rand     *workload.Rand
	ops      *metrics.TimeSeries
	deadline time.Duration
}

// VM returns the execution engine.
func (e *Env) VM() *jvm.VM { return e.vm }

// Clock returns the simulated clock.
func (e *Env) Clock() *simclock.Clock { return e.clock }

// Rand returns the run's seeded random source.
func (e *Env) Rand() *workload.Rand { return e.rand }

// Heap returns the collector's heap (for the graph API).
func (e *Env) Heap() *heap.Heap { return e.vm.Heap() }

// Now returns the current simulated instant.
func (e *Env) Now() time.Duration { return e.clock.Now() }

// Done reports whether the run deadline has passed.
func (e *Env) Done() bool { return e.clock.Now() >= e.deadline }

// Deadline returns the run deadline.
func (e *Env) Deadline() time.Duration { return e.deadline }

// CountOps records n completed operations at the current instant; the
// harness derives the per-second series (Figure 8) and the totals
// (Figure 7) from these counts.
func (e *Env) CountOps(n int64) {
	e.ops.Record(e.clock.Now(), n)
}

// App is a simulated application with one or more evaluation workloads.
// Implementations live in internal/apps.
type App interface {
	// Name returns the application name ("Cassandra", "Lucene",
	// "GraphChi").
	Name() string
	// Workloads names the app's evaluation workloads ("WI", "WR",
	// "RI", "PR", "CC", ...).
	Workloads() []string
	// Run drives one workload until env.Done(). Implementations must be
	// deterministic given env.Rand().
	Run(env *Env, workloadName string) error
	// ManualProfile returns the expert's hand-written NG2C profile for
	// the workload — the paper's "NG2C with manual code modifications"
	// baseline, including the documented human errors on some workloads
	// (§5.4.1).
	ManualProfile(workloadName string) (*analyzer.Profile, error)
}
