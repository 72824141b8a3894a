package gc

import (
	"time"

	"polm2/internal/trace"
)

// Pause tracing: every stop-the-world pause becomes one "gc"/"cycle" span
// plus one "gc"/"phase" span per cost-model component. The breakdown is
// derived from the pause's work counters under the cost model rather than
// instrumented inside the collectors — the same arithmetic that priced the
// pause re-prices its parts, so the trace is byte-deterministic, adds
// nothing to the collection hot path, and the phase durations always sum
// to the pause duration.

// PhaseCost is one component of a pause's duration.
type PhaseCost struct {
	// Name is the phase: "safepoint" (fixed safepoint + root scan),
	// "region" (per-region bookkeeping), "evacuate" (object copying),
	// "scan" (remembered-set scanning and, for full GCs, heap tracing —
	// the residual the work counters on Pause cannot split further).
	Name string
	// Duration is the phase's share of the pause.
	Duration time.Duration
}

// PhaseBreakdown decomposes a pause into the cost model's phases. The
// phases sum exactly to p.Duration: the first three are recomputed from
// the pause's work counters, and "scan" is the remainder (clamped at zero
// against a mismatched cost model).
//
// A PauseConcurrent pause is entirely safepoint: its cycle copied and
// freed regions beside the running mutator, so its work counters describe
// concurrent work the checkpoint pause never paid for.
func (m CostModel) PhaseBreakdown(p Pause) [4]PhaseCost {
	safepoint := m.Base
	region := time.Duration(p.RegionsCollected) * m.PerRegion
	evacuate := time.Duration(p.BytesCopied)*m.PerCopiedByte +
		time.Duration(p.ObjectsCopied)*m.PerCopiedObject
	if p.Kind == PauseConcurrent {
		safepoint, region, evacuate = p.Duration, 0, 0
	}
	scan := p.Duration - safepoint - region - evacuate
	if scan < 0 {
		scan = 0
	}
	return [4]PhaseCost{
		{Name: "safepoint", Duration: safepoint},
		{Name: "region", Duration: region},
		{Name: "evacuate", Duration: evacuate},
		{Name: "scan", Duration: scan},
	}
}

// TraceCycle emits one pause as a cycle span with its phase spans. The
// guarded early return is the entire cost when tracing is off; the
// benchmark suite (cycle_bench_test.go) pins that at zero allocations on
// the GC hot path.
func TraceCycle(t *trace.Tracer, m CostModel, p Pause) {
	if !t.Enabled() {
		return
	}
	t.Span("gc", "cycle", p.Start, p.Duration,
		trace.Uint64("cycle", p.Cycle),
		trace.String("gc_kind", p.Kind.String()),
		trace.Uint64("bytes_copied", p.BytesCopied),
		trace.Int64("objects_copied", int64(p.ObjectsCopied)),
		trace.Int64("regions_collected", int64(p.RegionsCollected)),
		trace.Int64("regions_freed", int64(p.RegionsFreed)),
		trace.Uint64("promoted_bytes", p.PromotedBytes))
	at := p.Start
	for _, ph := range m.PhaseBreakdown(p) {
		t.Span("gc", "phase", at, ph.Duration,
			trace.Uint64("cycle", p.Cycle),
			trace.String("phase", ph.Name))
		at += ph.Duration
	}
}

// TracePauses emits a whole run's pauses in order (the simulation emits
// them after the run: pause spans carry their own simulated start
// instants, so emission order and timestamp order are independent).
func TracePauses(t *trace.Tracer, m CostModel, pauses []Pause) {
	if !t.Enabled() {
		return
	}
	for _, p := range pauses {
		TraceCycle(t, m, p)
	}
}
