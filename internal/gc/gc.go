// Package gc defines the collector abstraction of the POLM2 reproduction:
// the interface every simulated collector implements, the stop-the-world
// pause events the evaluation measures, and the calibrated cost model that
// converts collection work (bytes copied, remembered sets scanned, regions
// evacuated) into simulated pause time.
//
// Three collectors implement the interface, matching the paper's
// evaluation: the NG2C multi-generation pretenuring collector POLM2 drives
// and, as the same code with pretenuring off, the G1-like two-generation
// baseline (both internal/gc/ng2c), and a C4-like concurrent collector used
// for the throughput and memory comparisons (internal/gc/c4).
package gc

import (
	"time"

	"polm2/internal/heap"
	"polm2/internal/simclock"
)

// PauseKind classifies a stop-the-world pause.
type PauseKind int

// Pause kinds. Enums start at one so the zero value is detectably invalid.
const (
	// PauseYoung is a young-generation (minor) collection.
	PauseYoung PauseKind = iota + 1
	// PauseMixed is a young collection that also evacuates old regions
	// (G1 mixed collection / NG2C dynamic-generation collection).
	PauseMixed
	// PauseFull is a whole-heap compacting collection.
	PauseFull
	// PauseConcurrent is the brief stop-the-world phase of a mostly
	// concurrent cycle (C4's checkpoint pauses).
	PauseConcurrent
)

// String returns the kind's display name.
func (k PauseKind) String() string {
	switch k {
	case PauseYoung:
		return "young"
	case PauseMixed:
		return "mixed"
	case PauseFull:
		return "full"
	case PauseConcurrent:
		return "concurrent"
	default:
		return "invalid"
	}
}

// Pause is one stop-the-world application pause — the paper's central
// metric (Figures 5 and 6).
type Pause struct {
	// Start is the simulated instant the pause began.
	Start time.Duration
	// Duration is the simulated pause length.
	Duration time.Duration
	// Kind classifies the collection.
	Kind PauseKind
	// Cycle is the GC cycle number that caused the pause.
	Cycle uint64
	// BytesCopied and ObjectsCopied describe evacuation work.
	BytesCopied   uint64
	ObjectsCopied int
	// RegionsCollected is the collection-set size (for a concurrent
	// cycle, every region it examined); RegionsFreed counts regions
	// returned to the free pool.
	RegionsCollected int
	RegionsFreed     int
	// PromotedBytes counts bytes moved into an older generation —
	// the en-masse promotion the paper identifies as the root cause of
	// long pauses (§1).
	PromotedBytes uint64
	// LiveObjects and LiveBytes are the reachable objects and their total
	// size that the collection's trace counted: the heap's live set when
	// the cycle ended. The jmap baseline of Figures 3 and 4 is priced from
	// them (core.ProfileApp). TracePauses does not emit them.
	LiveObjects int
	LiveBytes   uint64
}

// CostModel converts collection work into simulated pause time. The
// defaults approximate a 2009-era Xeon (the paper's E5505): ~1 GiB/s object
// copying, fractions of a microsecond per remembered-set entry and per
// object header fix-up.
type CostModel struct {
	// Base is the fixed safepoint + root-scan cost of any pause.
	Base time.Duration
	// PerRegion is charged for each region in the collection set.
	PerRegion time.Duration
	// PerRemsetEntry is charged for each remembered-set entry of the
	// collection set (scanning cost).
	PerRemsetEntry time.Duration
	// PerCopiedByte is charged for each byte evacuated.
	PerCopiedByte time.Duration
	// PerCopiedObject is charged for each object evacuated (header
	// fix-up, forwarding).
	PerCopiedObject time.Duration
	// PerTracedObject is charged per reachable object during full-heap
	// marking (full GCs only).
	PerTracedObject time.Duration
}

// DefaultCostModel returns the calibrated cost model used by the
// evaluation harness.
func DefaultCostModel() CostModel {
	return CostModel{
		Base:            500 * time.Microsecond,
		PerRegion:       30 * time.Microsecond,
		PerRemsetEntry:  120 * time.Nanosecond,
		PerCopiedByte:   1 * time.Nanosecond,
		PerCopiedObject: 250 * time.Nanosecond,
		PerTracedObject: 60 * time.Nanosecond,
	}
}

// EvacuationCost prices a pause that evacuated the given work.
func (m CostModel) EvacuationCost(regions int, remsetEntries int, bytesCopied uint64, objectsCopied int) time.Duration {
	return m.Base +
		time.Duration(regions)*m.PerRegion +
		time.Duration(remsetEntries)*m.PerRemsetEntry +
		time.Duration(bytesCopied)*m.PerCopiedByte +
		time.Duration(objectsCopied)*m.PerCopiedObject
}

// CycleFunc observes the end of a GC cycle. The collector passes the cycle
// number and the live set its trace computed; POLM2's Recorder uses it to
// mark no-need pages and trigger a heap snapshot (§3.2).
type CycleFunc func(cycle uint64, live *heap.LiveSet)

// CycleLog is the bookkeeping every collector keeps the same way: its
// clock, the pauses it charged (one per completed cycle) and the listeners
// of each cycle's end. A collector embeds one, which implements Clock,
// Pauses, Cycles and OnCycleEnd for it, and ends every collection with
// EndCycle.
type CycleLog struct {
	clock     *simclock.Clock
	pauses    []Pause
	listeners []CycleFunc
}

// NewCycleLog returns an empty log over clock.
func NewCycleLog(clock *simclock.Clock) CycleLog { return CycleLog{clock: clock} }

// Clock implements Collector.
func (l *CycleLog) Clock() *simclock.Clock { return l.clock }

// Pauses implements Collector.
func (l *CycleLog) Pauses() []Pause {
	out := make([]Pause, len(l.pauses))
	copy(out, l.pauses)
	return out
}

// Cycles implements Collector.
func (l *CycleLog) Cycles() uint64 { return uint64(len(l.pauses)) }

// OnCycleEnd implements Collector.
func (l *CycleLog) OnCycleEnd(fn CycleFunc) {
	l.listeners = append(l.listeners, fn)
}

// EndCycle closes a collection: it advances the clock by p.Duration, logs
// p numbered by its position in the log (the first cycle is 1) and hands
// the collection's live set to every listener, in registration order.
func (l *CycleLog) EndCycle(p Pause, live *heap.LiveSet) {
	l.clock.Advance(p.Duration)
	p.Cycle = uint64(len(l.pauses)) + 1
	l.pauses = append(l.pauses, p)
	for _, fn := range l.listeners {
		fn(p.Cycle, live)
	}
}

// Collector is a simulated garbage collector. Implementations are not safe
// for concurrent use; the simulation is single-threaded.
type Collector interface {
	// Name returns the collector's display name ("G1", "NG2C", "C4").
	Name() string
	// Allocate allocates an object. Target names the pretenuring
	// generation; collectors without pretenuring support ignore it and
	// allocate young. Allocation may trigger collections, advancing the
	// simulated clock.
	Allocate(size uint32, site heap.SiteID, target heap.GenID) (*heap.Object, error)
	// Heap exposes the underlying heap (graph mutation, stats, pages).
	Heap() *heap.Heap
	// Clock exposes the simulated clock the collector advances during
	// pauses.
	Clock() *simclock.Clock
	// Pauses returns all stop-the-world pauses so far, in order.
	Pauses() []Pause
	// Cycles returns the number of completed GC cycles.
	Cycles() uint64
	// MutatorFactor is the slowdown the collector's barriers impose on
	// mutator work (1.0 = none; C4 > 1).
	MutatorFactor() float64
	// OnCycleEnd registers a cycle listener.
	OnCycleEnd(fn CycleFunc)
	// ForceCollect runs a collection immediately (used at workload
	// boundaries and in tests).
	ForceCollect() error
}

// Pretenuring is implemented by collectors that support NG2C's API (§2.2):
// allocating objects directly into dynamically created generations.
type Pretenuring interface {
	Collector
	// NewGeneration creates a new generation and returns its id.
	NewGeneration() heap.GenID
	// Generations returns the number of generations currently in use,
	// including the young generation.
	Generations() int
}
