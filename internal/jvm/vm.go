package jvm

import (
	"time"

	"polm2/internal/gc"
	"polm2/internal/heap"
)

// Plan is the instrumentation the engine applies while executing — the
// moral equivalent of the bytecode the paper's Instrumenter produces at
// class-load time (§3.4). Generation ids in a Plan are already resolved to
// collector generations (the Instrumenter calls NewGeneration at launch).
type Plan interface {
	// CallGen reports whether a setGeneration(gen) / setAllocGen(saved)
	// pair wraps the call at the given code location, and with which
	// target generation.
	CallGen(loc CodeLoc) (heap.GenID, bool)
	// AllocGen describes the instrumentation of the allocation at the
	// given code location: annotated reports a @Gen annotation;
	// explicit, when also set, means the site carries its own
	// setGeneration(gen)/restore pair so the allocation goes straight to
	// gen instead of the thread's current target generation.
	AllocGen(loc CodeLoc) (gen heap.GenID, explicit, annotated bool)
}

const (
	// opCost is the baseline simulated cost of one workload operation
	// unit, scaled by the collector's mutator factor when threads call
	// Work.
	opCost = time.Microsecond
	// switchCost is the simulated mutator cost of one dynamic generation
	// switch (a setGeneration call pair); §4.4's hoisting optimization
	// exists precisely to reduce how often it is paid.
	switchCost = 150 * time.Nanosecond
)

// AllocHook observes every allocation the engine performs. The Recorder
// registers one to log (site, object id) pairs (§3.2).
type AllocHook func(site heap.SiteID, obj *heap.Object)

// VM is the execution engine: it binds a collector, a site table, an
// optional instrumentation plan, and the threads of one simulated
// application.
type VM struct {
	collector gc.Collector
	sites     *SiteTable
	plan      Plan
	hooks     []AllocHook
	// genSwitches counts dynamic setGeneration calls performed by the
	// installed plan — the overhead metric §4.4's hoisting optimization
	// reduces.
	genSwitches uint64
	// pretenureCostPerByte is the mutator cost of pretenured allocation
	// per byte: NG2C's pretenured allocations bypass the TLAB fast path,
	// paying a synchronized slow path per object. Charged on every
	// @Gen-annotated allocation.
	pretenureCostPerByte time.Duration
}

// New builds an engine over the given collector.
func New(collector gc.Collector) *VM {
	return &VM{
		collector: collector,
		sites:     NewSiteTable(),
	}
}

// SetPlan installs an instrumentation plan; nil removes instrumentation.
// Installing a plan corresponds to the production phase's load-time
// rewriting (§3.5); running without one is the unmodified application.
func (vm *VM) SetPlan(p Plan) { vm.plan = p }

// AddAllocHook registers an allocation observer.
func (vm *VM) AddAllocHook(h AllocHook) { vm.hooks = append(vm.hooks, h) }

// Collector returns the engine's collector.
func (vm *VM) Collector() gc.Collector { return vm.collector }

// Heap returns the collector's heap.
func (vm *VM) Heap() *heap.Heap { return vm.collector.Heap() }

// Sites returns the engine's site table.
func (vm *VM) Sites() *SiteTable { return vm.sites }

// GenSwitches returns the number of dynamic generation switches the
// installed plan has performed so far.
func (vm *VM) GenSwitches() uint64 { return vm.genSwitches }

// NewThread creates an execution thread. The name appears in diagnostics
// only.
func (vm *VM) NewThread(name string) *Thread {
	return &Thread{vm: vm, name: name, targetGen: heap.Young}
}

// SetPretenureCostPerByte sets the mutator tax charged per byte of
// pretenured allocation (the TLAB-bypass slow path of NG2C). Zero disables
// the tax.
func (vm *VM) SetPretenureCostPerByte(d time.Duration) { vm.pretenureCostPerByte = d }
