package jvm

import (
	"fmt"
	"time"

	"polm2/internal/heap"
)

// frame is one method invocation on a thread's call stack.
type frame struct {
	class  string
	method string
	// line is the code location within this method where execution
	// currently is (the call site of the frame above, or the allocation
	// line).
	line int
	// restoreGen, when set, is the target generation to restore when
	// this frame returns — the setAllocGen(saved) call the Instrumenter
	// emits after an instrumented call site (§3.4, Listing 2).
	restoreGen    heap.GenID
	hasRestoreGen bool
	// base is the length of the thread's pin stack when this frame was
	// pushed: the frame's locals are pins[base:].
	base int
	// pathHash fingerprints the ancestor call path up to and including
	// this frame's (class, method) and the caller's call line; it lets
	// Alloc intern allocation sites without rebuilding the stack trace.
	pathHash uint64
}

// Thread is a simulated application thread. Threads are not safe for
// concurrent use; the simulation interleaves them deterministically.
type Thread struct {
	vm    *VM
	name  string
	stack []frame
	// pins holds the objects the stack's locals reference, oldest first.
	// Stack locals are GC roots on a real JVM; every allocated object is
	// pinned, and a frame's pins become its caller's on return (a returned
	// reference is conservatively assumed to escape). ReleaseLocals drops
	// a frame's pins at operation boundaries.
	pins []*heap.Object
	// targetGen is the thread-local current target generation of NG2C's
	// API (§2.2).
	targetGen heap.GenID
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Depth returns the current call-stack depth.
func (t *Thread) Depth() int { return len(t.stack) }

// TargetGen returns the thread's current target generation
// (System.getGeneration in NG2C's API).
func (t *Thread) TargetGen() heap.GenID { return t.targetGen }

// Enter pushes a method invocation frame with no call site — the thread's
// entry point (e.g. run()). An entry point pushed on a non-empty stack
// still follows the frames below it in every trace, so its path
// fingerprint continues theirs from the line the running frame is at.
func (t *Thread) Enter(class, method string) {
	h := uint64(fnvOffset)
	if len(t.stack) > 0 {
		top := &t.stack[len(t.stack)-1]
		h = hashLine(top.pathHash, top.line)
	}
	t.stack = append(t.stack, frame{
		class:    class,
		method:   method,
		base:     len(t.pins),
		pathHash: hashFrame(h, class, method),
	})
}

// FNV-1a constants for the path fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashFrame(seed uint64, class, method string) uint64 {
	h := seed
	for i := 0; i < len(class); i++ {
		h = (h ^ uint64(class[i])) * fnvPrime
	}
	h = (h ^ '.') * fnvPrime
	for i := 0; i < len(method); i++ {
		h = (h ^ uint64(method[i])) * fnvPrime
	}
	return h
}

func hashLine(seed uint64, line int) uint64 {
	h := seed
	v := uint64(line)
	for i := 0; i < 4; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// Call records that the current method, at the given line, invokes
// class.method, and pushes the callee frame. If the installed
// instrumentation plan wraps this call site in a generation switch, the
// thread's target generation changes for the dynamic extent of the call.
func (t *Thread) Call(line int, class, method string) {
	if len(t.stack) == 0 {
		panic(fmt.Sprintf("jvm: thread %s: Call with empty stack; use Enter first", t.name))
	}
	top := &t.stack[len(t.stack)-1]
	top.line = line
	f := frame{
		class:    class,
		method:   method,
		base:     len(t.pins),
		pathHash: hashFrame(hashLine(top.pathHash, line), class, method),
	}
	if t.vm.plan != nil {
		loc := CodeLoc{Class: top.class, Method: top.method, Line: line}
		if gen, ok := t.vm.plan.CallGen(loc); ok {
			f.restoreGen = t.targetGen
			f.hasRestoreGen = true
			t.targetGen = gen
			t.vm.genSwitches++
			t.vm.collector.Clock().Advance(switchCost)
		}
	}
	t.stack = append(t.stack, f)
}

// Return pops the current method invocation, restoring the caller's target
// generation if the call site was instrumented. The frame's pinned locals
// become the caller's; pins of the last frame are dropped.
func (t *Thread) Return() {
	if len(t.stack) == 0 {
		panic(fmt.Sprintf("jvm: thread %s: Return with empty stack", t.name))
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if top.hasRestoreGen {
		t.targetGen = top.restoreGen
	}
	if len(t.stack) == 0 {
		t.release(top.base)
	}
}

// ReleaseLocals drops the current frame's stack pins — the locals of the
// running method go dead, as at the end of a request-loop iteration.
// Objects the application still needs must be reachable from explicit roots
// or from other live objects by now.
func (t *Thread) ReleaseLocals() {
	if len(t.stack) == 0 {
		return
	}
	t.release(t.stack[len(t.stack)-1].base)
}

// release unpins pins[base:] in pin order, which fixes the order of the
// heap's root list, and truncates the pin stack to base.
func (t *Thread) release(base int) {
	h := t.vm.Heap()
	for _, obj := range t.pins[base:] {
		h.UnpinRoot(obj)
	}
	clear(t.pins[base:])
	t.pins = t.pins[:base]
}

// Alloc allocates size bytes at the given line of the current method. The
// full stack trace is interned as the allocation site; the installed plan
// decides whether the site is pretenured (@Gen annotation) into the
// thread's current target generation. Registered allocation hooks observe
// the allocation.
func (t *Thread) Alloc(line int, size uint32) (*heap.Object, error) {
	if len(t.stack) == 0 {
		return nil, fmt.Errorf("jvm: thread %s: Alloc with empty stack", t.name)
	}
	top := &t.stack[len(t.stack)-1]
	top.line = line

	// Fast path: the (path hash, alloc line) pair has been interned
	// before; the full trace is only materialized for new sites.
	siteKey := hashLine(top.pathHash, line)
	site, ok := t.vm.sites.byHash[siteKey]
	if !ok {
		site = t.vm.sites.intern(siteKey, t.Trace())
	}
	leaf := CodeLoc{Class: top.class, Method: top.method, Line: line}

	target := heap.Young
	if t.vm.plan != nil {
		if gen, explicit, annotated := t.vm.plan.AllocGen(leaf); annotated {
			if explicit {
				// The site carries its own switch/restore pair.
				target = gen
				t.vm.genSwitches++
				t.vm.collector.Clock().Advance(switchCost)
			} else {
				target = t.targetGen
			}
			if target != heap.Young && t.vm.pretenureCostPerByte > 0 {
				// Pretenured allocations bypass the TLAB fast
				// path (§2.2): a per-byte mutator tax stands in
				// for the slow path of the real objects this
				// simulated allocation aggregates.
				t.vm.collector.Clock().Advance(time.Duration(size) * t.vm.pretenureCostPerByte)
			}
		}
	}
	obj, err := t.vm.collector.Allocate(size, site, target)
	if err != nil {
		return nil, fmt.Errorf("jvm: thread %s at %v: %w", t.name, leaf, err)
	}
	// Pin the new object to the allocating frame: the local holding it
	// is a GC root until the frame's locals are released.
	t.vm.Heap().PinRoot(obj)
	t.pins = append(t.pins, obj)
	for _, hook := range t.vm.hooks {
		hook(site, obj)
	}
	return obj, nil
}

// Work advances the simulated clock by n operation units, scaled by the
// collector's mutator factor (barrier tax). Workload drivers call this to
// model computation between allocations.
func (t *Thread) Work(n int) {
	d := time.Duration(float64(n) * float64(opCost) * t.vm.collector.MutatorFactor())
	t.vm.collector.Clock().Advance(d)
}

// Trace returns the thread's current stack trace (for diagnostics and
// tests).
func (t *Thread) Trace() StackTrace {
	trace := make(StackTrace, len(t.stack))
	for i, f := range t.stack {
		trace[i] = CodeLoc{Class: f.class, Method: f.method, Line: f.line}
	}
	return trace
}
