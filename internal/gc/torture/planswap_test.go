package torture

import (
	"math/rand"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/instrument"
	"polm2/internal/jvm"
)

// youngPlan is a hand-rolled jvm.Plan for collectors without dynamic
// generations (G1, C4): it exercises the whole instrumentation path —
// setGeneration pairs around calls, @Gen annotations on allocations —
// with every directive resolving to the young generation.
type youngPlan struct {
	calls  map[jvm.CodeLoc]bool
	allocs map[jvm.CodeLoc]bool
}

func (p *youngPlan) CallGen(loc jvm.CodeLoc) (heap.GenID, bool) {
	return heap.Young, p.calls[loc]
}

func (p *youngPlan) AllocGen(loc jvm.CodeLoc) (heap.GenID, bool, bool) {
	if p.allocs[loc] {
		return heap.Young, true, true
	}
	return 0, false, false
}

func mustLoc(t *testing.T, s string) jvm.CodeLoc {
	t.Helper()
	loc, err := jvm.ParseCodeLoc(s)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

// swapPlans builds the rotation of instrumentation plans for one
// collector: profile-derived multi-generation plans when the collector
// pretenures (NG2C), young-targeting structural plans otherwise, and nil
// (uninstrumented) in both cases.
func swapPlans(t *testing.T, col gc.Collector) []jvm.Plan {
	t.Helper()
	if pret, ok := col.(gc.Pretenuring); ok {
		a, err := instrument.Apply(&analyzer.Profile{
			Generations: 2,
			Calls:       []analyzer.CallDirective{{Loc: "Main.run:5", Gen: 1}},
			Allocs:      []analyzer.AllocDirective{{Loc: "Helper.make:3", Gen: 2, Direct: true}},
		}, pret)
		if err != nil {
			t.Fatal(err)
		}
		b, err := instrument.Apply(&analyzer.Profile{
			Generations: 1,
			Calls:       []analyzer.CallDirective{{Loc: "Main.run:7", Gen: 1}},
			Allocs:      []analyzer.AllocDirective{{Loc: "Helper.make:3", Gen: 0}},
		}, pret)
		if err != nil {
			t.Fatal(err)
		}
		return []jvm.Plan{a, nil, b}
	}
	a := &youngPlan{
		calls:  map[jvm.CodeLoc]bool{mustLoc(t, "Main.run:5"): true},
		allocs: map[jvm.CodeLoc]bool{mustLoc(t, "Helper.make:3"): true},
	}
	b := &youngPlan{
		calls: map[jvm.CodeLoc]bool{mustLoc(t, "Main.run:7"): true},
	}
	return []jvm.Plan{a, nil, b}
}

// tortureWithPlanSwaps drives the randomized mutator through the engine
// (so instrumentation applies) while the installed plan is hot-swapped
// mid-run, the way the online mode swaps plans after each re-analysis.
// The liveness and bookkeeping invariants must hold across every swap.
func tortureWithPlanSwaps(t *testing.T, name string, col gc.Collector, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vm := jvm.New(col)
	h := col.Heap()
	plans := swapPlans(t, col)

	th := vm.NewThread("torture")
	th.Enter("Main", "run")
	checked := checkEveryCycle(t, name, col)

	var live []tracked

	const steps = 20000
	const swapEvery = steps / 8
	for step := 0; step < steps; step++ {
		if step%swapEvery == 0 {
			vm.SetPlan(plans[(step/swapEvery)%len(plans)])
		}
		size := uint32(32 + rng.Intn(2048))
		if rng.Intn(400) == 0 {
			size = uint32(17*1024 + rng.Intn(8*1024)) // humongous
		}
		var obj *heap.Object
		var err error
		switch rng.Intn(3) {
		case 0:
			// Through the instrumented call sites, so CallGen and
			// AllocGen directives actually fire.
			line := 5
			if rng.Intn(2) == 0 {
				line = 7
			}
			th.Call(line, "Helper", "make")
			obj, err = th.Alloc(3, size)
			th.Return()
		default:
			obj, err = th.Alloc(10+rng.Intn(10), size)
		}
		if err != nil {
			t.Fatalf("%s: step %d: %v", name, step, err)
		}
		if rng.Intn(5) == 0 {
			h.PinRoot(obj)
			live = append(live, tracked{obj: obj, stamp: obj.Stamp(), ttl: 10 + rng.Intn(3000)})
			if len(live) > 1 && rng.Intn(2) == 0 {
				other := live[rng.Intn(len(live))]
				if err := h.Link(obj.ID, other.obj.ID); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if step%32 == 0 {
			// Drop the frame's stack pins so unrooted objects can die.
			th.ReleaseLocals()
			kept := live[:0]
			for _, tr := range live {
				tr.ttl -= 32
				if tr.ttl <= 0 {
					h.UnpinRoot(tr.obj)
					continue
				}
				kept = append(kept, tr)
			}
			live = kept
		}
		if rng.Intn(4000) == 0 {
			if err := col.ForceCollect(); err != nil {
				t.Fatalf("%s: forced collection: %v", name, err)
			}
		}
	}

	for _, tr := range live {
		if tr.lost() {
			t.Fatalf("%s: live object %v lost across plan swaps", name, tr.obj)
		}
	}
	if *checked == 0 {
		t.Fatalf("%s: no collection ran", name)
	}
	// The mutations since the last collection kept the invariants too.
	checkHeap(t, name, h)

	// After removing the plan, the roots and the pins, the heap drains.
	vm.SetPlan(nil)
	th.ReleaseLocals()
	for _, tr := range live {
		h.UnpinRoot(tr.obj)
	}
	for i := 0; i < 4; i++ {
		if err := col.ForceCollect(); err != nil {
			t.Fatalf("%s: drain collection: %v", name, err)
		}
	}
	if got := h.Stats().Objects; got != 0 {
		t.Fatalf("%s: %d objects survived a full drain", name, got)
	}
	if got := h.RootCount(); got != 0 {
		t.Fatalf("%s: %d roots leaked", name, got)
	}
	if vm.GenSwitches() == 0 {
		t.Fatalf("%s: no dynamic generation switches — the plans never fired", name)
	}
}

func TestTorturePlanSwaps(t *testing.T) {
	if testing.Short() {
		t.Skip("torture skipped in -short mode")
	}
	for _, seed := range []int64{1, 42} {
		for name, col := range collectors(t) {
			name, col, seed := name, col, seed
			t.Run(name, func(t *testing.T) {
				tortureWithPlanSwaps(t, name, col, seed)
			})
		}
	}
}
