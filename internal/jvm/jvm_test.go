package jvm

import (
	"testing"
	"testing/quick"

	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

func newVM(t *testing.T) *VM {
	t.Helper()
	col, err := ng2c.New(simclock.New(), ng2c.Config{
		Heap: heap.Config{
			RegionSize: 16 * 1024,
			PageSize:   4096,
			MaxBytes:   128 * 16 * 1024,
		},
		YoungBytes: 8 * 16 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(col)
}

func TestCodeLocRoundTrip(t *testing.T) {
	tests := []CodeLoc{
		{Class: "Class1", Method: "methodD", Line: 4},
		{Class: "org.apache.cassandra.Memtable", Method: "put", Line: 120},
	}
	for _, loc := range tests {
		parsed, err := ParseCodeLoc(loc.String())
		if err != nil {
			t.Fatalf("ParseCodeLoc(%q): %v", loc.String(), err)
		}
		if parsed != loc {
			t.Fatalf("round trip %v -> %v", loc, parsed)
		}
	}
}

func TestParseCodeLocErrors(t *testing.T) {
	for _, s := range []string{"", "noline", "Class.method:xx", "nomethod:5"} {
		if _, err := ParseCodeLoc(s); err == nil {
			t.Errorf("ParseCodeLoc(%q) should fail", s)
		}
	}
}

// Property: String/ParseCodeLoc round-trips for any dot-free method name and
// non-negative line.
func TestCodeLocRoundTripProperty(t *testing.T) {
	f := func(class, method string, line uint16) bool {
		for _, r := range class + method {
			if r == ':' || r == ';' {
				return true // separators excluded by construction
			}
		}
		if class == "" || method == "" {
			return true
		}
		for _, r := range method {
			if r == '.' {
				return true
			}
		}
		loc := CodeLoc{Class: class, Method: method, Line: int(line)}
		parsed, err := ParseCodeLoc(loc.String())
		return err == nil && parsed == loc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSiteTableInterning(t *testing.T) {
	st := NewSiteTable()
	tr1 := StackTrace{{Class: "A", Method: "m", Line: 1}, {Class: "B", Method: "n", Line: 2}}
	tr2 := StackTrace{{Class: "A", Method: "m", Line: 9}, {Class: "B", Method: "n", Line: 2}}
	id1 := st.Intern(tr1)
	id2 := st.Intern(tr2)
	if id1 == id2 {
		t.Fatal("different traces got the same id")
	}
	if got := st.Intern(tr1.Clone()); got != id1 {
		t.Fatal("re-interning a trace changed its id")
	}
	if st.Trace(id1).String() != tr1.String() {
		t.Fatal("Trace returned wrong trace")
	}
	if st.Trace(0) != nil || st.Trace(99) != nil {
		t.Fatal("Trace of unknown id should be nil")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
}

func TestThreadStackTraces(t *testing.T) {
	vm := newVM(t)
	th := vm.NewThread("worker")
	th.Enter("Main", "run")
	th.Call(10, "Class1", "methodB")
	th.Call(21, "Class1", "methodC")
	obj, err := th.Alloc(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := "Main.run:10;Class1.methodB:21;Class1.methodC:8"
	if got := vm.Sites().Trace(obj.Site).String(); got != want {
		t.Fatalf("allocation trace = %q, want %q", got, want)
	}
	th.Return()
	th.Return()
	if th.Depth() != 1 {
		t.Fatalf("depth after returns = %d, want 1", th.Depth())
	}
}

func TestAllocWithoutFrameFails(t *testing.T) {
	vm := newVM(t)
	th := vm.NewThread("t")
	if _, err := th.Alloc(1, 64); err == nil {
		t.Fatal("Alloc with empty stack should fail")
	}
}

func TestCallWithoutFramePanics(t *testing.T) {
	vm := newVM(t)
	th := vm.NewThread("t")
	defer func() {
		if recover() == nil {
			t.Fatal("Call with empty stack did not panic")
		}
	}()
	th.Call(1, "A", "m")
}

func TestAllocHookObservesAllocations(t *testing.T) {
	vm := newVM(t)
	var sites []heap.SiteID
	vm.AddAllocHook(func(site heap.SiteID, obj *heap.Object) {
		if obj == nil {
			t.Error("hook got nil object")
		}
		sites = append(sites, site)
	})
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	for i := 0; i < 3; i++ {
		if _, err := th.Alloc(5, 64); err != nil {
			t.Fatal(err)
		}
	}
	if len(sites) != 3 {
		t.Fatalf("hook saw %d allocations, want 3", len(sites))
	}
	if sites[0] != sites[1] || sites[1] != sites[2] {
		t.Fatal("same allocation site should produce same site id")
	}
}

// testPlan wraps two maps into a Plan.
type testPlan struct {
	calls   map[CodeLoc]heap.GenID
	allocs  map[CodeLoc]bool       // annotate-only sites
	directs map[CodeLoc]heap.GenID // sites carrying their own switch
}

func (p *testPlan) CallGen(loc CodeLoc) (heap.GenID, bool) {
	g, ok := p.calls[loc]
	return g, ok
}

func (p *testPlan) AllocGen(loc CodeLoc) (heap.GenID, bool, bool) {
	if g, ok := p.directs[loc]; ok {
		return g, true, true
	}
	return 0, false, p.allocs[loc]
}

// TestInstrumentationPlanSemantics executes the paper's Listing 1/Listing 2
// scenario: methodD's allocation is annotated @Gen, and the two call sites
// of methodC in methodB carry different target generations; the allocation
// through each path must land in the corresponding generation, and the
// target generation must be restored after each call.
func TestInstrumentationPlanSemantics(t *testing.T) {
	vm := newVM(t)
	pret := vm.Collector().(*ng2c.Collector)
	gen2 := pret.NewGeneration()
	gen3 := pret.NewGeneration()

	plan := &testPlan{
		calls: map[CodeLoc]heap.GenID{
			{Class: "Class1", Method: "methodB", Line: 21}: gen2,
			{Class: "Class1", Method: "methodB", Line: 26}: gen3,
		},
		allocs: map[CodeLoc]bool{
			{Class: "Class1", Method: "methodD", Line: 4}: true,
		},
	}
	vm.SetPlan(plan)

	th := vm.NewThread("t")
	th.Enter("Main", "run")
	th.Call(1, "Class1", "methodB")

	// Path one: methodB:21 -> methodC -> methodD.
	th.Call(21, "Class1", "methodC")
	if th.TargetGen() != gen2 {
		t.Fatalf("target gen inside instrumented call = %d, want %d", th.TargetGen(), gen2)
	}
	th.Call(8, "Class1", "methodD")
	obj1, err := th.Alloc(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	th.Return()
	th.Return()
	if th.TargetGen() != heap.Young {
		t.Fatal("target gen not restored after instrumented call returned")
	}

	// Path two: methodB:26 -> methodC -> methodD.
	th.Call(26, "Class1", "methodC")
	th.Call(8, "Class1", "methodD")
	obj2, err := th.Alloc(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	th.Return()
	th.Return()

	// Uninstrumented allocation in methodB itself.
	obj3, err := th.Alloc(30, 256)
	if err != nil {
		t.Fatal(err)
	}

	if obj1.Gen() != gen2 {
		t.Fatalf("path-one object in gen %d, want %d", obj1.Gen(), gen2)
	}
	if obj2.Gen() != gen3 {
		t.Fatalf("path-two object in gen %d, want %d", obj2.Gen(), gen3)
	}
	if obj3.Gen() != heap.Young {
		t.Fatalf("unannotated object in gen %d, want young", obj3.Gen())
	}
}

func TestNestedInstrumentedCallsRestoreInOrder(t *testing.T) {
	vm := newVM(t)
	pret := vm.Collector().(*ng2c.Collector)
	outer := pret.NewGeneration()
	inner := pret.NewGeneration()
	plan := &testPlan{
		calls: map[CodeLoc]heap.GenID{
			{Class: "A", Method: "m", Line: 1}: outer,
			{Class: "B", Method: "n", Line: 2}: inner,
		},
		allocs: map[CodeLoc]bool{},
	}
	vm.SetPlan(plan)
	th := vm.NewThread("t")
	th.Enter("A", "m")
	th.Call(1, "B", "n") // switches to outer
	th.Call(2, "C", "o") // switches to inner
	if th.TargetGen() != inner {
		t.Fatalf("inner target = %d, want %d", th.TargetGen(), inner)
	}
	th.Return()
	if th.TargetGen() != outer {
		t.Fatalf("after inner return target = %d, want %d", th.TargetGen(), outer)
	}
	th.Return()
	if th.TargetGen() != heap.Young {
		t.Fatal("after outer return target not restored to young")
	}
}

func TestWorkAdvancesClockWithMutatorFactor(t *testing.T) {
	vm := newVM(t)
	th := vm.NewThread("t")
	before := vm.Collector().Clock().Now()
	th.Work(100)
	elapsed := vm.Collector().Clock().Now() - before
	if elapsed <= 0 {
		t.Fatal("Work did not advance the clock")
	}
}

func TestDirectAllocDirectiveAndSwitchCount(t *testing.T) {
	vm := newVM(t)
	pret := vm.Collector().(*ng2c.Collector)
	gen := pret.NewGeneration()
	plan := &testPlan{
		calls:   map[CodeLoc]heap.GenID{},
		allocs:  map[CodeLoc]bool{},
		directs: map[CodeLoc]heap.GenID{{Class: "A", Method: "m", Line: 3}: gen},
	}
	vm.SetPlan(plan)
	th := vm.NewThread("t")
	th.Enter("A", "m")
	obj, err := th.Alloc(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != gen {
		t.Fatalf("direct-directive object in gen %d, want %d", obj.Gen(), gen)
	}
	if vm.GenSwitches() != 1 {
		t.Fatalf("GenSwitches = %d, want 1", vm.GenSwitches())
	}
	// An uninstrumented allocation performs no switch.
	if _, err := th.Alloc(9, 128); err != nil {
		t.Fatal(err)
	}
	if vm.GenSwitches() != 1 {
		t.Fatalf("GenSwitches after plain alloc = %d, want 1", vm.GenSwitches())
	}
}
