package instrument

import (
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/simclock"
)

func newCollector(t *testing.T) *ng2c.Collector {
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
	return col
}

func TestApplyCreatesGenerationsAtLaunch(t *testing.T) {
	col := newCollector(t)
	p := &analyzer.Profile{
		Generations: 3,
		Allocs: []analyzer.AllocDirective{
			{Loc: "A.m:1", Gen: 3, Direct: true},
			{Loc: "B.n:2", Gen: 0},
		},
		Calls: []analyzer.CallDirective{{Loc: "C.o:5", Gen: 1}},
	}
	plan, err := Apply(p, col)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Generations(); got != 5 { // young + old + 3 dynamic
		t.Fatalf("collector generations = %d, want 5", got)
	}
	gens := plan.Generations()
	if len(gens) != 3 {
		t.Fatalf("plan generations = %d, want 3", len(gens))
	}

	// Call directive resolves abstract gen 1 to the first created
	// generation.
	g, ok := plan.CallGen(jvm.CodeLoc{Class: "C", Method: "o", Line: 5})
	if !ok || g != gens[0] {
		t.Fatalf("CallGen = %d/%v, want %d", g, ok, gens[0])
	}
	if _, ok := plan.CallGen(jvm.CodeLoc{Class: "X", Method: "y", Line: 1}); ok {
		t.Fatal("CallGen matched unknown location")
	}

	// Direct alloc directive resolves abstract gen 3.
	g, explicit, annotated := plan.AllocGen(jvm.CodeLoc{Class: "A", Method: "m", Line: 1})
	if !annotated || !explicit || g != gens[2] {
		t.Fatalf("AllocGen direct = (%d,%v,%v), want (%d,true,true)", g, explicit, annotated, gens[2])
	}

	// Annotate-only directive.
	_, explicit, annotated = plan.AllocGen(jvm.CodeLoc{Class: "B", Method: "n", Line: 2})
	if !annotated || explicit {
		t.Fatalf("AllocGen annotate-only = (%v,%v), want (false,true)", explicit, annotated)
	}

	// Unknown location.
	_, explicit, annotated = plan.AllocGen(jvm.CodeLoc{Class: "Z", Method: "z", Line: 9})
	if annotated || explicit {
		t.Fatal("AllocGen matched unknown location")
	}

	if plan.RewrittenLocations() != 3 {
		t.Fatalf("RewrittenLocations = %d, want 3", plan.RewrittenLocations())
	}
}

func TestApplyRejectsInvalidProfiles(t *testing.T) {
	col := newCollector(t)
	bad := []*analyzer.Profile{
		{Generations: 1, Allocs: []analyzer.AllocDirective{{Loc: "junk", Gen: 1}}},
		{Generations: 1, Calls: []analyzer.CallDirective{{Loc: "A.m:1", Gen: 9}}},
		{Generations: -2},
	}
	for i, p := range bad {
		if _, err := Apply(p, col); err == nil {
			t.Errorf("profile %d should be rejected", i)
		}
	}
}

func TestApplyRejectsConflictingDirectives(t *testing.T) {
	col := newCollector(t)
	p := &analyzer.Profile{
		Generations: 2,
		Calls: []analyzer.CallDirective{
			{Loc: "A.m:1", Gen: 1},
			{Loc: "A.m:1", Gen: 2},
		},
	}
	if _, err := Apply(p, col); err == nil {
		t.Fatal("conflicting call directives should be rejected")
	}
}

// TestDirectAndAnnotatedDirectivesAtOneLocation pins the one rule per
// allocation site: a direct directive wins over an annotate-only one at the
// same location, in either order, and the location counts once.
func TestDirectAndAnnotatedDirectivesAtOneLocation(t *testing.T) {
	direct := analyzer.AllocDirective{Loc: "A.m:1", Gen: 2, Direct: true}
	annotated := analyzer.AllocDirective{Loc: "A.m:1", Gen: 0}
	loc := jvm.CodeLoc{Class: "A", Method: "m", Line: 1}
	for _, allocs := range [][]analyzer.AllocDirective{{direct, annotated}, {annotated, direct}} {
		plan, err := Apply(&analyzer.Profile{Generations: 2, Allocs: allocs}, newCollector(t))
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Generations()[1]
		if g, explicit, ok := plan.AllocGen(loc); !ok || !explicit || g != want {
			t.Errorf("%+v: AllocGen = (%d,%v,%v), want (%d,true,true)", allocs, g, explicit, ok, want)
		}
		if got := plan.RewrittenLocations(); got != 1 {
			t.Errorf("%+v: RewrittenLocations = %d, want 1", allocs, got)
		}
	}

	conflicting := &analyzer.Profile{Generations: 2, Allocs: []analyzer.AllocDirective{
		direct, annotated, {Loc: "A.m:1", Gen: 1, Direct: true},
	}}
	if _, err := Apply(conflicting, newCollector(t)); err == nil {
		t.Fatal("direct directives with different generations at one location should be rejected")
	}
}

// TestProductionRunPretenures closes the loop: a plan built from a profile
// steers allocations into the right generations during execution.
func TestProductionRunPretenures(t *testing.T) {
	col := newCollector(t)
	vm := jvm.New(col)
	p := &analyzer.Profile{
		Generations: 1,
		Allocs:      []analyzer.AllocDirective{{Loc: "Helper.make:3", Gen: 0}},
		Calls:       []analyzer.CallDirective{{Loc: "Main.run:20", Gen: 1}},
	}
	plan, err := Apply(p, col)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetPlan(plan)
	gen := plan.Generations()[0]

	th := vm.NewThread("app")
	th.Enter("Main", "run")

	th.Call(20, "Helper", "make")
	kept, err := th.Alloc(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	th.Return()

	th.Call(30, "Helper", "make")
	dropped, err := th.Alloc(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	th.Return()

	if kept.Gen() != gen {
		t.Fatalf("keep-path object in gen %d, want %d", kept.Gen(), gen)
	}
	if dropped.Gen() != heap.Young {
		t.Fatalf("drop-path object in gen %d, want young", dropped.Gen())
	}
}
