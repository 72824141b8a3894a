// Package instrument implements the Instrumenter component of POLM2 (§3.4):
// it takes an application allocation profile and applies it to the running
// application.
//
// The paper's Instrumenter is a Java agent that rewrites bytecode at class
// load time; here the equivalent is a Plan the execution engine consults at
// every call and allocation site (the substitution is documented in
// DESIGN.md). At launch the Instrumenter creates the generations the
// profile needs by calling the collector's NewGeneration — exactly the
// paper's "generations necessary to accommodate application objects are
// automatically created at launch time".
//
// Per §4.5 the Instrumenter is the only GC-specific component: it resolves
// abstract profile generations through the gc.Pretenuring interface, so any
// pretenuring collector can be driven by the same profile.
package instrument

import (
	"fmt"

	"polm2/internal/analyzer"
	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/jvm"
)

// Plan is an instrumentation plan with all abstract generations resolved to
// collector generations. It implements jvm.Plan.
type Plan struct {
	calls  map[jvm.CodeLoc]heap.GenID
	allocs map[jvm.CodeLoc]allocRule
	// gens maps abstract generation index (1-based) to the collector
	// generation created for it.
	gens []heap.GenID
}

var _ jvm.Plan = (*Plan)(nil)

// allocRule is the directive at one annotated allocation site: a direct
// site switches to gen itself, any other allocates into the thread's
// current target generation.
type allocRule struct {
	gen    heap.GenID
	direct bool
}

// Apply resolves profile against the collector: it creates the required
// generations and builds the executable plan. It fails on malformed
// profiles rather than silently instrumenting the wrong locations.
func Apply(p *analyzer.Profile, pret gc.Pretenuring) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	plan := &Plan{
		calls:  make(map[jvm.CodeLoc]heap.GenID, len(p.Calls)),
		allocs: make(map[jvm.CodeLoc]allocRule, len(p.Allocs)),
		gens:   make([]heap.GenID, p.Generations),
	}
	for i := range plan.gens {
		plan.gens[i] = pret.NewGeneration()
	}
	resolve := func(abstract int) heap.GenID { return plan.gens[abstract-1] }

	for _, d := range p.Calls {
		loc, err := jvm.ParseCodeLoc(d.Loc)
		if err != nil {
			return nil, fmt.Errorf("instrument: call directive: %w", err)
		}
		if existing, ok := plan.calls[loc]; ok && existing != resolve(d.Gen) {
			return nil, fmt.Errorf("instrument: conflicting call directives at %v", loc)
		}
		plan.calls[loc] = resolve(d.Gen)
	}
	for _, d := range p.Allocs {
		loc, err := jvm.ParseCodeLoc(d.Loc)
		if err != nil {
			return nil, fmt.Errorf("instrument: alloc directive: %w", err)
		}
		rule := plan.allocs[loc]
		if d.Direct {
			if d.Gen < 1 {
				return nil, fmt.Errorf("instrument: direct alloc directive at %v without generation", loc)
			}
			if rule.direct && rule.gen != resolve(d.Gen) {
				return nil, fmt.Errorf("instrument: conflicting direct directives at %v", loc)
			}
			rule = allocRule{gen: resolve(d.Gen), direct: true}
		}
		plan.allocs[loc] = rule
	}
	return plan, nil
}

// CallGen implements jvm.Plan.
func (pl *Plan) CallGen(loc jvm.CodeLoc) (heap.GenID, bool) {
	g, ok := pl.calls[loc]
	return g, ok
}

// AllocGen implements jvm.Plan.
func (pl *Plan) AllocGen(loc jvm.CodeLoc) (heap.GenID, bool, bool) {
	r, ok := pl.allocs[loc]
	return r.gen, r.direct, ok
}

// Generations returns the collector generations created at launch, indexed
// by abstract generation (1-based abstract index i is Generations()[i-1]).
func (pl *Plan) Generations() []heap.GenID {
	out := make([]heap.GenID, len(pl.gens))
	copy(out, pl.gens)
	return out
}

// RewrittenLocations returns how many code locations the plan touches —
// the paper's instrumentation footprint.
func (pl *Plan) RewrittenLocations() int {
	return len(pl.calls) + len(pl.allocs)
}
