package analyzer

import (
	"fmt"
	"math/rand"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/jvm"
)

// randomTraces builds a random trace set over a deliberately tiny location
// alphabet, so traces share prefixes and suffixes often and allocation
// sites get reached through multiple paths — the situation Algorithm 1
// exists for.
func randomTraces(rng *rand.Rand) (map[heap.SiteID]jvm.StackTrace, map[heap.SiteID]int) {
	traces := make(map[heap.SiteID]jvm.StackTrace)
	gens := make(map[heap.SiteID]int)
	n := 1 + rng.Intn(20)
	for id := heap.SiteID(1); id <= heap.SiteID(n); id++ {
		depth := 1 + rng.Intn(6)
		trace := make(jvm.StackTrace, depth)
		for i := range trace {
			trace[i] = jvm.CodeLoc{
				Class:  fmt.Sprintf("C%d", rng.Intn(3)),
				Method: fmt.Sprintf("m%d", rng.Intn(3)),
				Line:   1 + rng.Intn(4),
			}
		}
		traces[id] = trace
		gens[id] = rng.Intn(4)
	}
	return traces, gens
}

// leafPaths renders every leaf's root path with its generation — a
// structural fingerprint of the tree.
func leafPaths(tr *Tree) []string {
	var out []string
	for _, l := range tr.Leaves() {
		out = append(out, fmt.Sprintf("%s gen=%d sites=%v", l.trace, l.Gen, l.Sites))
	}
	return out
}

// FuzzSTTreeConflicts drives BuildTree, DetectConflicts and
// ResolveConflicts over randomized trace sets and checks the algorithm's
// invariants. The seed corpus makes `go test` itself a property test;
// `go test -fuzz=FuzzSTTreeConflicts` explores further.
func FuzzSTTreeConflicts(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		traces, gens := randomTraces(rng)

		tree := BuildTree(traces, gens)
		groups := tree.DetectConflicts()

		// Building the same traces again yields the same tree and the
		// same conflicts: the pipeline must not depend on map iteration
		// order.
		tree2 := BuildTree(traces, gens)
		if a, b := fmt.Sprint(leafPaths(tree)), fmt.Sprint(leafPaths(tree2)); a != b {
			t.Fatalf("tree structure not deterministic:\n%s\nvs\n%s", a, b)
		}
		groups2 := tree2.DetectConflicts()
		if len(groups) != len(groups2) {
			t.Fatalf("conflict count not deterministic: %d vs %d", len(groups), len(groups2))
		}
		for i := range groups {
			if groups[i].Loc != groups2[i].Loc || len(groups[i].Leaves) != len(groups2[i].Leaves) {
				t.Fatalf("conflict group %d differs across rebuilds", i)
			}
		}

		// A conflict group's members all sit at the group location and
		// disagree on the target generation.
		for _, g := range groups {
			if len(g.Leaves) < 2 {
				t.Fatalf("conflict group %v has %d leaves", g.Loc, len(g.Leaves))
			}
			distinct := make(map[int]struct{})
			for _, l := range g.Leaves {
				if l.Loc != g.Loc {
					t.Fatalf("leaf at %v grouped under %v", l.Loc, g.Loc)
				}
				distinct[l.Gen] = struct{}{}
			}
			if len(distinct) < 2 {
				t.Fatalf("conflict group %v members agree on generation", g.Loc)
			}
		}

		// Detection is complete: recompute the expected conflict
		// locations independently.
		expect := make(map[jvm.CodeLoc]map[int]struct{})
		for _, l := range tree.Leaves() {
			if expect[l.Loc] == nil {
				expect[l.Loc] = make(map[int]struct{})
			}
			expect[l.Loc][l.Gen] = struct{}{}
		}
		want := 0
		for _, gens := range expect {
			if len(gens) > 1 {
				want++
			}
		}
		if len(groups) != want {
			t.Fatalf("detected %d conflict groups, want %d", len(groups), want)
		}

		resolved, unresolved := ResolveConflicts(groups)

		// Resolution partitions the conflicting leaves: each appears
		// exactly once, as a resolution or as unresolved.
		seen := make(map[*Node]int)
		for _, r := range resolved {
			seen[r.Leaf]++
		}
		for _, l := range unresolved {
			seen[l]++
		}
		for _, g := range groups {
			for _, l := range g.Leaves {
				if seen[l] != 1 {
					t.Fatalf("leaf %s appears %d times in resolution output", l.trace, seen[l])
				}
				delete(seen, l)
			}
		}
		if len(seen) != 0 {
			t.Fatalf("%d resolution entries for leaves outside any conflict group", len(seen))
		}

		// Every anchor is a proper ancestor of its leaf, and anchors
		// never serve two generations at one code location.
		anchorGen := make(map[jvm.CodeLoc]int)
		for _, r := range resolved {
			found := false
			for cur := r.Leaf.Parent; cur != nil; cur = cur.Parent {
				if cur == r.Anchor {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("anchor %v is not an ancestor of leaf %s", r.Anchor.Loc, r.Leaf.trace)
			}
			if gen, ok := anchorGen[r.Anchor.Loc]; ok && gen != r.Leaf.Gen {
				t.Fatalf("anchor location %v serves generations %d and %d", r.Anchor.Loc, gen, r.Leaf.Gen)
			}
			anchorGen[r.Anchor.Loc] = r.Leaf.Gen
		}
	})
}
