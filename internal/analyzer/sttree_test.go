package analyzer

import (
	"math/rand"
	"sort"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/jvm"
)

func loc(class, method string, line int) jvm.CodeLoc {
	return jvm.CodeLoc{Class: class, Method: method, Line: line}
}

// listing1Traces reproduces the paper's Listing 1 / Figure 2 structure: two
// call paths through methodB -> methodC -> methodD reach the same allocation
// site in methodD with different lifetimes.
func listing1Traces() (map[heap.SiteID]jvm.StackTrace, map[heap.SiteID]int) {
	traces := map[heap.SiteID]jvm.StackTrace{
		// methodB:21 -> methodC(true):8 -> methodD:4 (long-lived)
		1: {loc("Main", "run", 1), loc("Class1", "methodB", 21), loc("Class1", "methodC", 8), loc("Class1", "methodD", 4)},
		// methodB:26 -> methodC(false):10 -> methodD:4 (short-lived)
		2: {loc("Main", "run", 1), loc("Class1", "methodB", 26), loc("Class1", "methodC", 10), loc("Class1", "methodD", 4)},
	}
	gens := map[heap.SiteID]int{1: 2, 2: 0}
	return traces, gens
}

func TestBuildTreeStructure(t *testing.T) {
	traces, gens := listing1Traces()
	tree := BuildTree(traces, gens)
	roots := tree.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if roots[0].Loc != loc("Main", "run", 1) {
		t.Fatalf("root loc = %v", roots[0].Loc)
	}
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(leaves))
	}
	for _, l := range leaves {
		if l.Loc != loc("Class1", "methodD", 4) {
			t.Fatalf("leaf loc = %v", l.Loc)
		}
		if !l.IsLeaf {
			t.Fatal("leaf not marked leaf")
		}
	}
	if leaves[0].Gen == leaves[1].Gen {
		t.Fatal("leaves should carry distinct target generations")
	}
}

func TestDetectConflicts(t *testing.T) {
	traces, gens := listing1Traces()
	tree := BuildTree(traces, gens)
	groups := tree.DetectConflicts()
	if len(groups) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(groups))
	}
	if groups[0].Loc != loc("Class1", "methodD", 4) {
		t.Fatalf("conflict loc = %v", groups[0].Loc)
	}
	if len(groups[0].Leaves) != 2 {
		t.Fatalf("conflict group size = %d, want 2", len(groups[0].Leaves))
	}
}

func TestNoConflictWhenGensAgree(t *testing.T) {
	traces, _ := listing1Traces()
	gens := map[heap.SiteID]int{1: 2, 2: 2}
	tree := BuildTree(traces, gens)
	if groups := tree.DetectConflicts(); len(groups) != 0 {
		t.Fatalf("agreeing leaves reported as conflict: %v", groups)
	}
}

func TestResolveConflictsAnchorsAtDivergence(t *testing.T) {
	traces, gens := listing1Traces()
	tree := BuildTree(traces, gens)
	groups := tree.DetectConflicts()
	resolved, unresolved := ResolveConflicts(groups)
	if len(unresolved) != 0 {
		t.Fatalf("unresolved = %d, want 0", len(unresolved))
	}
	if len(resolved) != 2 {
		t.Fatalf("resolved = %d, want 2", len(resolved))
	}
	// The paths diverge at methodC's internal line (8 vs 10): the
	// anchors must be the two methodC nodes.
	wantAnchors := map[jvm.CodeLoc]bool{
		loc("Class1", "methodC", 8):  true,
		loc("Class1", "methodC", 10): true,
	}
	for _, r := range resolved {
		if !wantAnchors[r.Anchor.Loc] {
			t.Fatalf("unexpected anchor %v", r.Anchor.Loc)
		}
		delete(wantAnchors, r.Anchor.Loc)
	}
}

// TestResolveConflictsDeepDivergence exercises paths that share several
// ancestor locations before diverging.
func TestResolveConflictsDeepDivergence(t *testing.T) {
	traces := map[heap.SiteID]jvm.StackTrace{
		1: {loc("M", "r", 1), loc("A", "x", 5), loc("B", "y", 7), loc("C", "z", 9)},
		2: {loc("M", "r", 2), loc("A", "x", 5), loc("B", "y", 7), loc("C", "z", 9)},
	}
	gens := map[heap.SiteID]int{1: 3, 2: 1}
	tree := BuildTree(traces, gens)
	groups := tree.DetectConflicts()
	if len(groups) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(groups))
	}
	resolved, unresolved := ResolveConflicts(groups)
	if len(unresolved) != 0 || len(resolved) != 2 {
		t.Fatalf("resolved/unresolved = %d/%d, want 2/0", len(resolved), len(unresolved))
	}
	// Divergence is at the very root (M.r:1 vs M.r:2).
	for _, r := range resolved {
		if r.Anchor.Loc.Class != "M" {
			t.Fatalf("anchor %v should be at the diverging root", r.Anchor.Loc)
		}
	}
}

func TestResolveConflictsThreeWay(t *testing.T) {
	traces := map[heap.SiteID]jvm.StackTrace{
		1: {loc("M", "r", 1), loc("H", "make", 3)},
		2: {loc("M", "r", 2), loc("H", "make", 3)},
		3: {loc("M", "r", 4), loc("H", "make", 3)},
	}
	gens := map[heap.SiteID]int{1: 1, 2: 2, 3: 0}
	tree := BuildTree(traces, gens)
	groups := tree.DetectConflicts()
	resolved, unresolved := ResolveConflicts(groups)
	if len(unresolved) != 0 {
		t.Fatalf("unresolved = %d, want 0", len(unresolved))
	}
	if len(resolved) != 3 {
		t.Fatalf("resolved = %d, want 3", len(resolved))
	}
	seen := make(map[jvm.CodeLoc]bool)
	for _, r := range resolved {
		if seen[r.Anchor.Loc] {
			t.Fatalf("anchor %v reused", r.Anchor.Loc)
		}
		seen[r.Anchor.Loc] = true
	}
}

// TestTreeOrderMatchesRenderedOrder pins the STTree's orders to the
// rendered Class.Method:Line strings, computed here per comparison the
// slow way, over random trees whose locations make numeric and rendered
// order disagree: lines 9, 10 and 100 ("100" < "9"), class a beside a.B,
// methods sharing a prefix. Nodes cache their rendered keys; this is the
// check that the caches order exactly what rendering would.
func TestTreeOrderMatchesRenderedOrder(t *testing.T) {
	classes := []string{"a", "a.B", "a.Bc", "ab"}
	methods := []string{"ru", "run", "run2", "runner"}
	lines := []int{1, 9, 10, 11, 19, 100}
	renderedPath := func(n *Node) string {
		var s string
		for cur := n; cur != nil; cur = cur.Parent {
			s = cur.Loc.String() + ";" + s
		}
		return s
	}
	sortRendered := func(nodes []*Node) []*Node {
		out := append([]*Node(nil), nodes...)
		sort.Slice(out, func(i, j int) bool { return out[i].Loc.String() < out[j].Loc.String() })
		return out
	}
	samePointers := func(what string, got, want []*Node) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d nodes, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds %s, rendered order wants %s", what, i, renderedPath(got[i]), renderedPath(want[i]))
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		traces := make(map[heap.SiteID]jvm.StackTrace)
		gens := make(map[heap.SiteID]int)
		n := 1 + rng.Intn(40)
		for id := heap.SiteID(1); id <= heap.SiteID(n); id++ {
			trace := make(jvm.StackTrace, 1+rng.Intn(5))
			for i := range trace {
				trace[i] = jvm.CodeLoc{
					Class:  classes[rng.Intn(len(classes))],
					Method: methods[rng.Intn(len(methods))],
					Line:   lines[rng.Intn(len(lines))],
				}
			}
			traces[id], gens[id] = trace, rng.Intn(4)
		}
		tree := BuildTree(traces, gens)

		roots := make([]*Node, 0, len(tree.roots))
		for _, n := range tree.roots {
			roots = append(roots, n)
		}
		samePointers("Roots", tree.Roots(), sortRendered(roots))
		var walk func(n *Node)
		walk = func(n *Node) {
			children := make([]*Node, 0, len(n.children))
			for _, c := range n.children {
				children = append(children, c)
			}
			samePointers("Children of "+renderedPath(n), n.Children(), sortRendered(children))
			for _, c := range children {
				walk(c)
			}
		}
		for _, r := range roots {
			walk(r)
		}

		want := append([]*Node(nil), tree.leaves...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Loc != want[j].Loc {
				return want[i].Loc.String() < want[j].Loc.String()
			}
			return renderedPath(want[i]) < renderedPath(want[j])
		})
		samePointers("Leaves", tree.Leaves(), want)

		byLoc := make(map[jvm.CodeLoc][]*Node)
		for _, l := range want {
			byLoc[l.Loc] = append(byLoc[l.Loc], l)
		}
		var wantGroups []ConflictGroup
		for loc, leaves := range byLoc {
			distinct := make(map[int]bool)
			for _, l := range leaves {
				distinct[l.Gen] = true
			}
			if len(distinct) > 1 {
				wantGroups = append(wantGroups, ConflictGroup{Loc: loc, Leaves: leaves})
			}
		}
		sort.Slice(wantGroups, func(i, j int) bool { return wantGroups[i].Loc.String() < wantGroups[j].Loc.String() })
		groups := tree.DetectConflicts()
		if len(groups) != len(wantGroups) {
			t.Fatalf("seed %d: %d conflict groups, want %d", seed, len(groups), len(wantGroups))
		}
		for i := range groups {
			if groups[i].Loc != wantGroups[i].Loc {
				t.Fatalf("seed %d: conflict group %d at %v, rendered order wants %v", seed, i, groups[i].Loc, wantGroups[i].Loc)
			}
			samePointers("conflict group "+groups[i].Loc.String(), groups[i].Leaves, wantGroups[i].Leaves)
		}
	}
}

// TestLeafOrderAtPathSeparator pins Leaves() to root-path order with the
// trailing separator: the second trace's second frame parses as class
// "L.l:1", method "z", so its path "P.p:1;L.l:1.z:2;L.l:1;" sorts before
// "P.p:1;L.l:1;" ('.' < ';') although the first trace's bare string is a
// prefix of the second's.
func TestLeafOrderAtPathSeparator(t *testing.T) {
	traces := make(map[heap.SiteID]jvm.StackTrace)
	for i, s := range []string{"P.p:1;L.l:1", "P.p:1;L.l:1.z:2;L.l:1"} {
		tr, err := jvm.ParseStackTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		traces[heap.SiteID(i+1)] = tr
	}
	tree := BuildTree(traces, map[heap.SiteID]int{1: 1, 2: 2})
	leaves := tree.Leaves()
	if len(leaves) != 2 || leaves[0].Sites[0] != 2 || leaves[1].Sites[0] != 1 {
		t.Fatalf("leaf order = %v, want site 2 then site 1", leafSites(leaves))
	}
	if n := len(tree.DetectConflicts()); n != 1 {
		t.Fatalf("conflicts = %d, want 1", n)
	}
}

func leafSites(leaves []*Node) [][]heap.SiteID {
	out := make([][]heap.SiteID, len(leaves))
	for i, l := range leaves {
		out[i] = l.Sites
	}
	return out
}
