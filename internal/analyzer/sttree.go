package analyzer

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"polm2/internal/heap"
	"polm2/internal/jvm"
)

// Node is one STTree node: a code location on some allocation path,
// carrying the estimated target generation when it is a leaf (allocation
// site). This is the paper's 4-tuple of class name, method name, line
// number and target generation (§3.3).
type Node struct {
	Loc    jvm.CodeLoc
	Parent *Node
	// children is keyed by the child's code location; nil until the first
	// child arrives, so leaves carry none.
	children map[jvm.CodeLoc]*Node
	// key is Loc rendered, a substring of the canonical trace string that
	// created the node; trace is a leaf's canonical trace string, its root
	// path without the trailing ";". Every sort of nodes compares these
	// instead of rendering locations per comparison.
	key   string
	trace string
	// IsLeaf marks allocation sites. A node can be both an interior
	// call site and a leaf if a method allocates and calls on the same
	// line; the engine never produces that, but the tree tolerates it.
	IsLeaf bool
	// Gen is the leaf's estimated target generation (leaf nodes only).
	Gen int
	// Sites lists the allocation sites (interned traces) ending at this
	// leaf. A leaf node's root path is the trace itself, so one site ends
	// at it unless several sites share a trace (a fleet merge keeps each
	// uploaded spelling of a trace its own site).
	Sites []heap.SiteID
	// sub summarizes the subtree rooted here for directive placement
	// (summarize).
	sub subtree
}

// Children returns the node's children ordered by rendered code location.
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sortByKey(out)
	return out
}

// sortByKey orders nodes by rendered code location.
func sortByKey(nodes []*Node) {
	slices.SortFunc(nodes, func(a, b *Node) int { return strings.Compare(a.key, b.key) })
}

// Tree is the stack-trace tree (STTree) of §3.3.
type Tree struct {
	roots  map[jvm.CodeLoc]*Node
	leaves []*Node
}

// BuildTree merges the given traces into an STTree, attaching each trace's
// estimated target generation to its leaf.
func BuildTree(traces map[heap.SiteID]jvm.StackTrace, gens map[heap.SiteID]int) *Tree {
	ids := make([]heap.SiteID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t := &Tree{}
	for _, id := range ids {
		trace := traces[id]
		t.add(id, trace, trace.String(), gens[id])
	}
	return t
}

// add inserts site id, allocating through trace with target generation
// gen. rendered is trace.String(); every node the insertion creates takes
// its key as a substring of it. Sites are added in ascending id order.
func (t *Tree) add(id heap.SiteID, trace jvm.StackTrace, rendered string, gen int) {
	if len(trace) == 0 {
		return
	}
	siblings, node := &t.roots, (*Node)(nil)
	rest := rendered
	for _, loc := range trace {
		n := locLen(loc)
		node = child(siblings, node, loc, rest[:n])
		siblings = &node.children
		rest = rest[min(n+1, len(rest)):]
	}
	if !node.IsLeaf {
		node.IsLeaf = true
		node.trace = rendered
	}
	node.Gen = gen
	node.Sites = append(node.Sites, id)
	t.leaves = append(t.leaves, node)
}

// child returns parent's child at loc from *siblings (parent's children
// map, or the roots), creating the node, and the map, on first arrival.
func child(siblings *map[jvm.CodeLoc]*Node, parent *Node, loc jvm.CodeLoc, key string) *Node {
	c, ok := (*siblings)[loc]
	if !ok {
		if *siblings == nil {
			*siblings = make(map[jvm.CodeLoc]*Node)
		}
		c = &Node{Loc: loc, Parent: parent, key: key}
		(*siblings)[loc] = c
	}
	return c
}

// locLen is len(loc.String()), computed without rendering.
func locLen(loc jvm.CodeLoc) int {
	var line [20]byte
	return len(loc.Class) + len(loc.Method) + 2 + len(strconv.AppendInt(line[:0], int64(loc.Line), 10))
}

// renderedLen is len(trace.String()), computed without rendering.
func renderedLen(trace jvm.StackTrace) int {
	n := len(trace) - 1
	for _, loc := range trace {
		n += locLen(loc)
	}
	return n
}

// Leaves returns all leaf nodes in deterministic order: by rendered code
// location, then by rendered root path ("root;...;leaf;").
func (t *Tree) Leaves() []*Node {
	out := make([]*Node, len(t.leaves))
	copy(out, t.leaves)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loc != out[j].Loc {
			return out[i].key < out[j].key
		}
		return pathLess(out[i].trace, out[j].trace)
	})
	return out
}

// pathLess reports whether root path a+";" sorts before b+";" without
// building either: where one trace is a prefix of the other, the shorter
// one's ";" meets the longer one's next byte.
func pathLess(a, b string) bool {
	n := min(len(a), len(b))
	if a[:n] != b[:n] {
		return a < b
	}
	next := func(s string) byte {
		if len(s) == n {
			return ';'
		}
		return s[n]
	}
	return next(a) < next(b)
}

// Roots returns the root nodes ordered by rendered code location.
func (t *Tree) Roots() []*Node {
	out := make([]*Node, 0, len(t.roots))
	for _, n := range t.roots {
		out = append(out, n)
	}
	sortByKey(out)
	return out
}

// ConflictGroup is a set of leaves sharing one code location but carrying
// at least two distinct target generations — the paper's conflict (§3.3):
// the same allocation site reached through allocation paths with different
// lifetimes.
type ConflictGroup struct {
	Loc    jvm.CodeLoc
	Leaves []*Node
}

// DetectConflicts implements the detection half of Algorithm 1: group
// leaves by code location and keep the groups whose members disagree on the
// target generation.
func (t *Tree) DetectConflicts() []ConflictGroup {
	byLoc := make(map[jvm.CodeLoc][]*Node)
	for _, leaf := range t.Leaves() {
		byLoc[leaf.Loc] = append(byLoc[leaf.Loc], leaf)
	}
	var groups []ConflictGroup
	for loc, leaves := range byLoc {
		for _, l := range leaves[1:] {
			if l.Gen != leaves[0].Gen {
				groups = append(groups, ConflictGroup{Loc: loc, Leaves: leaves})
				break
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Leaves[0].key < groups[j].Leaves[0].key })
	return groups
}

// Resolution anchors one conflicting leaf's generation switch at the
// nearest ancestor whose code location distinguishes it from the other
// members of its conflict group.
type Resolution struct {
	Leaf   *Node
	Anchor *Node
}

// ResolveConflicts implements the resolution half of Algorithm 1: every
// conflicting leaf pushes its target generation to its parent until the
// current ancestors' code locations are pairwise distinct (and do not
// collide with an anchor already chosen for a different generation). Leaves
// whose ancestor chain is exhausted first are returned as unresolved.
func ResolveConflicts(groups []ConflictGroup) (resolved []Resolution, unresolved []*Node) {
	taken := make(map[jvm.CodeLoc]int) // anchor loc -> generation
	for _, group := range groups {
		type walker struct {
			leaf *Node
			cur  *Node
		}
		walkers := make([]walker, len(group.Leaves))
		for i, leaf := range group.Leaves {
			walkers[i] = walker{leaf: leaf, cur: leaf}
		}
		for len(walkers) > 0 {
			// Step every remaining walker to its parent.
			next := walkers[:0]
			for _, w := range walkers {
				if w.cur.Parent == nil {
					unresolved = append(unresolved, w.leaf)
					continue
				}
				w.cur = w.cur.Parent
				next = append(next, w)
			}
			walkers = next
			if len(walkers) == 0 {
				break
			}
			// Count occurrences of each current location.
			counts := make(map[jvm.CodeLoc]int, len(walkers))
			for _, w := range walkers {
				counts[w.cur.Loc]++
			}
			// Resolve walkers whose location is unique and not
			// already anchored to a different generation.
			next = walkers[:0]
			for _, w := range walkers {
				gen, anchored := taken[w.cur.Loc]
				if counts[w.cur.Loc] == 1 && (!anchored || gen == w.leaf.Gen) {
					taken[w.cur.Loc] = w.leaf.Gen
					resolved = append(resolved, Resolution{Leaf: w.leaf, Anchor: w.cur})
					continue
				}
				next = append(next, w)
			}
			walkers = next
		}
	}
	return resolved, unresolved
}
