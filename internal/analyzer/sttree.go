package analyzer

import (
	"sort"

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
	// children is keyed by the child's code location.
	children map[jvm.CodeLoc]*Node
	// key is Loc rendered once, when the node is created; path is a leaf's
	// root path rendered once, when the node becomes a leaf. Every sort of
	// nodes compares these instead of rendering locations per comparison.
	key  string
	path string
	// IsLeaf marks allocation sites. A node can be both an interior
	// call site and a leaf if a method allocates and calls on the same
	// line; the engine never produces that, but the tree tolerates it.
	IsLeaf bool
	// Gen is the leaf's estimated target generation (leaf nodes only).
	Gen int
	// Sites lists the allocation sites (interned traces) ending at this
	// leaf. Exactly one site ends at any leaf node, since a leaf node's
	// root path is the trace itself.
	Sites []heap.SiteID
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
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].key < nodes[j].key })
}

// Tree is the stack-trace tree (STTree) of §3.3.
type Tree struct {
	roots  map[jvm.CodeLoc]*Node
	leaves []*Node
}

// BuildTree merges the given traces into an STTree, attaching each trace's
// estimated target generation to its leaf.
func BuildTree(traces map[heap.SiteID]jvm.StackTrace, gens map[heap.SiteID]int) *Tree {
	t := &Tree{roots: make(map[jvm.CodeLoc]*Node)}
	ids := make([]heap.SiteID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		trace := traces[id]
		if len(trace) == 0 {
			continue
		}
		node := t.root(trace[0])
		for _, loc := range trace[1:] {
			node = node.child(loc)
		}
		if !node.IsLeaf {
			node.IsLeaf = true
			node.path = pathString(node)
		}
		node.Gen = gens[id]
		node.Sites = append(node.Sites, id)
		t.leaves = append(t.leaves, node)
	}
	return t
}

func (t *Tree) root(loc jvm.CodeLoc) *Node {
	n, ok := t.roots[loc]
	if !ok {
		n = &Node{Loc: loc, key: loc.String(), children: make(map[jvm.CodeLoc]*Node)}
		t.roots[loc] = n
	}
	return n
}

func (n *Node) child(loc jvm.CodeLoc) *Node {
	c, ok := n.children[loc]
	if !ok {
		c = &Node{Loc: loc, key: loc.String(), Parent: n, children: make(map[jvm.CodeLoc]*Node)}
		n.children[loc] = c
	}
	return c
}

// Leaves returns all leaf nodes in deterministic order: by rendered code
// location, then by rendered root path.
func (t *Tree) Leaves() []*Node {
	out := make([]*Node, len(t.leaves))
	copy(out, t.leaves)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loc != out[j].Loc {
			return out[i].key < out[j].key
		}
		return out[i].path < out[j].path
	})
	return out
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

// pathString renders n's root path as "root;...;n;", each location in its
// Class.Method:Line form.
func pathString(n *Node) string {
	size := 0
	for cur := n; cur != nil; cur = cur.Parent {
		size += len(cur.key) + 1
	}
	b := make([]byte, size)
	for cur := n; cur != nil; cur = cur.Parent {
		size--
		b[size] = ';'
		size -= len(cur.key)
		copy(b[size:], cur.key)
	}
	return string(b)
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
