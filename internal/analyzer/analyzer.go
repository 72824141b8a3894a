package analyzer

import (
	"fmt"
	"slices"
	"sort"

	"polm2/internal/jvm"
	"polm2/internal/snapshot"
)

// The estimation thresholds of §3.3.
const (
	// minSamples is the minimum number of recorded allocations before a
	// site is considered for instrumentation.
	minSamples = 12
	// minOldFraction is the fraction of a site's objects that must
	// survive at least one snapshot before the site is pretenured: if
	// most objects die young, the weak generational hypothesis already
	// serves the site well.
	minOldFraction = 0.5
	// maxGen caps the target generation.
	maxGen = 32
	// clusterGap merges estimated target generations whose survival
	// counts differ by at most this amount before the STTree is built,
	// then renumbers the clusters densely from 1. Two sites whose
	// objects die three and four snapshots in belong together: NG2C
	// generations are lifetime groups, not ordered ages, so dense
	// renumbering is safe and keeps the generation count meaningful
	// (Table 1).
	clusterGap = 4
	// confidenceFloor is the minimum trusted fraction 1 - Tainted/Allocated
	// of a site's evidence: a site below it is degraded to the safe
	// young/dynamic fallback (generation zero) rather than instrumented
	// from evidence that may be misleading. The salvage walk taints every
	// allocation of a stream that decoded below the floor, and a fleet
	// merge sums the taint, so one test decides for both.
	confidenceFloor = 0.5
)

// Options tunes the Analyzer. The zero value selects the paper's behaviour.
type Options struct {
	// Estimator selects the lifetime estimator. Default EstimatorMode
	// (the paper's).
	Estimator Estimator
	// DisableConflictResolution skips Algorithm 1 (ablation): conflicted
	// sites collapse to the highest conflicting generation, mimicking
	// what a programmer annotating the allocation site directly would
	// get.
	DisableConflictResolution bool
	// DisableHoisting skips the §4.4 call-reduction optimization
	// (ablation): every instrumented site carries its own generation
	// switch.
	DisableHoisting bool
	// App and Workload label the resulting profile.
	App      string
	Workload string
}

func (o Options) withDefaults() Options {
	if o.Estimator == 0 {
		o.Estimator = EstimatorMode
	}
	return o
}

// Analyze runs the full §3.3 pipeline — evidence gathering, target-generation
// estimation, STTree construction, conflict detection and resolution, and
// directive emission — strictly: it is AnalyzeSalvage refusing any artifact
// that did not decode completely. It returns the first failure that
// analysis met, in walk order: the site table's, then the lowest site's
// stream's, each wrapping recorder.ErrCorrupt or recorder.ErrTruncated (a
// live stream without its commit trailer is refused too); then the
// serial-window refusal and any other error of AnalyzeSalvage.
func Analyze(recordsDir string, snaps []*snapshot.Snapshot, opts Options) (*Profile, error) {
	return strict(AnalyzeSalvage(recordsDir, snaps, opts))
}

// strict turns a salvage walk's result into a strict one: the report's
// first failure, if any, wins over err and refuses the profile.
func strict(prof *Profile, rep *SalvageReport, err error) (*Profile, error) {
	if rep != nil && rep.first != nil {
		err = rep.first
	}
	if err != nil {
		return nil, err
	}
	return prof, nil
}

// synthesize runs the second half of §3.3 — estimation, STTree, conflict
// resolution, directive emission — over gathered evidence, given in
// ascending site id order. Sites whose trusted fraction falls below
// confidenceFloor are forced to generation zero, the fallback for evidence
// too damaged to trust.
func synthesize(sites []*siteEvidence, opts Options) (*Profile, error) {
	gens := make([]int, len(sites))
	for i, ev := range sites {
		if ev.total > 0 && 1-float64(ev.tainted)/float64(ev.total) < confidenceFloor {
			continue
		}
		gens[i] = ev.targetGen(opts.Estimator)
	}
	clusterGenerations(gens)

	tree := &Tree{}
	for i, ev := range sites {
		tree.add(ev.id, ev.trace, ev.traceString, gens[i])
	}
	groups := tree.DetectConflicts()

	p := &Profile{App: opts.App, Workload: opts.Workload, Conflicts: len(groups)}

	conflictedLeaf := make(map[*Node]bool)
	for _, g := range groups {
		for _, leaf := range g.Leaves {
			conflictedLeaf[leaf] = true
		}
	}

	taken := make(map[jvm.CodeLoc]int) // call-directive loc -> generation
	annotated := make(map[jvm.CodeLoc]bool)
	directGens := make(map[jvm.CodeLoc]int)

	if opts.DisableConflictResolution {
		// Ablation: collapse each conflicted location to its highest
		// generation and instrument the allocation site directly.
		for _, g := range groups {
			maxGen := 0
			for _, leaf := range g.Leaves {
				if leaf.Gen > maxGen {
					maxGen = leaf.Gen
				}
			}
			if maxGen > 0 {
				directGens[g.Loc] = maxGen
			}
		}
	} else {
		resolved, unresolved := ResolveConflicts(groups)
		p.Unresolved = len(unresolved)
		for _, r := range resolved {
			if r.Leaf.Gen == 0 {
				// A young path through a shared allocation site
				// needs no switch: the default target
				// generation is young.
				continue
			}
			taken[r.Anchor.Loc] = r.Leaf.Gen
			p.Calls = append(p.Calls, CallDirective{Loc: r.Anchor.key, Gen: r.Leaf.Gen})
			annotated[r.Leaf.Loc] = true
		}
	}

	// Cover the non-conflicted instrumentable leaves, hoisting uniform
	// subtrees per §4.4 unless disabled.
	var cover func(n *Node)
	cover = func(n *Node) {
		if g := n.sub.gen; !n.sub.conflict && g > 0 && !opts.DisableHoisting {
			if n.IsLeaf && len(n.children) == 0 {
				mergeDirect(directGens, n.Loc, g)
				return
			}
			if existing, ok := taken[n.Loc]; !ok || existing == g {
				taken[n.Loc] = g
				p.Calls = append(p.Calls, CallDirective{Loc: n.key, Gen: g})
				markAnnotated(n, conflictedLeaf, annotated)
				return
			}
			// The location is already switched to a different
			// generation on another path: fall through and place
			// directives deeper.
		}
		if n.IsLeaf && !conflictedLeaf[n] && n.Gen > 0 {
			mergeDirect(directGens, n.Loc, n.Gen)
		}
		for _, c := range n.Children() {
			cover(c)
		}
	}
	for _, root := range tree.Roots() {
		summarize(root, conflictedLeaf)
		cover(root)
	}

	// Emit allocation directives: direct sites carry their generation,
	// annotate-only sites defer to the enclosing call directive.
	for loc, g := range directGens {
		p.Allocs = append(p.Allocs, AllocDirective{Loc: loc.String(), Gen: g, Direct: true})
	}
	for loc := range annotated {
		if _, isDirect := directGens[loc]; isDirect {
			continue
		}
		p.Allocs = append(p.Allocs, AllocDirective{Loc: loc.String(), Gen: 0})
	}

	// The production phase creates max-generation generations at launch.
	for _, d := range p.Allocs {
		if d.Gen > p.Generations {
			p.Generations = d.Gen
		}
	}
	for _, d := range p.Calls {
		if d.Gen > p.Generations {
			p.Generations = d.Gen
		}
	}

	// Per-site evidence for diagnostics and Table 1.
	for i, ev := range sites {
		p.Sites = append(p.Sites, SiteStat{
			Trace:     ev.traceString,
			Allocated: ev.total,
			Buckets:   trimBuckets(ev.survived),
			Gen:       gens[i],
			Tainted:   ev.tainted,
		})
	}

	p.sortDirectives()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("analyzer: produced invalid profile: %w", err)
	}
	return p, nil
}

// subtree summarizes the leaves under a node for directive placement: gen
// is their one positive generation among non-conflicted leaves (0 when
// they have none, -1 when they have several), conflict whether any leaf
// is conflicted.
type subtree struct {
	gen      int
	conflict bool
}

// join combines two sibling summaries.
func (a subtree) join(b subtree) subtree {
	a.conflict = a.conflict || b.conflict
	switch {
	case b.gen == 0:
	case a.gen == 0:
		a.gen = b.gen
	case a.gen != b.gen:
		a.gen = -1
	}
	return a
}

// summarize fills in the subtree summary of n and of every node under it,
// children first, and returns n's.
func summarize(n *Node, conflicted map[*Node]bool) subtree {
	var s subtree
	if n.IsLeaf {
		if conflicted[n] {
			s.conflict = true
		} else if n.Gen > 0 {
			s.gen = n.Gen
		}
	}
	for _, c := range n.children {
		s = s.join(summarize(c, conflicted))
	}
	n.sub = s
	return s
}

// markAnnotated annotates every instrumentable leaf location under n.
func markAnnotated(n *Node, conflicted map[*Node]bool, annotated map[jvm.CodeLoc]bool) {
	if n.IsLeaf && !conflicted[n] && n.Gen > 0 {
		annotated[n.Loc] = true
	}
	for _, c := range n.children {
		markAnnotated(c, conflicted, annotated)
	}
}

// mergeDirect records a direct allocation directive, keeping the highest
// generation if the same location is reached with several (non-conflicting
// groups always agree, so a disagreement here can only come from the
// conflict-resolution ablation).
func mergeDirect(directGens map[jvm.CodeLoc]int, loc jvm.CodeLoc, gen int) {
	if existing, ok := directGens[loc]; !ok || gen > existing {
		directGens[loc] = gen
	}
}

// clusterGenerations merges raw survival-count generations separated by at
// most clusterGap and renumbers the resulting lifetime clusters densely
// from 1.
func clusterGenerations(gens []int) {
	var sorted []int
	for _, g := range gens {
		if g > 0 {
			sorted = append(sorted, g)
		}
	}
	if len(sorted) == 0 {
		return
	}
	sort.Ints(sorted)
	sorted = slices.Compact(sorted)
	remap := make(map[int]int, len(sorted))
	cluster := 1
	remap[sorted[0]] = cluster
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] > clusterGap {
			cluster++
		}
		remap[sorted[i]] = cluster
	}
	for i, g := range gens {
		if g > 0 {
			gens[i] = remap[g]
		}
	}
}

// trimBuckets drops trailing zero buckets to keep profiles compact.
func trimBuckets(b []uint64) []uint64 {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	out := make([]uint64, end)
	copy(out, b[:end])
	return out
}
