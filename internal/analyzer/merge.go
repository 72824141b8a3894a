package analyzer

import (
	"fmt"
	"sort"

	"polm2/internal/heap"
	"polm2/internal/jvm"
)

// MergeProfiles combines the per-site evidence of several profiles of the
// same (application, workload) into one fleet profile and re-runs the full
// §3.3 synthesis — estimation, clustering, STTree, conflict resolution,
// directive emission — over the merged evidence.
//
// The fold is deterministic and order-independent: per-site allocation
// totals, survival buckets and tainted counts are plain sums, sites are
// keyed and sorted by their stack-trace string before synthesis, and every
// downstream decision is a pure function of the summed values. Merging is
// therefore commutative AND associative — N instances uploading partial
// profiles converge to the same fleet plan whether their evidence arrives
// in one batch or drips in one upload at a time, in any order.
//
// The confidence floor is reapplied post-merge by the one rule synthesis
// applies to every site: a site whose merged trusted fraction
// 1 - Tainted/Allocated falls below the floor is degraded to the
// young/dynamic fallback (generation zero), exactly as AnalyzeSalvage
// degrades a damaged stream. Tainted counts themselves stay pure sums, so
// the degrade decision re-derives identically on every subsequent merge.
//
// Profiles with empty App/Workload labels adopt the labels of the merge;
// labeled profiles must all agree with each other (and with opts when it
// is labeled).
//
// Callers that merge the same key repeatedly (the plan daemon recomputing
// one fleet plan per evidence batch) should hold a MergeAccumulator and
// reuse it: the accumulator caches parsed stack traces and its fold state
// across merges, cutting the per-merge allocation cost to the synthesis
// pass alone.
func MergeProfiles(opts Options, profiles ...*Profile) (*Profile, error) {
	inputs := make([]*Profile, 0, len(profiles))
	for _, p := range profiles {
		if p != nil {
			inputs = append(inputs, p)
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("analyzer: merging zero profiles")
	}
	app, workload := opts.App, opts.Workload
	for _, p := range inputs {
		if p.App != "" {
			if app == "" {
				app = p.App
			} else if p.App != app {
				return nil, fmt.Errorf("analyzer: merging profiles of different applications %q and %q", app, p.App)
			}
		}
		if p.Workload != "" {
			if workload == "" {
				workload = p.Workload
			} else if p.Workload != workload {
				return nil, fmt.Errorf("analyzer: merging profiles of different workloads %q and %q", workload, p.Workload)
			}
		}
	}
	opts.App, opts.Workload = app, workload

	acc := NewMergeAccumulator(opts)
	for _, p := range inputs {
		if err := acc.Add(p); err != nil {
			return nil, err
		}
	}
	return acc.Merge()
}

// mergeSite is one allocation site's fold state inside a MergeAccumulator.
// The parsed trace and its canonical rendering are kept across Reset calls
// (parsing dominates the fold cost for a steady fleet whose site set barely
// moves); the sums are re-zeroed lazily via the epoch stamp.
type mergeSite struct {
	epoch uint64
	ev    siteEvidence
}

// MergeAccumulator folds profiles into per-site evidence sums and
// synthesizes fleet plans from them, reusing its internal state across
// merges. The intended lifecycle per merge is
//
//	acc.Reset()
//	for _, p := range inputs { acc.Add(p) } // error attributable to p
//	plan, err := acc.Merge()                // synthesis over the sums
//
// An Add error is attributable to the profile being added (an unparsable
// site trace, a label mismatch); a Merge error comes from the synthesis
// over the combined evidence. That split is what lets the plan daemon
// classify a merge failure as client-caused or store-caused without
// re-merging anything.
//
// The accumulator is NOT safe for concurrent use; the daemon drives one
// per (app, workload) key from that key's single merge worker.
type MergeAccumulator struct {
	opts  Options
	epoch uint64
	added int
	sites map[string]*mergeSite

	// Per-merge scratch, reused to keep steady-state merges allocation-
	// light: key list for deterministic id assignment, evidence map
	// handed to synthesize.
	keys     []string
	evidence map[heap.SiteID]*siteEvidence
}

// NewMergeAccumulator builds an accumulator. opts carries the analyzer
// tuning and the labels of the merged profile; profiles added later must
// carry matching (or empty) labels when opts is labeled.
func NewMergeAccumulator(opts Options) *MergeAccumulator {
	return &MergeAccumulator{
		opts:     opts.withDefaults(),
		epoch:    1,
		sites:    make(map[string]*mergeSite),
		evidence: make(map[heap.SiteID]*siteEvidence),
	}
}

// Reset clears the fold for a new merge. Parsed traces are retained: a
// site contributes to the next merge only if a profile added after the
// Reset carries it again, but its trace needs no re-parse.
func (m *MergeAccumulator) Reset() {
	m.epoch++
	m.added = 0
}

// Add folds one profile's site evidence into the accumulator. A non-nil
// error means this profile cannot participate in any merge — its labels
// disagree with the accumulator's, or a site trace does not parse — and
// leaves previously added profiles' sums intact except for the sites this
// profile already touched.
func (m *MergeAccumulator) Add(p *Profile) error {
	if p == nil {
		return nil
	}
	if p.App != "" && m.opts.App != "" && p.App != m.opts.App {
		return fmt.Errorf("analyzer: merging profiles of different applications %q and %q", m.opts.App, p.App)
	}
	if p.Workload != "" && m.opts.Workload != "" && p.Workload != m.opts.Workload {
		return fmt.Errorf("analyzer: merging profiles of different workloads %q and %q", m.opts.Workload, p.Workload)
	}
	for i := range p.Sites {
		s := &p.Sites[i]
		ms := m.sites[s.Trace]
		if ms == nil {
			trace, err := jvm.ParseStackTrace(s.Trace)
			if err != nil {
				return fmt.Errorf("analyzer: merging site evidence: %w", err)
			}
			ms = &mergeSite{ev: siteEvidence{trace: trace, traceString: trace.String()}}
			m.sites[s.Trace] = ms
		}
		if ms.epoch != m.epoch {
			ms.epoch = m.epoch
			ms.ev.total, ms.ev.tainted = 0, 0
			ms.ev.survived = ms.ev.survived[:0]
		}
		ms.ev.total += s.Allocated
		ms.ev.tainted += s.Tainted
		for len(ms.ev.survived) < len(s.Buckets) {
			ms.ev.survived = append(ms.ev.survived, 0)
		}
		for k, n := range s.Buckets {
			ms.ev.survived[k] += n
		}
	}
	m.added++
	return nil
}

// Merge synthesizes the fleet profile from everything added since the
// last Reset. The sums are left intact, so Merge can be called again (it
// is pure over the fold state).
func (m *MergeAccumulator) Merge() (*Profile, error) {
	if m.added == 0 {
		return nil, fmt.Errorf("analyzer: merging zero profiles")
	}
	// Synthetic site ids are assigned in sorted-trace order, so the
	// evidence map handed to synthesize is identical for every
	// permutation of the inputs.
	m.keys = m.keys[:0]
	for k, ms := range m.sites {
		if ms.epoch == m.epoch {
			m.keys = append(m.keys, k)
		}
	}
	sort.Strings(m.keys)
	clear(m.evidence)
	for i, k := range m.keys {
		ms := m.sites[k]
		id := heap.SiteID(i + 1)
		ms.ev.id = id
		m.evidence[id] = &ms.ev
	}
	return synthesize(m.evidence, m.opts)
}
