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

// MergeAccumulator folds profiles into per-site evidence sums and
// synthesizes a fleet plan from them. The lifecycle of one merge is
//
//	acc := NewMergeAccumulator(opts) // or acc.Reset() on a used one
//	for _, p := range inputs { acc.Add(p) } // error attributable to p
//	plan, err := acc.Merge()                // synthesis over the sums
//
// An Add error is attributable to the profile being added (an unparsable
// site trace, a label mismatch); a Merge error comes from the synthesis
// over the combined evidence. That split is what lets the plan daemon
// classify a merge failure as client-caused or store-caused without
// re-merging anything.
//
// Nothing the fold builds outlives it: Reset drops the fold, and the plan
// daemon builds a new accumulator for every merge, so a key holds no
// parsed traces between merges.
//
// The accumulator is NOT safe for concurrent use.
type MergeAccumulator struct {
	opts  Options
	added int
	// sites is the fold, keyed by the uploaded trace string: two
	// spellings of one trace (":010" beside ":10") stay two sites.
	sites map[string]*siteEvidence
}

// NewMergeAccumulator builds an accumulator. opts carries the analyzer
// tuning and the labels of the merged profile; profiles added later must
// carry matching (or empty) labels when opts is labeled.
func NewMergeAccumulator(opts Options) *MergeAccumulator {
	return &MergeAccumulator{opts: opts.withDefaults()}
}

// Reset drops the fold for a new merge.
func (m *MergeAccumulator) Reset() {
	m.sites = nil
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
	if m.sites == nil {
		// A fleet's instances mostly share their sites, so the first
		// profile's site count is the fold's likely size.
		m.sites = make(map[string]*siteEvidence, len(p.Sites))
	}
	for i := range p.Sites {
		s := &p.Sites[i]
		ev := m.sites[s.Trace]
		if ev == nil {
			trace, rendered, err := parseTrace(s.Trace)
			if err != nil {
				return fmt.Errorf("analyzer: merging site evidence: %w", err)
			}
			ev = &siteEvidence{trace: trace, traceString: rendered}
			m.sites[s.Trace] = ev
		}
		ev.total += s.Allocated
		ev.tainted += s.Tainted
		if n := len(s.Buckets); len(ev.survived) < n {
			ev.survived = append(ev.survived, make([]uint64, n-len(ev.survived))...)
		}
		for k, n := range s.Buckets {
			ev.survived[k] += n
		}
	}
	m.added++
	return nil
}

// parseTrace parses an uploaded site trace and returns its canonical
// rendering beside it: s itself when every line is spelled as
// strconv.Itoa spells it, a fresh rendering only otherwise. Any other
// spelling strconv.Atoi accepts adds a sign or leading zeros, so s is
// canonical exactly when it is as long as its rendering.
func parseTrace(s string) (jvm.StackTrace, string, error) {
	trace, err := jvm.ParseStackTrace(s)
	if err != nil {
		return nil, "", err
	}
	if len(s) != renderedLen(trace) {
		return trace, trace.String(), nil
	}
	return trace, s, nil
}

// Merge synthesizes the fleet profile from everything added since the
// last Reset. The sums are left intact, so Merge can be called again (it
// is pure over the fold state).
func (m *MergeAccumulator) Merge() (*Profile, error) {
	if m.added == 0 {
		return nil, fmt.Errorf("analyzer: merging zero profiles")
	}
	// Synthetic site ids are assigned in sorted-trace order, so the
	// evidence handed to synthesize is identical for every permutation of
	// the inputs.
	keys := make([]string, 0, len(m.sites))
	for k := range m.sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sites := make([]*siteEvidence, len(keys))
	for i, k := range keys {
		ev := m.sites[k]
		ev.id = heap.SiteID(i + 1)
		sites[i] = ev
	}
	return synthesize(sites, m.opts)
}
