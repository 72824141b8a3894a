// Package analyzer implements the Analyzer component of POLM2 (§3.3): it
// combines the Recorder's allocation records with the Dumper's snapshot
// sequence to estimate an object-lifetime distribution per allocation site,
// builds the stack-trace tree (STTree), detects and resolves allocation-path
// conflicts (Algorithm 1), and emits the application allocation profile the
// Instrumenter consumes in the production phase.
package analyzer

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"polm2/internal/faultio"
	"polm2/internal/jvm"
)

// AllocDirective instructs the Instrumenter about one allocation site.
type AllocDirective struct {
	// Loc is the allocation site's code location.
	Loc string `json:"loc"`
	// Gen is the abstract target generation (1-based; the production
	// phase maps abstract generations onto collector generations at
	// launch).
	Gen int `json:"gen"`
	// Direct makes the instrumented site carry its own
	// setGeneration(gen) / restore pair around the allocation; otherwise
	// the site is only annotated @Gen and inherits the thread's current
	// target generation from an enclosing CallDirective.
	Direct bool `json:"direct,omitempty"`
}

// CallDirective wraps a call site in setGeneration(gen)/setAllocGen(saved),
// as in the paper's Listing 2.
type CallDirective struct {
	Loc string `json:"loc"`
	Gen int    `json:"gen"`
}

// SiteStat records per-allocation-site profiling evidence, kept in the
// profile for diagnostics and for the Table 1 metrics.
type SiteStat struct {
	Trace string `json:"trace"`
	// Allocated is the number of recorded allocations.
	Allocated uint64 `json:"allocated"`
	// Buckets[k] counts objects that were seen live in exactly k
	// snapshots (§3.3's bucket sequence).
	Buckets []uint64 `json:"buckets"`
	// Gen is the estimated target generation (0 = young, not
	// instrumented).
	Gen int `json:"gen"`
	// Tainted counts allocations whose evidence came from damaged
	// (salvage-degraded) recordings. It is a pure sum under
	// MergeProfiles, so fleet merges can reapply the confidence floor
	// to Tainted/Allocated no matter how the evidence arrived.
	Tainted uint64 `json:"tainted,omitempty"`
}

// Profile is the application allocation profile: the output of the
// profiling phase and the input of the production phase (§3.5).
type Profile struct {
	App      string `json:"app,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Generations is the number of abstract generations the production
	// phase must create at launch (the paper creates Gen1..GenN by
	// calling newGeneration, §3.4).
	Generations int `json:"generations"`
	// Allocs and Calls are the instrumentation directives.
	Allocs []AllocDirective `json:"allocs"`
	Calls  []CallDirective  `json:"calls"`
	// Conflicts is the number of allocation-path conflicts detected
	// (Table 1's "# Conflicts Encountered").
	Conflicts int `json:"conflicts"`
	// Unresolved counts conflicts Algorithm 1 could not anchor (kept at
	// generation zero).
	Unresolved int `json:"unresolved,omitempty"`
	// Sites is the per-site evidence.
	Sites []SiteStat `json:"sites,omitempty"`
}

// InstrumentedSites returns the number of instrumented allocation sites —
// Table 1's first metric.
func (p *Profile) InstrumentedSites() int { return len(p.Allocs) }

// UsedGenerations returns the number of generations in use including the
// young generation — Table 1's second metric.
func (p *Profile) UsedGenerations() int { return p.Generations + 1 }

// sortDirectives brings the directive lists into a deterministic order.
func (p *Profile) sortDirectives() {
	sort.Slice(p.Allocs, func(i, j int) bool { return p.Allocs[i].Loc < p.Allocs[j].Loc })
	sort.Slice(p.Calls, func(i, j int) bool { return p.Calls[i].Loc < p.Calls[j].Loc })
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].Trace < p.Sites[j].Trace })
}

// Save writes the profile as indented JSON, whole or not at all
// (faultio.(*Injector).Publish), so a crash mid-write never leaves a
// half-written profile for the production phase to choke on.
func (p *Profile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("analyzer: encoding profile: %w", err)
	}
	var fio *faultio.Injector // nil: publish without faults
	err = fio.Publish(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("analyzer: saving profile: %w", err)
	}
	return nil
}

// LoadProfile reads a profile saved by Save.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyzer: reading profile: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("analyzer: decoding profile %q: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("analyzer: profile %q: %w", path, err)
	}
	return &p, nil
}

// Validate checks the profile's internal consistency.
func (p *Profile) Validate() error {
	if p.Generations < 0 {
		return fmt.Errorf("negative generation count %d", p.Generations)
	}
	for _, d := range p.Allocs {
		if _, err := jvm.ParseCodeLoc(d.Loc); err != nil {
			return fmt.Errorf("alloc directive: %w", err)
		}
		if d.Gen < 0 || d.Gen > p.Generations {
			return fmt.Errorf("alloc directive %q targets generation %d of %d", d.Loc, d.Gen, p.Generations)
		}
	}
	for _, d := range p.Calls {
		if _, err := jvm.ParseCodeLoc(d.Loc); err != nil {
			return fmt.Errorf("call directive: %w", err)
		}
		if d.Gen < 1 || d.Gen > p.Generations {
			return fmt.Errorf("call directive %q targets generation %d of %d", d.Loc, d.Gen, p.Generations)
		}
	}
	return nil
}
