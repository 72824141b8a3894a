package bench

import (
	"fmt"
	"io"

	"polm2/internal/analyzer"
	"polm2/internal/core"
)

// ablationTarget is the workload of the single-workload ablations:
// Cassandra-WI exercises every mechanism (conflicts, hoisting, dumps).
const ablationTarget = "Cassandra-WI"

func targetByKey(key string) Target {
	for _, t := range Targets() {
		if t.Key() == key {
			return t
		}
	}
	panic("bench: " + key + " missing from targets")
}

// variant is one ablation row: a profiling configuration named for the
// caches (see profileVariant) and the options mutation that makes it. Each
// ablation's baseline row is the paper configuration, the empty variant:
// it shares the main matrix's default profile or run of the same target,
// so only the deviating rows cost extra simulations.
type variant struct {
	label, name string
	mutate      func(*core.ProfileOptions)
}

// variantProfiles returns t's profile under every variant (see fetchAll).
func (s *Session) variantProfiles(t Target, vs []variant) ([]*core.ProfileResult, error) {
	return fetchAll(s, len(vs), func(i int) (*core.ProfileResult, error) {
		return s.profileVariant(t, vs[i].name, vs[i].mutate)
	})
}

// variantRuns returns t's NG2C run under a POLM2 plan from every variant's
// profile (see fetchAll).
func (s *Session) variantRuns(t Target, vs []variant) ([]*core.RunResult, error) {
	return fetchAll(s, len(vs), func(i int) (*core.RunResult, error) {
		return s.runVariant(t, core.CollectorNG2C, core.PlanPOLM2, vs[i].name, vs[i].mutate)
	})
}

// AblationDump toggles the Dumper's two snapshot optimizations (§3.2)
// independently and reports time/size against the fully optimized dumper.
func (s *Session) AblationDump(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: Dumper optimizations (Cassandra-WI, averages over first 20 snapshots) ===")
	t := targetByKey(ablationTarget)
	fmt.Fprintf(w, "%-28s %-14s %-14s\n", "Variant", "avg time(ms)", "avg size(MB)")
	vs := []variant{
		{label: "both optimizations (paper)"},
		{"no no-need elision", "dump-noneed-off", func(o *core.ProfileOptions) { o.DumpDisableNoNeed = true }},
		{"no incrementality", "dump-incremental-off", func(o *core.ProfileOptions) { o.DumpDisableIncremental = true }},
		{"neither optimization", "dump-neither", func(o *core.ProfileOptions) {
			o.DumpDisableNoNeed, o.DumpDisableIncremental = true, true
		}},
	}
	profs, err := s.variantProfiles(t, vs)
	if err != nil {
		return fmt.Errorf("bench: dump ablation: %w", err)
	}
	for i, v := range vs {
		snaps := profs[i].Snapshots
		if len(snaps) > 20 {
			snaps = snaps[:20]
		}
		var timeMS, sizeMB float64
		for _, sn := range snaps {
			timeMS += float64(sn.Duration.Milliseconds())
			sizeMB += float64(sn.SizeBytes) / (1 << 20)
		}
		n := float64(len(snaps))
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(w, "%-28s %-14.1f %-14.2f\n", v.label, timeMS/n, sizeMB/n)
	}
	return nil
}

// AblationConflict disables STTree conflict resolution (Algorithm 1) and
// compares the resulting pause times: without it, conflicted sites collapse
// to one generation and transient objects pollute the old generations.
func (s *Session) AblationConflict(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: STTree conflict resolution (Cassandra-RI) ===")
	fmt.Fprintln(w, "(mispretenured transients shift cost from pauses to memory and mutator overhead)")
	t := targetByKey("Cassandra-RI")
	fmt.Fprintf(w, "%-28s %-10s %-12s %-12s %-12s %-10s %-10s\n",
		"Variant", "pauses", "p50(ms)", "p99(ms)", "worst(ms)", "mem(MB)", "ops")
	vs := []variant{
		{label: "with Algorithm 1 (paper)"},
		{"conflict resolution off", "conflict-off", func(o *core.ProfileOptions) {
			o.Analyzer = analyzer.Options{DisableConflictResolution: true}
		}},
	}
	runs, err := s.variantRuns(t, vs)
	if err != nil {
		return fmt.Errorf("bench: conflict ablation: %w", err)
	}
	for i, v := range vs {
		res := runs[i]
		fmt.Fprintf(w, "%-28s %-10d %-12s %-12s %-12s %-10d %-10d\n",
			v.label, res.WarmPauses.Len(),
			fmtMS(res.WarmPauses.Percentile(50)),
			fmtMS(res.WarmPauses.Percentile(99)),
			fmtMS(res.WarmPauses.Max()),
			res.MaxMemoryBytes>>20, res.WarmOps)
	}
	return nil
}

// AblationHoist disables the §4.4 generation-hoisting optimization and
// reports the dynamic setGeneration call counts with and without it.
// GraphChi is the interesting case: a single hoisted switch at the
// batch-load call site covers thousands of chunk allocations.
func (s *Session) AblationHoist(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: generation hoisting (§4.4, GraphChi-PR) ===")
	t := targetByKey("GraphChi-PR")
	fmt.Fprintf(w, "%-24s %-16s %-16s %-12s\n", "Variant", "gen switches", "switch/op", "ops")
	vs := []variant{
		{label: "hoisting on (paper)"},
		{"hoisting off", "hoist-off", func(o *core.ProfileOptions) {
			o.Analyzer = analyzer.Options{DisableHoisting: true}
		}},
	}
	runs, err := s.variantRuns(t, vs)
	if err != nil {
		return fmt.Errorf("bench: hoist ablation: %w", err)
	}
	for i, v := range vs {
		res := runs[i]
		perOp := 0.0
		if res.WarmOps > 0 {
			perOp = float64(res.GenSwitches) / float64(res.WarmOps)
		}
		fmt.Fprintf(w, "%-24s %-16d %-16.2f %-12d\n", v.label, res.GenSwitches, perOp, res.WarmOps)
	}
	return nil
}

// AblationEstimator compares the paper's mode estimator against a
// 90th-percentile survival estimator.
func (s *Session) AblationEstimator(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: target-generation estimator (Cassandra-WI) ===")
	t := targetByKey(ablationTarget)
	fmt.Fprintf(w, "%-24s %-14s %-12s %-12s\n", "Variant", "instrumented", "gens", "conflicts")
	vs := []variant{
		{label: "bucket mode (paper)"},
		{"90th percentile", "estimator-p90", func(o *core.ProfileOptions) {
			o.Analyzer = analyzer.Options{Estimator: analyzer.EstimatorP90}
		}},
	}
	profs, err := s.variantProfiles(t, vs)
	if err != nil {
		return fmt.Errorf("bench: estimator ablation: %w", err)
	}
	for i, v := range vs {
		prof := profs[i]
		fmt.Fprintf(w, "%-24s %-14d %-12d %-12d\n",
			v.label, prof.Profile.InstrumentedSites(),
			prof.Profile.UsedGenerations(), prof.Profile.Conflicts)
	}
	return nil
}

// AblationCadence varies the snapshot cadence (every k-th GC cycle) and
// reports the profiling cost against the resulting profile. k=1 is the
// default cadence: the target's main profile.
func (s *Session) AblationCadence(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: snapshot cadence (Cassandra-WI) ===")
	t := targetByKey(ablationTarget)
	fmt.Fprintf(w, "%-10s %-10s %-14s %-14s %-10s\n", "every k", "snapshots", "dump time(ms)", "instrumented", "gens")
	every := []int{1, 2, 4}
	vs := make([]variant, len(every))
	for i, k := range every[1:] {
		vs[i+1] = variant{name: fmt.Sprintf("cadence-%d", k), mutate: func(o *core.ProfileOptions) { o.SnapshotEvery = k }}
	}
	profs, err := s.variantProfiles(t, vs)
	if err != nil {
		return fmt.Errorf("bench: cadence ablation: %w", err)
	}
	for i, k := range every {
		prof := profs[i]
		var dumpMS float64
		for _, sn := range prof.Snapshots {
			dumpMS += float64(sn.Duration.Milliseconds())
		}
		fmt.Fprintf(w, "%-10d %-10d %-14.0f %-14d %-10d\n",
			k, len(prof.Snapshots), dumpMS,
			prof.Profile.InstrumentedSites(), prof.Profile.UsedGenerations())
	}
	fmt.Fprintln(w, "(sparser snapshots cut profiling cost but coarsen lifetime resolution)")
	return nil
}
