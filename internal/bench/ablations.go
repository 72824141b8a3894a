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

// analysis is one analysis ablation row: a name for the run cache and the
// analyzer options the target's default profile is re-synthesized under
// (see analyzed). Its baseline row, with zero options, is the default
// profile itself, so these rows cost no profiling simulation.
type analysis struct {
	label, name string
	opts        analyzer.Options
}

// analysisRuns returns t's NG2C run under a POLM2 plan from every
// analysis row's profile (see fetchAll).
func (s *Session) analysisRuns(t Target, as []analysis) ([]*core.RunResult, error) {
	return fetchAll(s, len(as), func(i int) (*core.RunResult, error) {
		return s.runVariant(t, core.CollectorNG2C, core.PlanPOLM2, as[i].name, as[i].opts)
	})
}

// AblationDump prices the Dumper's two snapshot optimizations (§3.2) off,
// one at a time and together, on the heap states the default profiling
// run's dumps saw (core.ProfileResult.PageCounts): the rows differ only in
// the pages a dump copies, not in operations a slower dump would have cost.
func (s *Session) AblationDump(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: Dumper optimizations (Cassandra-WI, averages over first 20 snapshots) ===")
	t := targetByKey(ablationTarget)
	fmt.Fprintf(w, "%-28s %-14s %-14s\n", "Variant", "avg time(ms)", "avg size(MB)")
	prof, err := s.Profile(t)
	if err != nil {
		return fmt.Errorf("bench: dump ablation: %w", err)
	}
	counts := prof.PageCounts
	if len(counts) > 20 {
		counts = counts[:20]
	}
	cost, pageSize := core.ScaledDumpCostModel(s.cfg.Scale), core.ScaledGeometry(s.cfg.Scale).PageSize
	var timeMS, sizeMB [4]float64
	for _, c := range counts {
		for i, pages := range [...]int{c.DirtyNeeded, c.Dirty, c.UsedNeeded, c.Used} {
			size, d := cost.CRIUDump(pages, pageSize)
			timeMS[i] += float64(d.Milliseconds())
			sizeMB[i] += float64(size) / (1 << 20)
		}
	}
	n := max(float64(len(counts)), 1)
	for i, label := range []string{"both optimizations (paper)", "no no-need elision", "no incrementality", "neither optimization"} {
		fmt.Fprintf(w, "%-28s %-14.1f %-14.2f\n", label, timeMS[i]/n, sizeMB[i]/n)
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
	vs := []analysis{
		{label: "with Algorithm 1 (paper)"},
		{"conflict resolution off", "conflict-off", analyzer.Options{DisableConflictResolution: true}},
	}
	runs, err := s.analysisRuns(t, vs)
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
	vs := []analysis{
		{label: "hoisting on (paper)"},
		{"hoisting off", "hoist-off", analyzer.Options{DisableHoisting: true}},
	}
	runs, err := s.analysisRuns(t, vs)
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
	vs := []analysis{
		{label: "bucket mode (paper)"},
		{"90th percentile", "estimator-p90", analyzer.Options{Estimator: analyzer.EstimatorP90}},
	}
	profs, err := fetchAll(s, len(vs), func(i int) (*analyzer.Profile, error) { return s.analyzed(t, vs[i].opts) })
	if err != nil {
		return fmt.Errorf("bench: estimator ablation: %w", err)
	}
	for i, v := range vs {
		prof := profs[i]
		fmt.Fprintf(w, "%-24s %-14d %-12d %-12d\n",
			v.label, prof.InstrumentedSites(), prof.UsedGenerations(), prof.Conflicts)
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
	profs, err := fetchAll(s, len(every), func(i int) (*core.ProfileResult, error) {
		return s.profileEvery(t, every[i])
	})
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
