package core

import (
	"fmt"
	"os"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/dumper"
	"polm2/internal/faultio"
	"polm2/internal/gc"
	"polm2/internal/gc/c4"
	"polm2/internal/heap"
	"polm2/internal/instrument"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/recorder"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
	"polm2/internal/trace"
	"polm2/internal/workload"
)

// ProfileOptions parameterizes the profiling phase.
type ProfileOptions struct {
	// Scale divides the paper's heap geometry. Default DefaultScale.
	Scale uint64
	// Duration is the simulated profiling run length. Default
	// PaperProfilingDuration.
	Duration time.Duration
	// Seed drives the workload's randomness. Default 1.
	Seed int64
	// SnapshotEvery takes a snapshot every k-th GC cycle. Default 1.
	SnapshotEvery int
	// RecordsDir receives the allocation records. When empty they go to a
	// temporary directory that is removed once the analysis has read them.
	RecordsDir string
	// SnapshotDir, when set, persists every heap snapshot as a binary
	// image (snap-NNNNNN.img) so the Analyzer can be re-run off-line
	// from the images alone (polm2-inspect snapshots <dir>).
	SnapshotDir string
	// Fault optionally injects I/O faults into every artifact write of
	// the profiling run (records, site table, snapshot images). When set,
	// the analysis runs in salvage mode and the result carries the
	// salvage report. Nil writes straight through and analyzes strictly.
	Fault *faultio.Injector
	// Tracer, when non-nil, receives a deterministic trace of the run:
	// a "core"/"profile" span plus per-cycle GC pause spans with phase
	// breakdowns (internal/trace). Nil traces nothing at zero cost.
	Tracer *trace.Tracer
}

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.Scale == 0 {
		o.Scale = DefaultScale
	}
	if o.Duration == 0 {
		o.Duration = DefaultProfilingDuration
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ProfileResult is the outcome of the profiling phase.
type ProfileResult struct {
	// Profile is the application allocation profile.
	Profile *analyzer.Profile
	// Snapshots are the Dumper's incremental snapshots, metadata only
	// (Seq, Cycle, TakenAt, SizeBytes, Duration): their pages were folded
	// into the analysis as they were taken and, with a SnapshotDir, persisted
	// there.
	Snapshots []*snapshot.Snapshot
	// JmapSnapshots are the jmap baseline of Figures 3 and 4, one per
	// entry of Snapshots: what a jmap dump would have cost at the same
	// point, priced by dumper.CostModel.JmapDump from the live totals of
	// the collection of the snapshot's Cycle (gc.Pause.LiveObjects and
	// LiveBytes). Seq and Cycle are the snapshot's, and TakenAt is the
	// instant its CRIU dump ended. No jmap dump is taken, so the baseline
	// costs the simulation nothing.
	JmapSnapshots []*snapshot.Snapshot
	// PageCounts are the heap's page counts at each entry of Snapshots
	// (dumper.Dumper.PageCounts), which the dump ablation prices with
	// dumper.CostModel.CRIUDump.
	PageCounts []heap.PageCounts
	// RecordsDir is where the allocation records were written: the
	// caller's ProfileOptions.RecordsDir, "" when they went to a temporary
	// directory that no longer exists.
	RecordsDir string
	// Salvage accounts for artifact loss when the analysis ran in
	// salvage mode (fault injection); nil for a strict analysis.
	Salvage *analyzer.SalvageReport
	// GCCycles is the number of GC cycles during profiling.
	GCCycles uint64
	// SimDuration is the simulated length of the profiling run.
	SimDuration time.Duration
}

// ProfileApp runs the profiling phase (§3.5) for one workload: the
// application executes under NG2C (uninstrumented, so young-only behaviour)
// with the Recorder streaming allocation records and the Dumper taking a
// snapshot after every GC cycle, which the Analyzer's replay folds as it is
// taken; once the recording closes, the replay finishes into the profile.
// The jmap baseline is priced from the collector's pauses (JmapSnapshots).
func ProfileApp(app App, workloadName string, opts ProfileOptions) (*ProfileResult, error) {
	opts = opts.withDefaults()
	clock := simclock.New()
	geom := ScaledGeometry(opts.Scale)
	col, err := NewCollector(CollectorNG2C, clock, geom, ScaledCostModel(opts.Scale))
	if err != nil {
		return nil, err
	}
	vm := jvm.New(col)

	recordsDir := opts.RecordsDir
	if recordsDir == "" {
		recordsDir, err = os.MkdirTemp("", "polm2-records-*")
		if err != nil {
			return nil, fmt.Errorf("core: profiling records dir: %w", err)
		}
		defer os.RemoveAll(recordsDir) //nolint:errcheck // best-effort cleanup of our own temp dir
	} else if err := os.MkdirAll(recordsDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: profiling records dir: %w", err)
	}
	if opts.SnapshotDir != "" {
		if err := os.MkdirAll(opts.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: snapshot dir: %w", err)
		}
	}

	dumpCost := ScaledDumpCostModel(opts.Scale)
	dumpCfg := dumper.Config{
		Cost:       dumpCost,
		PersistDir: opts.SnapshotDir,
		Fault:      opts.Fault,
	}
	// The Analyzer folds each image as the Dumper takes it, unless the
	// faults live on disk: then it analyzes what the disk actually holds,
	// the persisted snapshot chain.
	fromDisk := opts.Fault != nil && opts.SnapshotDir != ""
	replay := analyzer.NewReplay()
	if !fromDisk {
		dumpCfg.Images = replay
	}
	criu := dumper.New(vm.Heap(), clock, dumpCfg)
	rec, err := recorder.New(recorder.Config{Dir: recordsDir, SnapshotEvery: opts.SnapshotEvery, Fault: opts.Fault},
		vm.Heap(), vm.Sites(), criu)
	if err != nil {
		return nil, err
	}
	rec.Attach(vm)

	env := &Env{
		vm:       vm,
		clock:    clock,
		rand:     workload.NewRand(opts.Seed),
		ops:      mustTimeSeries(),
		deadline: opts.Duration,
	}
	if err := app.Run(env, workloadName); err != nil {
		return nil, fmt.Errorf("core: profiling run of %s/%s: %w", app.Name(), workloadName, err)
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}

	aOpts := analyzer.Options{App: app.Name(), Workload: workloadName}
	var profile *analyzer.Profile
	var report *analyzer.SalvageReport
	switch {
	case fromDisk:
		profile, report, err = analyzer.AnalyzeSalvageDir(recordsDir, opts.SnapshotDir, aOpts)
	case opts.Fault != nil:
		// Damaged records against the in-memory (undamaged) chain.
		profile, report, err = replay.FinishSalvage(recordsDir, aOpts)
	default:
		profile, err = replay.Finish(recordsDir, aOpts)
	}
	if err != nil {
		return nil, err
	}
	snaps, pauses := criu.Snapshots(), col.Pauses()
	jmaps, err := jmapBaseline(snaps, pauses, dumpCost)
	if err != nil {
		return nil, err
	}
	result := &ProfileResult{
		Profile:       profile,
		Snapshots:     snaps,
		JmapSnapshots: jmaps,
		PageCounts:    criu.PageCounts(),
		RecordsDir:    opts.RecordsDir,
		Salvage:       report,
		GCCycles:      col.Cycles(),
		SimDuration:   clock.Now(),
	}
	if opts.Tracer.Enabled() {
		opts.Tracer.Span("core", "profile", 0, result.SimDuration,
			trace.String("app", app.Name()),
			trace.String("workload", workloadName),
			trace.Uint64("gc_cycles", result.GCCycles),
			trace.Int64("snapshots", int64(len(result.Snapshots))),
			trace.Int64("instrumented_sites", int64(profile.InstrumentedSites())))
		gc.TracePauses(opts.Tracer, ScaledCostModel(opts.Scale), pauses)
	}
	return result, nil
}

// jmapBaseline prices a jmap dump at every snapshot from the live totals of
// the collection that ended just before it (see
// ProfileResult.JmapSnapshots). Both lists run in cycle order. A snapshot
// whose cycle has no pause is an error, not a free dump.
func jmapBaseline(snaps []*snapshot.Snapshot, pauses []gc.Pause, cost dumper.CostModel) ([]*snapshot.Snapshot, error) {
	out := make([]*snapshot.Snapshot, len(snaps))
	p := 0
	for i, sn := range snaps {
		for p < len(pauses) && pauses[p].Cycle < sn.Cycle {
			p++
		}
		if p == len(pauses) || pauses[p].Cycle != sn.Cycle {
			return nil, fmt.Errorf("core: snapshot %d: no pause of GC cycle %d to price its jmap baseline", sn.Seq, sn.Cycle)
		}
		j := &snapshot.Snapshot{Seq: sn.Seq, Cycle: sn.Cycle, TakenAt: sn.TakenAt + sn.Duration}
		j.SizeBytes, j.Duration = cost.JmapDump(pauses[p].LiveObjects, pauses[p].LiveBytes)
		out[i] = j
	}
	return out, nil
}

// PlanKind names how a production run was instrumented.
type PlanKind string

// Plan kinds.
const (
	PlanNone   PlanKind = "none"   // unmodified application
	PlanPOLM2  PlanKind = "polm2"  // profile from the profiling phase
	PlanManual PlanKind = "manual" // the expert's hand-written profile
)

// RunOptions parameterizes a production run.
type RunOptions struct {
	// Scale divides the paper's heap geometry. Default DefaultScale.
	Scale uint64
	// Duration is the simulated run length. Default PaperRunDuration.
	Duration time.Duration
	// Warmup is ignored at the start of the run when deriving the
	// warm metrics. Default PaperWarmup, clamped to Duration/2 for very
	// short runs.
	Warmup time.Duration
	// Seed drives the workload's randomness. Default 1.
	Seed int64
	// Tracer, when non-nil, receives a deterministic trace of the run:
	// a "core"/"run" span plus per-cycle GC pause spans with phase
	// breakdowns (internal/trace). Nil traces nothing at zero cost.
	Tracer *trace.Tracer
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Scale == 0 {
		o.Scale = DefaultScale
	}
	if o.Duration == 0 {
		o.Duration = PaperRunDuration
	}
	if o.Warmup == 0 {
		o.Warmup = PaperWarmup
	}
	if o.Warmup > o.Duration/2 {
		o.Warmup = o.Duration / 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunResult is the outcome of one production run.
type RunResult struct {
	App       string
	Workload  string
	Collector string
	Plan      PlanKind

	// Pauses are all stop-the-world pauses; WarmPauses excludes the
	// warmup window, matching the paper's measurement discipline (§5.1).
	Pauses     []gc.Pause
	WarmPauses *metrics.Sample

	// Ops is the per-second completed-operation series; WarmOps is the
	// total over the measured window.
	Ops     *metrics.TimeSeries
	WarmOps int64

	// MaxMemoryBytes is the committed-memory high-water mark, or the
	// pre-reserved size for C4 (Figure 9's discussion).
	MaxMemoryBytes uint64
	PreReserved    bool

	// GenSwitches counts dynamic generation switches (§4.4 metric).
	GenSwitches uint64
	// GCCycles is the number of collections.
	GCCycles uint64
	// SimDuration and Warmup document the measurement window.
	SimDuration time.Duration
	Warmup      time.Duration
}

// RunApp executes the production phase (§3.5): the workload runs under the
// named collector, optionally instrumented with a profile (POLM2's or the
// expert's). A nil profile runs the unmodified application.
func RunApp(app App, workloadName, collectorName string, plan PlanKind, profile *analyzer.Profile, opts RunOptions) (*RunResult, error) {
	opts = opts.withDefaults()
	clock := simclock.New()
	geom := ScaledGeometry(opts.Scale)
	col, err := NewCollector(collectorName, clock, geom, ScaledCostModel(opts.Scale))
	if err != nil {
		return nil, err
	}
	vm := jvm.New(col)

	if profile != nil {
		pret, ok := col.(gc.Pretenuring)
		if !ok {
			return nil, fmt.Errorf("core: collector %s cannot apply a pretenuring profile", collectorName)
		}
		instrPlan, err := instrument.Apply(profile, pret)
		if err != nil {
			return nil, err
		}
		vm.SetPlan(instrPlan)
		vm.SetPretenureCostPerByte(PretenureCostPerByte(opts.Scale))
	}

	env := &Env{
		vm:       vm,
		clock:    clock,
		rand:     workload.NewRand(opts.Seed),
		ops:      mustTimeSeries(),
		deadline: opts.Duration,
	}
	if err := app.Run(env, workloadName); err != nil {
		return nil, fmt.Errorf("core: production run of %s/%s under %s: %w",
			app.Name(), workloadName, collectorName, err)
	}

	result := &RunResult{
		App:         app.Name(),
		Workload:    workloadName,
		Collector:   collectorName,
		Plan:        plan,
		Pauses:      col.Pauses(),
		WarmPauses:  &metrics.Sample{},
		Ops:         env.ops,
		GenSwitches: vm.GenSwitches(),
		GCCycles:    col.Cycles(),
		SimDuration: clock.Now(),
		Warmup:      opts.Warmup,
	}
	for _, p := range result.Pauses {
		if p.Start >= opts.Warmup {
			result.WarmPauses.Add(p.Duration)
		}
	}
	for _, n := range env.ops.Slice(opts.Warmup, opts.Duration) {
		result.WarmOps += n
	}
	st := vm.Heap().Stats()
	result.MaxMemoryBytes = st.MaxCommittedBytes
	if c4col, ok := col.(*c4.Collector); ok {
		result.MaxMemoryBytes = c4col.PreReservedBytes()
		result.PreReserved = true
	}
	if opts.Tracer.Enabled() {
		opts.Tracer.Span("core", "run", 0, result.SimDuration,
			trace.String("app", app.Name()),
			trace.String("workload", workloadName),
			trace.String("collector", collectorName),
			trace.String("plan", string(plan)),
			trace.Uint64("gc_cycles", result.GCCycles),
			trace.Uint64("gen_switches", result.GenSwitches))
		gc.TracePauses(opts.Tracer, ScaledCostModel(opts.Scale), result.Pauses)
	}
	return result, nil
}

func mustTimeSeries() *metrics.TimeSeries {
	ts, err := metrics.NewTimeSeries(time.Second)
	if err != nil {
		panic(err) // one-second width is statically valid
	}
	return ts
}
