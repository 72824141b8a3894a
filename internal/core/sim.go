package core

import (
	"fmt"
	"os"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/dumper"
	"polm2/internal/gc"
	"polm2/internal/gc/c4"
	"polm2/internal/instrument"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/recorder"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
	"polm2/internal/trace"
	"polm2/internal/workload"
)

// Sim is one simulated run: the workload's Env (a clock, the named
// collector over the scaled geometry and cost model, the execution engine
// over it) and the options it runs with.
type Sim struct {
	Env
	opts RunOptions
}

// NewSim assembles a run under the named collector. A nil clock is a fresh
// one starting at zero; the run's accounting assumes an injected clock is
// at zero too. opts take RunOptions' defaults; the Tracer is not used.
func NewSim(collector string, clock *simclock.Clock, opts RunOptions) (*Sim, error) {
	opts = opts.withDefaults()
	if clock == nil {
		clock = simclock.New()
	}
	col, err := NewCollector(collector, clock, ScaledGeometry(opts.Scale), ScaledCostModel(opts.Scale))
	if err != nil {
		return nil, err
	}
	return &Sim{Env{
		vm:       jvm.New(col),
		clock:    clock,
		rand:     workload.NewRand(opts.Seed),
		ops:      mustTimeSeries(),
		deadline: opts.Duration,
	}, opts}, nil
}

// InstallPlan instruments the engine with a profile (the Instrumenter's
// plan over the collector's generations) and charges the pretenured
// allocation tax from then on. Only a pretenuring collector takes a plan;
// installing another replaces the previous one.
func (s *Sim) InstallPlan(profile *analyzer.Profile) error {
	pret, ok := s.vm.Collector().(gc.Pretenuring)
	if !ok {
		return fmt.Errorf("core: collector %s cannot apply a pretenuring profile", s.vm.Collector().Name())
	}
	plan, err := instrument.Apply(profile, pret)
	if err != nil {
		return err
	}
	s.vm.SetPlan(plan)
	s.vm.SetPretenureCostPerByte(PretenureCostPerByte(s.opts.Scale))
	return nil
}

// Drive runs the workload until the run's deadline.
func (s *Sim) Drive(app App, workloadName string) error {
	if err := app.Run(&s.Env, workloadName); err != nil {
		return fmt.Errorf("core: running %s/%s under %s: %w", app.Name(), workloadName, s.vm.Collector().Name(), err)
	}
	return nil
}

// Result accounts the run so far: its pauses and operations, over the
// whole run and over the window after the warmup (§5.1), and its memory,
// the committed high-water mark or C4's pre-reserved heap (Figure 9's
// discussion). App, Workload and Plan are left for the caller.
func (s *Sim) Result() *RunResult {
	col := s.vm.Collector()
	res := &RunResult{
		Collector:      col.Name(),
		Pauses:         col.Pauses(),
		WarmPauses:     &metrics.Sample{},
		Ops:            s.ops,
		MaxMemoryBytes: s.vm.Heap().Stats().MaxCommittedBytes,
		GenSwitches:    s.vm.GenSwitches(),
		GCCycles:       col.Cycles(),
		SimDuration:    s.clock.Now(),
		Warmup:         s.opts.Warmup,
	}
	for _, p := range res.Pauses {
		if p.Start >= s.opts.Warmup {
			res.WarmPauses.Add(p.Duration)
		}
	}
	for _, n := range s.ops.Slice(s.opts.Warmup, s.opts.Duration) {
		res.WarmOps += n
	}
	if c4col, ok := col.(*c4.Collector); ok {
		res.MaxMemoryBytes, res.PreReserved = c4col.PreReservedBytes(), true
	}
	return res
}

// Trace emits the run's span, from zero to now, then a span per pause with
// its phase breakdown (gc.TracePauses). A nil tracer emits nothing.
func (s *Sim) Trace(tr *trace.Tracer, component, name string, attrs ...trace.Attr) {
	if tr.Enabled() {
		tr.Span(component, name, 0, s.clock.Now(), attrs...)
		gc.TracePauses(tr, ScaledCostModel(s.opts.Scale), s.vm.Collector().Pauses())
	}
}

// Recording is the profiling chain attached to a Sim (§3.2): the Recorder
// streams allocation records into the records directory and, at every
// snapshot cycle, has the Dumper take an incremental snapshot, which the
// Analyzer's replay folds as it is taken.
type Recording struct {
	*recorder.Recorder
	criu   *dumper.Dumper
	dir    string
	opts   ProfileOptions
	replay *analyzer.Replay
	tap    func(*snapshot.Snapshot)
}

// Record attaches the profiling chain to the run, reading RecordsDir,
// SnapshotDir, SnapshotEvery and Fault from opts. An empty RecordsDir is a
// temporary directory that Remove deletes; a given one is created if
// missing. When tap is set it sees every image before the replay folds it.
// The Recorder's hooks are registered here, before any the caller adds.
func (s *Sim) Record(opts ProfileOptions, tap func(*snapshot.Snapshot)) (*Recording, error) {
	if opts.SnapshotDir != "" {
		if err := os.MkdirAll(opts.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: snapshot dir: %w", err)
		}
	}
	r := &Recording{dir: opts.RecordsDir, opts: opts, replay: analyzer.NewReplay(), tap: tap}
	var err error
	if r.dir == "" {
		r.dir, err = os.MkdirTemp("", "polm2-records-*")
	} else {
		err = os.MkdirAll(r.dir, 0o755)
	}
	if err != nil {
		return nil, fmt.Errorf("core: records dir: %w", err)
	}
	cfg := dumper.Config{Cost: ScaledDumpCostModel(s.opts.Scale), PersistDir: opts.SnapshotDir, Fault: opts.Fault}
	// The replay folds each image as the Dumper takes it, unless the
	// faults live on disk: then Finish analyzes what the disk actually
	// holds, the persisted snapshot chain.
	if !r.fromDisk() {
		cfg.Images = r
	}
	r.criu = dumper.New(s.vm.Heap(), s.clock, cfg)
	r.Recorder, err = recorder.New(recorder.Config{Dir: r.dir, SnapshotEvery: opts.SnapshotEvery, Fault: opts.Fault},
		s.vm.Heap(), s.vm.Sites(), r.criu)
	if err != nil {
		r.Remove()
		return nil, err
	}
	r.Attach(s.vm)
	return r, nil
}

func (r *Recording) fromDisk() bool { return r.opts.Fault != nil && r.opts.SnapshotDir != "" }

// Add implements dumper.ImageSink: the tap, then the replay.
func (r *Recording) Add(snap *snapshot.Snapshot) error {
	if r.tap != nil {
		r.tap(snap)
	}
	return r.replay.Add(snap)
}

// Remove deletes a temporary records directory; a given one stays.
func (r *Recording) Remove() {
	if r.opts.RecordsDir == "" {
		os.RemoveAll(r.dir) //nolint:errcheck // best-effort cleanup of our own temp dir
	}
}

// Reanalyze finishes the replay over everything recorded up to the last
// Flush, mid-run. Live streams have no commit trailer yet, so it always
// goes through the salvage decoder.
func (r *Recording) Reanalyze(opts analyzer.Options) (*analyzer.Profile, *analyzer.SalvageReport, error) {
	return r.replay.FinishSalvage(r.dir, opts)
}

// Finish closes the recording and analyzes it: strictly, or in salvage mode
// (with a report) when faults were injected. Faults on a persisted chain
// are analyzed from the disk, damaged records from the undamaged in-memory
// chain.
func (r *Recording) Finish(opts analyzer.Options) (*analyzer.Profile, *analyzer.SalvageReport, error) {
	if err := r.Close(); err != nil {
		return nil, nil, err
	}
	switch {
	case r.fromDisk():
		return analyzer.AnalyzeSalvageDir(r.dir, r.opts.SnapshotDir, opts)
	case r.opts.Fault != nil:
		return r.Reanalyze(opts)
	default:
		profile, err := r.replay.Finish(r.dir, opts)
		return profile, nil, err
	}
}

func mustTimeSeries() *metrics.TimeSeries {
	ts, err := metrics.NewTimeSeries(time.Second)
	if err != nil {
		panic(err) // one-second width is statically valid
	}
	return ts
}
