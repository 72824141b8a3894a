// Package online implements continuous, in-production profiling — the
// natural extension of POLM2's two-phase workflow that the paper's related
// work (§6.1) contrasts against and its conclusions point toward.
//
// Instead of a separate profiling phase, the Recorder and Dumper stay
// attached while the application serves production load, and the
// Analyzer's replay folds every snapshot as it is taken. Every re-profile
// interval the replay is finished over everything recorded so far and the
// resulting plan is hot-swapped into the execution engine — the equivalent
// of re-instrumenting the bytecode of freshly loaded classes at runtime.
// Applications whose allocation behaviour shifts (a Cassandra cluster
// moving from a write-heavy ingest phase to a read-heavy serving phase)
// converge to the new behaviour without a restart.
//
// The price is the recording overhead the paper avoids by profiling
// off-line: every allocation pays the logging callback, and every GC cycle
// pays an incremental snapshot. Both are charged to the simulated clock.
package online

import (
	"fmt"
	"os"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/dumper"
	"polm2/internal/faultio"
	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/instrument"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/recorder"
	"polm2/internal/rollout"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
	"polm2/internal/trace"
	"polm2/internal/workload"
)

// Options parameterizes an online run.
type Options struct {
	// Scale divides the paper's heap geometry. Default core.DefaultScale.
	Scale uint64
	// Duration is the simulated run length. Default 30 minutes.
	Duration time.Duration
	// Warmup is excluded from the warm metrics. Default 5 minutes,
	// clamped to half the duration.
	Warmup time.Duration
	// Reprofile is the re-analysis interval. Default 5 simulated
	// minutes.
	Reprofile time.Duration
	// Seed drives the workload randomness. Default 1.
	Seed int64
	// Analyzer tunes the Analyzer for every re-analysis.
	Analyzer analyzer.Options
	// RecordsDir receives allocation records and is created if missing;
	// when empty, a temporary directory that is removed when the run ends.
	RecordsDir string
	// Fault optionally injects I/O faults into the recorder's artifact
	// writes, exercising the salvage path. Nil writes straight through.
	Fault *faultio.Injector
	// Fleet, when non-nil, turns every clean re-profile into fleet
	// coordination: the locally analyzed evidence is uploaded to the plan
	// daemon and the daemon's merged fleet-wide plan is installed instead
	// of the local one (internal/fleetclient.Client implements this).
	// Each re-analysis covers everything recorded since t=0, so the
	// uploads are cumulative — the daemon replaces this instance's
	// previous evidence with each one (keyed by the client's instance
	// id) rather than summing them, keeping the instance counted exactly
	// once in the fleet plan however often it re-profiles. An
	// unreachable daemon keeps the previous plan, mirroring the salvage
	// path's behaviour on damaged artifacts.
	Fleet PlanService
	// Tracer, when non-nil, receives a deterministic trace of the run:
	// "online" events at every re-profile round (plan hot-swaps, salvage
	// fallbacks, fleet rounds) stamped with simulated instants, plus the
	// run span and per-cycle GC pause spans emitted at the end. Nil traces
	// nothing at zero cost.
	Tracer *trace.Tracer
	// Clock is the simulated clock the run advances. Default: a fresh
	// clock starting at zero. Injecting one lets a surrounding harness —
	// a fidelity test, or a simulation embedding whole online instances —
	// share a single timeline between the run, its tracer, and the fleet
	// transport, with no hidden goroutine timing anywhere. The run's
	// duration and warmup accounting assume the clock is at instant zero
	// when Run starts.
	Clock *simclock.Clock
	// tap, when set, sees every image before the run's replay folds it:
	// the package's tests collect each window's snapshots through it.
	tap func(*snapshot.Snapshot)
}

// recordCost is the mutator cost of one allocation-logging callback per
// simulated allocation (one simulated allocation stands for Scale real
// ones).
const recordCost = 2 * time.Microsecond

// PlanService is the fleet-coordination seam: upload evidence, get back
// the merged fleet plan. fresh reports whether the plan came from the
// daemon on this call (false = the client's last-good fallback).
type PlanService interface {
	SyncEvidence(p *analyzer.Profile) (plan *analyzer.Profile, fresh bool, err error)
}

// FeedbackReporter is the optional health-reporting side of a PlanService.
// A Fleet that also implements it (internal/fleetclient.Client does)
// receives one rollout.Report per re-profile round, covering the window
// since the previous report: per-window GC pause p50/p99 and the
// promotion/survivor byte split, all derived from the deterministic cost
// model. The daemon's canary controller judges candidate plans from these
// reports. sent=false means the report was skipped without error (no plan
// version to attribute the window to yet).
type FeedbackReporter interface {
	ReportFeedback(r *rollout.Report) (sent bool, err error)
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = core.DefaultScale
	}
	if o.Duration == 0 {
		o.Duration = core.PaperRunDuration
	}
	if o.Warmup == 0 {
		o.Warmup = core.PaperWarmup
	}
	if o.Warmup > o.Duration/2 {
		o.Warmup = o.Duration / 2
	}
	if o.Reprofile == 0 {
		o.Reprofile = 5 * time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PlanUpdate records one re-analysis.
type PlanUpdate struct {
	// At is the simulated instant the new plan was installed.
	At time.Duration
	// Instrumented, Generations and Conflicts summarize the profile.
	Instrumented int
	Generations  int
	Conflicts    int
}

// SalvageEvent records a re-analysis that met damaged artifacts. The run
// keeps its previous plan and continues; dying on a corrupt re-profile
// would turn recoverable artifact loss into an outage.
type SalvageEvent struct {
	// At is the simulated instant of the attempted re-analysis.
	At time.Duration
	// Report accounts for the loss; nil when the analysis failed outright.
	Report *analyzer.SalvageReport
	// Err is the hard failure, when even salvage was impossible.
	Err string
}

// FleetEvent records one fleet-coordination round that could not install
// a fresh daemon plan.
type FleetEvent struct {
	// At is the simulated instant of the attempted sync.
	At time.Duration
	// Fallback reports the daemon was unreachable and the client's
	// last-good plan was installed instead.
	Fallback bool
	// Err is the hard failure, when not even a fallback plan existed;
	// the run keeps its previous plan.
	Err string
}

// Result describes an online run.
type Result struct {
	// Pauses and WarmPauses as in core.RunResult.
	Pauses     []gc.Pause
	WarmPauses *metrics.Sample
	// WarmOps is the operation total over the measured window.
	WarmOps int64
	// Updates lists every plan installation, first to last.
	Updates []PlanUpdate
	// Salvages lists every re-analysis that met damaged artifacts and
	// kept the previous plan instead of swapping.
	Salvages []SalvageEvent
	// FleetEvents lists every fleet sync that fell back or failed
	// (empty when Options.Fleet is nil or the daemon stayed healthy).
	FleetEvents []FleetEvent
	// FeedbackReports counts health reports delivered to the daemon's
	// rollout controller; FeedbackErrors counts reports that failed to
	// send (the run continues — feedback is advisory, not load-bearing).
	// Both stay zero unless Options.Fleet implements FeedbackReporter.
	FeedbackReports int
	FeedbackErrors  int
	// MaxMemoryBytes is the committed high-water mark.
	MaxMemoryBytes uint64
	// SimDuration is the simulated run length.
	SimDuration time.Duration
}

// tappedReplay hands every image to tap before the replay folds it.
type tappedReplay struct {
	tap func(*snapshot.Snapshot)
	*analyzer.Replay
}

func (t tappedReplay) Add(snap *snapshot.Snapshot) error {
	t.tap(snap)
	return t.Replay.Add(snap)
}

// Run executes a workload with continuous profiling and periodic plan
// hot-swaps.
func Run(app core.App, workloadName string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	clock := opts.Clock
	if clock == nil {
		clock = simclock.New()
	}
	geom := core.ScaledGeometry(opts.Scale)
	col, err := core.NewCollector(core.CollectorNG2C, clock, geom, core.ScaledCostModel(opts.Scale))
	if err != nil {
		return nil, err
	}
	pret, ok := col.(gc.Pretenuring)
	if !ok {
		return nil, fmt.Errorf("online: collector %s does not support pretenuring", col.Name())
	}
	vm := jvm.New(col)
	vm.SetPretenureCostPerByte(core.PretenureCostPerByte(opts.Scale))

	recordsDir := opts.RecordsDir
	if recordsDir == "" {
		recordsDir, err = os.MkdirTemp("", "polm2-online-*")
		if err != nil {
			return nil, fmt.Errorf("online: records dir: %w", err)
		}
		defer os.RemoveAll(recordsDir) //nolint:errcheck // best-effort cleanup of our own temp dir
	} else if err := os.MkdirAll(recordsDir, 0o755); err != nil {
		return nil, fmt.Errorf("online: records dir: %w", err)
	}
	// Every image folds into one replay as it is taken; each re-profile
	// round finishes the replay over the window so far.
	replay := analyzer.NewReplay()
	var images dumper.ImageSink = replay
	if opts.tap != nil {
		images = tappedReplay{opts.tap, replay}
	}
	criu := dumper.New(vm.Heap(), clock, dumper.Config{
		Cost:   core.ScaledDumpCostModel(opts.Scale),
		Images: images,
	})
	rec, err := recorder.New(recorder.Config{Dir: recordsDir, Fault: opts.Fault}, vm.Heap(), vm.Sites(), criu)
	if err != nil {
		return nil, err
	}
	rec.Attach(vm)
	// The logging callback costs mutator time on every allocation — the
	// overhead off-line profiling avoids (§6.1).
	vm.AddAllocHook(func(heap.SiteID, *heap.Object) {
		clock.Advance(recordCost)
	})

	result := &Result{WarmPauses: &metrics.Sample{}}
	var analyzeErr error
	nextReprofile := opts.Reprofile
	// Feedback window bookkeeping: each report covers the pauses since the
	// previous report, so windows tile the run without overlap.
	feedbackFrom := 0
	feedbackStart := time.Duration(0)
	reportFeedback := func(fb FeedbackReporter) {
		pauses := col.Pauses()
		window := pauses[feedbackFrom:]
		start := feedbackStart
		feedbackFrom = len(pauses)
		feedbackStart = clock.Now()
		if len(window) == 0 {
			// A pause-free window carries no pause percentiles — nothing
			// for the decision rule to weigh, so nothing is sent.
			return
		}
		var sample metrics.Sample
		var promoted, copied uint64
		for _, p := range window {
			sample.Add(p.Duration)
			promoted += p.PromotedBytes
			copied += p.BytesCopied
		}
		r := &rollout.Report{
			App:         app.Name(),
			Workload:    workloadName,
			WindowStart: start,
			WindowEnd:   clock.Now(),
			Pauses:      len(window),
			PauseP50:    sample.Percentile(50),
			PauseP99:    sample.Percentile(99),
		}
		if copied > 0 {
			r.PromotionRate = float64(promoted) / float64(copied)
			if r.PromotionRate > 1 {
				r.PromotionRate = 1
			}
			r.SurvivorRate = 1 - r.PromotionRate
		}
		sent, err := fb.ReportFeedback(r)
		switch {
		case err != nil:
			result.FeedbackErrors++
			if opts.Tracer.Enabled() {
				opts.Tracer.EventAt(clock.Now(), "online", "feedback_error",
					trace.String("err", err.Error()))
			}
		case sent:
			result.FeedbackReports++
			if opts.Tracer.Enabled() {
				opts.Tracer.EventAt(clock.Now(), "online", "feedback",
					trace.Int64("pauses", int64(r.Pauses)),
					trace.Int64("pause_p99_ns", int64(r.PauseP99)))
			}
		}
	}
	// Re-analysis is driven from the GC cycle boundary: the heap is
	// quiescent and the Dumper has just produced a snapshot.
	col.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
		if analyzeErr != nil || clock.Now() < nextReprofile {
			return
		}
		nextReprofile = clock.Now() + opts.Reprofile
		if opts.Tracer.Enabled() {
			opts.Tracer.EventAt(clock.Now(), "online", "reprofile",
				trace.Uint64("cycle", cycle),
				trace.Int64("round", int64(len(result.Updates)+len(result.Salvages)+1)))
		}
		if err := rec.Flush(); err != nil {
			analyzeErr = err
			return
		}
		aOpts := opts.Analyzer
		aOpts.App = app.Name()
		aOpts.Workload = workloadName
		// Live streams have no commit trailer yet, so re-analysis always
		// goes through the salvage decoder. A damaged recording keeps the
		// previous plan — instrumenting from partial evidence mid-run is
		// worse than staying the course — and the run continues.
		profile, report, err := replay.FinishSalvage(recordsDir, aOpts)
		if err != nil {
			result.Salvages = append(result.Salvages, SalvageEvent{At: clock.Now(), Err: err.Error()})
			if opts.Tracer.Enabled() {
				opts.Tracer.EventAt(clock.Now(), "online", "salvage",
					trace.String("err", err.Error()))
			}
			return
		}
		if !report.Clean() {
			result.Salvages = append(result.Salvages, SalvageEvent{At: clock.Now(), Report: report})
			if opts.Tracer.Enabled() {
				opts.Tracer.EventAt(clock.Now(), "online", "salvage",
					trace.Int64("lost_bytes", report.LostBytes),
					trace.Int64("damaged_sites", int64(len(report.Sites))),
					trace.Int64("degraded_sites", int64(report.DegradedSites)))
			}
			return
		}
		if opts.Fleet != nil {
			// Report the finished window's health before syncing: the
			// report must name the plan version the window actually ran
			// under, and SyncEvidence may install a newer one.
			if fb, ok := opts.Fleet.(FeedbackReporter); ok {
				reportFeedback(fb)
			}
			// Fleet mode: contribute the local evidence and install the
			// daemon's merged fleet plan in place of the local one.
			merged, fresh, err := opts.Fleet.SyncEvidence(profile)
			if err != nil {
				// No plan to offer at all: keep the previous plan, as a
				// salvage keeps it on damaged artifacts.
				result.FleetEvents = append(result.FleetEvents, FleetEvent{At: clock.Now(), Err: err.Error()})
				if opts.Tracer.Enabled() {
					opts.Tracer.EventAt(clock.Now(), "online", "fleet_error",
						trace.String("err", err.Error()))
				}
				return
			}
			if !fresh {
				result.FleetEvents = append(result.FleetEvents, FleetEvent{At: clock.Now(), Fallback: true})
				if opts.Tracer.Enabled() {
					opts.Tracer.EventAt(clock.Now(), "online", "fleet_fallback")
				}
			} else if opts.Tracer.Enabled() {
				opts.Tracer.EventAt(clock.Now(), "online", "fleet_sync",
					trace.Int64("instrumented", int64(merged.InstrumentedSites())))
			}
			profile = merged
		}
		plan, err := instrument.Apply(profile, pret)
		if err != nil {
			analyzeErr = fmt.Errorf("online: re-instrumentation at %v: %w", clock.Now(), err)
			return
		}
		vm.SetPlan(plan)
		result.Updates = append(result.Updates, PlanUpdate{
			At:           clock.Now(),
			Instrumented: profile.InstrumentedSites(),
			Generations:  profile.UsedGenerations(),
			Conflicts:    profile.Conflicts,
		})
		if opts.Tracer.Enabled() {
			opts.Tracer.EventAt(clock.Now(), "online", "plan_swap",
				trace.Int64("update", int64(len(result.Updates))),
				trace.Int64("instrumented", int64(profile.InstrumentedSites())),
				trace.Int64("generations", int64(profile.UsedGenerations())),
				trace.Int64("conflicts", int64(profile.Conflicts)))
		}
	})

	env := core.NewEnv(vm, clock, workload.NewRand(opts.Seed), opts.Duration)
	if err := app.Run(env, workloadName); err != nil {
		return nil, fmt.Errorf("online: running %s/%s: %w", app.Name(), workloadName, err)
	}
	if analyzeErr != nil {
		return nil, analyzeErr
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	// Flush the tail window: pauses after the last re-profile round still
	// count as evidence for whichever plan version they ran under.
	if fb, ok := opts.Fleet.(FeedbackReporter); ok {
		reportFeedback(fb)
	}

	result.Pauses = col.Pauses()
	for _, p := range result.Pauses {
		if p.Start >= opts.Warmup {
			result.WarmPauses.Add(p.Duration)
		}
	}
	for _, n := range env.OpsSeries().Slice(opts.Warmup, opts.Duration) {
		result.WarmOps += n
	}
	result.MaxMemoryBytes = vm.Heap().Stats().MaxCommittedBytes
	result.SimDuration = clock.Now()
	if opts.Tracer.Enabled() {
		opts.Tracer.Span("online", "run", 0, result.SimDuration,
			trace.String("app", app.Name()),
			trace.String("workload", workloadName),
			trace.Int64("updates", int64(len(result.Updates))),
			trace.Int64("salvages", int64(len(result.Salvages))),
			trace.Int64("fleet_events", int64(len(result.FleetEvents))),
			trace.Uint64("gc_cycles", col.Cycles()))
		gc.TracePauses(opts.Tracer, core.ScaledCostModel(opts.Scale), result.Pauses)
	}
	return result, nil
}
