// Package polm2 is a Go reproduction of POLM2 (Bruno & Ferreira,
// "POLM2: Automatic Profiling for Object Lifetime-Aware Memory Management
// for HotSpot Big Data Applications", Middleware '17).
//
// POLM2 is a profiler that learns, per allocation site, how long a big-data
// application's objects live, and instruments the application so a
// pretenuring garbage collector (NG2C) allocates objects with similar
// lifetimes in the same generation — cutting stop-the-world pause times
// without any programmer effort.
//
// Nothing in the paper's stack exists in Go (HotSpot, G1, NG2C, CRIU), so
// this package drives a faithful discrete-event simulation of that stack
// (see DESIGN.md) while implementing the paper's actual contribution — the
// Recorder, Dumper, Analyzer (STTree + conflict resolution) and
// Instrumenter — for real.
//
// # Quick start
//
//	app := polm2.Cassandra()
//	prof, err := polm2.ProfileApp(app, "WI", polm2.ProfileOptions{})
//	// handle err
//	res, err := polm2.RunApp(app, "WI", polm2.CollectorNG2C,
//		polm2.PlanPOLM2, prof.Profile, polm2.RunOptions{})
//	// res.WarmPauses holds the pause-time distribution
//
// The two phases mirror the paper's §3.5: ProfileApp runs the workload with
// the Recorder and Dumper attached and analyzes the records into a Profile;
// RunApp executes the production phase with the Instrumenter applying that
// profile under the chosen collector.
package polm2

import (
	"io"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/graphchi"
	"polm2/internal/apps/lucene"
	"polm2/internal/bench"
	"polm2/internal/core"
	"polm2/internal/fleetclient"
	"polm2/internal/online"
	"polm2/internal/profilestore"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Profile is an application allocation profile: the output of the
	// profiling phase and the input of the production phase.
	Profile = analyzer.Profile
	// AllocDirective and CallDirective are the profile's instrumentation
	// directives.
	AllocDirective = analyzer.AllocDirective
	CallDirective  = analyzer.CallDirective
	// AnalyzerOptions tunes the Analyzer (estimator, ablation toggles).
	AnalyzerOptions = analyzer.Options
	// App is a simulated application with evaluation workloads.
	App = core.App
	// Env is the environment a workload runs in.
	Env = core.Env
	// ProfileOptions and ProfileResult parameterize and describe the
	// profiling phase.
	ProfileOptions = core.ProfileOptions
	ProfileResult  = core.ProfileResult
	// RunOptions and RunResult parameterize and describe a production
	// run.
	RunOptions = core.RunOptions
	RunResult  = core.RunResult
	// PlanKind names how a production run was instrumented.
	PlanKind = core.PlanKind
	// BenchConfig and BenchSession drive the paper's evaluation harness.
	BenchConfig  = bench.Config
	BenchSession = bench.Session
	// BenchTarget is one (application, workload) evaluation pair.
	BenchTarget = bench.Target
	// BenchParallelOptions configures the parallel experiment runner.
	BenchParallelOptions = bench.ParallelOptions
	// BenchReport describes one runner invocation: rendered experiment
	// outputs (deterministic) plus per-simulation timings.
	BenchReport = bench.Report
)

// Collector names.
const (
	CollectorG1   = core.CollectorG1
	CollectorNG2C = core.CollectorNG2C
	CollectorC4   = core.CollectorC4
)

// Plan kinds.
const (
	PlanNone   = core.PlanNone
	PlanPOLM2  = core.PlanPOLM2
	PlanManual = core.PlanManual
)

// ProfileApp runs the profiling phase (§3.5): the workload executes with
// the Recorder streaming allocation records and the Dumper snapshotting the
// heap after every GC cycle; the Analyzer turns both into a Profile.
func ProfileApp(app App, workload string, opts ProfileOptions) (*ProfileResult, error) {
	return core.ProfileApp(app, workload, opts)
}

// RunApp executes the production phase: the workload runs under the named
// collector, optionally instrumented with a profile (POLM2's or a
// hand-written one). A nil profile runs the unmodified application.
func RunApp(app App, workload, collector string, plan PlanKind, profile *Profile, opts RunOptions) (*RunResult, error) {
	return core.RunApp(app, workload, collector, plan, profile, opts)
}

// LoadProfile reads a profile saved with Profile.Save.
func LoadProfile(path string) (*Profile, error) {
	return analyzer.LoadProfile(path)
}

// Cassandra returns the Apache Cassandra model (workloads WI, WR, RI).
func Cassandra() App { return cassandra.New() }

// Lucene returns the Apache Lucene model (workload "default").
func Lucene() App { return lucene.New() }

// GraphChi returns the GraphChi model (workloads CC, PR).
func GraphChi() App { return graphchi.New() }

// Apps returns all built-in application models.
func Apps() []App {
	return []App{Cassandra(), Lucene(), GraphChi()}
}

// AppByName returns the built-in application with the given name, or nil.
func AppByName(name string) App {
	for _, app := range Apps() {
		if app.Name() == name {
			return app
		}
	}
	return nil
}

// NewBenchSession builds an evaluation session that regenerates the paper's
// tables and figures.
func NewBenchSession(cfg BenchConfig) *BenchSession {
	return bench.NewSession(cfg)
}

// BenchTargets returns the paper's six evaluation workloads.
func BenchTargets() []BenchTarget { return bench.Targets() }

// BenchExperiments lists the runnable experiment names (table1, fig3..fig9,
// ablations).
func BenchExperiments() []string { return bench.ExperimentNames() }

// RunBenchAll regenerates every table and figure into w.
func RunBenchAll(cfg BenchConfig, w io.Writer) error {
	_, err := RunBenchExperiments(cfg, BenchExperiments(), w, BenchParallelOptions{})
	return err
}

// RunBenchExperiments renders the named experiments concurrently, at most
// opts.Workers simulations at a time, writing rendered output to w. Results
// are deterministic: for a fixed config the bytes written depend only on the
// experiment names, never on the worker count. See
// bench.Session.RunExperiments.
func RunBenchExperiments(cfg BenchConfig, names []string, w io.Writer, opts BenchParallelOptions) (*BenchReport, error) {
	return bench.NewSession(cfg).RunExperiments(names, w, opts)
}

// DeriveSeed maps a base seed and a list of labels to a stable, well-mixed
// per-run seed — the derivation every benchmark simulation seeds its RNG
// with.
func DeriveSeed(base int64, labels ...string) int64 {
	return core.DeriveSeed(base, labels...)
}

// Online profiling (continuous re-analysis and plan hot-swaps; see
// internal/online).
type (
	// OnlineOptions parameterizes a continuously profiled run.
	OnlineOptions = online.Options
	// OnlineResult describes it, including every plan update.
	OnlineResult = online.Result
	// PlanUpdate is one runtime re-instrumentation.
	PlanUpdate = online.PlanUpdate
	// FleetEvent is one fleet sync that could not install a fresh
	// daemon plan.
	FleetEvent = online.FleetEvent
)

// RunOnline executes a workload with the Recorder and Dumper attached in
// production, re-analyzing and hot-swapping the instrumentation plan every
// re-profile interval.
func RunOnline(app App, workload string, opts OnlineOptions) (*OnlineResult, error) {
	return online.Run(app, workload, opts)
}

// Profile repositories (§3.5's one-profile-per-workload deployment model).
type (
	// ProfileStore is an on-disk repository of allocation profiles.
	ProfileStore = profilestore.Store
	// ProfileKey identifies one stored profile.
	ProfileKey = profilestore.Key
)

// ErrProfileNotFound reports a missing profile in a ProfileStore.
var ErrProfileNotFound = profilestore.ErrNotFound

// OpenProfileStore opens (creating if needed) a profile repository at dir.
func OpenProfileStore(dir string) (*ProfileStore, error) {
	return profilestore.Open(dir)
}

// Fleet plan distribution (the polm2d daemon and its client; see
// internal/planserver and internal/fleetclient).
type (
	// FleetClient talks to a polm2d plan daemon: conditional plan
	// fetches, evidence uploads, deterministic backoff, last-good-plan
	// fallback. It satisfies OnlineOptions.Fleet.
	FleetClient = fleetclient.Client
	// FleetClientOptions parameterizes a FleetClient.
	FleetClientOptions = fleetclient.Options
)

// NewFleetClient builds a client for a polm2d daemon.
func NewFleetClient(opts FleetClientOptions) (*FleetClient, error) {
	return fleetclient.New(opts)
}

// MergeProfiles merges per-instance profiling evidence into one fleet-wide
// profile. The merge is deterministic and order-independent: any permutation
// or incremental regrouping of the same profiles yields the same result.
func MergeProfiles(opts AnalyzerOptions, profiles ...*Profile) (*Profile, error) {
	return analyzer.MergeProfiles(opts, profiles...)
}

// RenderSTTree renders a profile's stack-trace tree as text — the paper's
// Figure 2.
func RenderSTTree(p *Profile, w io.Writer) error {
	return analyzer.RenderSTTree(p, w)
}

// RenderDOT renders the same tree in Graphviz DOT form.
func RenderDOT(p *Profile, w io.Writer) error {
	return analyzer.RenderDOT(p, w)
}
