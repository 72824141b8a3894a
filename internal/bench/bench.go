// Package bench is the evaluation harness of the POLM2 reproduction: one
// runner per table and figure of the paper's §5, plus the ablations listed
// in DESIGN.md §5.
//
// The harness caches profiling and production runs, so regenerating all
// figures performs each run once. All output is plain text tables; the
// paper's expected values are printed alongside the measured ones where the
// paper states them.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/graphchi"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/faultio"
	"polm2/internal/trace"
)

// Target names one evaluated (application, workload) pair.
type Target struct {
	App      core.App
	Workload string
}

// Key returns the target's display key, e.g. "Cassandra-WI".
func (t Target) Key() string {
	if len(t.App.Workloads()) == 1 {
		return t.App.Name()
	}
	return t.App.Name() + "-" + t.Workload
}

// Targets returns the paper's six evaluation workloads in its order.
func Targets() []Target {
	cass, luc, gr := cassandra.New(), lucene.New(), graphchi.New()
	return []Target{
		{App: cass, Workload: cassandra.WorkloadWI},
		{App: cass, Workload: cassandra.WorkloadWR},
		{App: cass, Workload: cassandra.WorkloadRI},
		{App: luc, Workload: lucene.Workload},
		{App: gr, Workload: graphchi.WorkloadCC},
		{App: gr, Workload: graphchi.WorkloadPR},
	}
}

// Config parameterizes a benchmark session.
type Config struct {
	// Scale divides the paper's heap geometry. Default core.DefaultScale.
	Scale uint64
	// ProfileDuration overrides the profiling window (default
	// core.DefaultProfilingDuration).
	ProfileDuration time.Duration
	// RunDuration and Warmup override the production run window
	// (defaults: the paper's 30 minutes with 5 ignored).
	RunDuration time.Duration
	Warmup      time.Duration
	// Seed drives every run's randomness. Default 1.
	Seed int64
	// FaultSpec, when non-empty, injects the given I/O fault plan (see
	// faultio.ParseSpec) into every profiling run's artifact writes and
	// analyzes in salvage mode — the resilience benchmark. Empty runs
	// faultless and strict.
	FaultSpec string
	// Trace, when true, records a deterministic trace of every simulated
	// unit (profiling and production runs). Each unit traces into its own
	// buffer; WriteTrace concatenates the buffers sorted by unit key, so
	// the bytes are identical however many workers executed the units —
	// the same discipline the harness applies to its stdout.
	Trace bool
}

// Session caches profiles and runs across experiments. All cache methods
// are safe for concurrent use: the parallel runner (runner.go) renders
// experiments concurrently, and identical requests coalesce into a single
// simulation via single-flight memoization.
//
// Every simulation seeds its RNG with a seed derived from (cfg.Seed, run
// identity) — see core.DeriveSeed — so results depend only on the
// configuration, never on worker count or scheduling order.
type Session struct {
	cfg Config
	*caches
	// run is set on the view of the session a RunExperiments call renders
	// through: its simulations take that call's worker slots. Nil
	// otherwise, and a simulation then runs without a slot.
	run *experimentRun
}

// caches is the state every view of a session shares.
type caches struct {
	profiles memo[*core.ProfileResult]
	runs     memo[*core.RunResult]

	// traceMu guards traces: each simulated unit's finished trace bytes,
	// keyed "kind:unit key". Units write into private buffers first, so
	// worker scheduling never interleaves records.
	traceMu sync.Mutex
	traces  map[string][]byte
}

// NewSession builds an empty session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg, caches: &caches{traces: make(map[string][]byte)}}
}

// The simulators every session call goes through; tests swap them to
// inject failures.
var (
	profileApp = core.ProfileApp
	runApp     = core.RunApp
)

// traceUnit starts the per-unit tracer for one simulation (nil when the
// session does not trace), returning it with a done function that files
// the unit's bytes for WriteTrace. The unit's first record names it, so a
// concatenated session trace stays self-describing.
func (s *Session) traceUnit(kind, key string) (*trace.Tracer, func()) {
	if !s.cfg.Trace {
		return nil, func() {}
	}
	buf := &bytes.Buffer{}
	tr := trace.New(trace.Options{Writer: buf})
	tr.Event("bench", "unit", trace.String("kind", kind), trace.String("key", key))
	return tr, func() {
		s.traceMu.Lock()
		s.traces[kind+":"+key] = append([]byte(nil), buf.Bytes()...)
		s.traceMu.Unlock()
	}
}

// WriteTrace writes every traced unit's records, units sorted by key —
// the deterministic serial order, independent of how many workers ran the
// session. Within a unit, records keep their emission order (and per-unit
// seq numbering restarts at zero).
func (s *Session) WriteTrace(w io.Writer) error {
	s.traceMu.Lock()
	keys := make([]string, 0, len(s.traces))
	for k := range s.traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bufs := make([][]byte, len(keys))
	for i, k := range keys {
		bufs[i] = s.traces[k]
	}
	s.traceMu.Unlock()
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Profile returns the (cached) POLM2 profiling result for a target.
func (s *Session) Profile(t Target) (*core.ProfileResult, error) {
	return s.profileEvery(t, 1)
}

// profileEvery returns the (cached) profiling result for a target with a
// snapshot after every k-th GC cycle. k = 1 is the default profile; the
// cadence ablation's other k, cached as "<target>|cadence-<k>", share its
// seed: each answers "same profiling run, one knob changed".
func (s *Session) profileEvery(t Target, k int) (*core.ProfileResult, error) {
	key := t.Key()
	if k != 1 {
		key += fmt.Sprintf("|cadence-%d", k)
	}
	return s.profiles.get(key, func() (*core.ProfileResult, error) {
		opts := core.ProfileOptions{
			Scale:         s.cfg.Scale,
			Duration:      s.cfg.ProfileDuration,
			Seed:          core.DeriveSeed(s.cfg.Seed, "profile", t.Key()),
			SnapshotEvery: k,
		}
		if s.cfg.FaultSpec != "" {
			plan, err := faultio.ParseSpec(s.cfg.FaultSpec)
			if err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			// Each profiling run gets its own injector: the crash
			// fault's syscall clock is per-run state.
			opts.Fault = faultio.New(plan)
		}
		tr, done := s.traceUnit("profile", key)
		opts.Tracer = tr
		res, err := simulate(s, "profile", "profile:"+key, func() (*core.ProfileResult, error) {
			return profileApp(t.App, t.Workload, opts)
		})
		if err == nil {
			done()
		}
		return res, err
	})
}

// analyzed returns t's POLM2 profile under the given analysis options: the
// default profile itself for the zero options, else the default profile's
// site evidence re-synthesized under them. The Analyzer is a pure function
// of that evidence, so this equals analyzing the default run's artifacts
// with the options, without simulating the run again.
func (s *Session) analyzed(t Target, opts analyzer.Options) (*analyzer.Profile, error) {
	def, err := s.Profile(t)
	if err != nil {
		return nil, err
	}
	if opts == (analyzer.Options{}) {
		return def.Profile, nil
	}
	return analyzer.MergeProfiles(opts, def.Profile)
}

// Run returns the (cached) production run of a target under the named
// collector and plan.
func (s *Session) Run(t Target, collectorName string, plan core.PlanKind) (*core.RunResult, error) {
	return s.runVariant(t, collectorName, plan, "", analyzer.Options{})
}

// runVariant returns the (cached) production run for a setup, its POLM2
// plan the target's default profile analyzed under opts (see analyzed) —
// the analysis ablations'. The empty variant, with zero options, runs the
// default profile. All variants of a setup share the setup's run seed,
// whose identity includes collector and plan so the pause-time comparisons
// draw independent workload streams.
func (s *Session) runVariant(t Target, collectorName string, plan core.PlanKind, variant string, opts analyzer.Options) (*core.RunResult, error) {
	key := fmt.Sprintf("%s/%s/%s", t.Key(), collectorName, plan)
	if variant != "" {
		key += "|" + variant
	}
	return s.runs.get(key, func() (*core.RunResult, error) {
		var profile *analyzer.Profile
		switch plan {
		case core.PlanPOLM2:
			var err error
			profile, err = s.analyzed(t, opts)
			if err != nil {
				return nil, err
			}
		case core.PlanManual:
			var err error
			profile, err = t.App.ManualProfile(t.Workload)
			if err != nil {
				return nil, fmt.Errorf("bench: manual profile for %s: %w", t.Key(), err)
			}
		case core.PlanNone:
			// unmodified application
		default:
			return nil, fmt.Errorf("bench: unknown plan kind %q", plan)
		}
		tr, done := s.traceUnit("run", key)
		res, err := simulate(s, "run", "run:"+key, func() (*core.RunResult, error) {
			return runApp(t.App, t.Workload, collectorName, plan, profile, core.RunOptions{
				Scale:    s.cfg.Scale,
				Duration: s.cfg.RunDuration,
				Warmup:   s.cfg.Warmup,
				Seed:     core.DeriveSeed(s.cfg.Seed, "run", t.Key(), collectorName, string(plan)),
				Tracer:   tr,
			})
		})
		if err == nil {
			done()
		}
		return res, err
	})
}

// setup is one production configuration of a target.
type setup struct {
	label     string
	collector string
	plan      core.PlanKind
}

// pauseSetups is the three pause-time comparison configurations of
// Figures 5 and 6, the same for every target.
func pauseSetups(Target) []setup {
	return []setup{
		{label: "G1", collector: core.CollectorG1, plan: core.PlanNone},
		{label: "NG2C", collector: core.CollectorNG2C, plan: core.PlanManual},
		{label: "POLM2", collector: core.CollectorNG2C, plan: core.PlanPOLM2},
	}
}

// withC4 is t's pause setups plus C4 for Cassandra, the one application
// the paper also runs on C4 (Figures 7 to 9).
func withC4(t Target) []setup {
	if t.App.Name() != "Cassandra" {
		return pauseSetups(t)
	}
	return append(pauseSetups(t), setup{label: "C4", collector: core.CollectorC4, plan: core.PlanNone})
}

// runsOf returns the run of every target under each of its setups (see
// fetchAll).
func (s *Session) runsOf(targets []Target, setups func(Target) []setup) ([][]*core.RunResult, error) {
	return fetchAll(s, len(targets), func(i int) ([]*core.RunResult, error) {
		sus := setups(targets[i])
		return fetchAll(s, len(sus), func(j int) (*core.RunResult, error) {
			return s.Run(targets[i], sus[j].collector, sus[j].plan)
		})
	})
}

// experiment is one runnable table, figure or ablation.
type experiment struct {
	name   string
	render func(*Session, io.Writer) error
}

// experiments lists the runnable experiments in paper order.
var experiments = []experiment{
	{"table1", (*Session).Table1},
	{"fig3", (*Session).Figure3},
	{"fig4", (*Session).Figure4},
	{"fig5", (*Session).Figure5},
	{"fig6", (*Session).Figure6},
	{"fig7", (*Session).Figure7},
	{"fig8", (*Session).Figure8},
	{"fig9", (*Session).Figure9},
	{"ablation-dump", (*Session).AblationDump},
	{"ablation-conflict", (*Session).AblationConflict},
	{"ablation-hoist", (*Session).AblationHoist},
	{"ablation-estimator", (*Session).AblationEstimator},
	{"ablation-cadence", (*Session).AblationCadence},
}

// ExperimentNames lists the runnable experiments in paper order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func lookupExperiment(name string) (experiment, error) {
	for _, e := range experiments {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("bench: unknown experiment %q (want one of %v)", name, ExperimentNames())
}

// RunExperiment renders one experiment by name.
func (s *Session) RunExperiment(name string, w io.Writer) error {
	e, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	return e.render(s, w)
}

// fmtMS renders a duration as fractional milliseconds.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}
