// Package simnet is a deterministic in-memory fleet simulator for the
// polm2d plan-distribution stack: one or more planserver daemons and a
// fleet of fleetclient-driven instances run under a single seed with no
// real sockets, no real time, and no goroutine scheduling on any decision
// path.
//
// The simulator is three layers:
//
//  1. A virtual transport (transport.go) that implements the fleetclient
//     HTTP surface by direct handler invocation, with faultio.NetPlan
//     network faults — drops, duplicates, stale retransmissions, delays,
//     gateway 5xxs, partition windows — interposed between client and
//     daemon.
//  2. A virtual-time event loop built on internal/simclock's Queue. It
//     owns every timer in the stack: instance boot and re-profile
//     cadences, fleetclient retry backoff (Sleep advances the virtual
//     clock), and the daemons' merge workers — the simulation is every
//     daemon's planserver.Stepper executor: Go defers a worker into one
//     FIFO released after drainDelay, and a handler that must wait steps
//     the FIFO's head itself. Events at one instant tie-break on seeded
//     priorities, so a seed replays byte-identically — same trace, same
//     invariant log.
//  3. An invariant checker (report.go) evaluated after the fleet
//     quiesces, built on an independent replay of the transport's
//     delivery log: one per-key pass over every daemon (a single-daemon
//     run is the one-replica case) for plan identity, convergence and
//     gauge accounting, plus counter accounting, ETag monotonicity, one
//     served body per ETag (the model merge's directives, once converged),
//     idempotent duplicate delivery, and no sticky degradation once
//     tainted evidence clears.
//
// With Config.Rollout set, the simulated daemon runs its canary rollout
// controller: instances report per-window plan health after every fetch,
// Config.RegressAt injects a plan regression mid-run, and the checker adds
// the rollout invariants — a candidate that regressed its canary window is
// never served to a non-canary instance, and every rollback converges the
// fleet back to the last-good version.
//
// The polm2-simnet command sweeps seeds and replays failures; the CI
// simnet-sweep job runs it under the race detector.
package simnet

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/faultio"
	"polm2/internal/fleetclient"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/simclock"
	"polm2/internal/trace"
)

// Config parameterizes one simulated fleet run.
type Config struct {
	// Seed drives everything: instance jitter, retry backoff, event
	// tie-breaks, and (unless FaultSpec pins its own "seed=") the fault
	// draws. Default 1.
	Seed int64
	// Instances is the fleet size. Default 16.
	Instances int
	// Keys is the number of distinct (app, workload) keys the fleet
	// spreads over (instance i profiles key i mod Keys). Default 1.
	Keys int
	// Rounds is the number of chaos-phase re-profile rounds per instance
	// (one recovery round after faults clear is always added). Default 3.
	Rounds int
	// Daemons is the number of replicated planserver daemons. Default 1 —
	// one daemon at http://polm2d.simnet, byte-identical to every
	// pre-replication build. With more, daemon i serves
	// http://daemon-i.simnet from its own store under StoreDir/daemon-i,
	// replicating evidence and rollout state from the others by pull-based
	// anti-entropy (planserver sync.go); instance i homes on daemon
	// i mod Daemons with the rest as fleetclient failover targets, and a
	// fault spec can partition a daemon by name ("partition:daemon-1..1@…")
	// to isolate it from instances and peers alike.
	Daemons int
	// SyncInterval is each daemon's anti-entropy cadence in a replicated
	// run. Default Cadence/2.
	SyncInterval time.Duration
	// Cadence is the simulated re-profile interval. Default 30s.
	Cadence time.Duration
	// FaultSpec is a faultio.ParseNetSpec network fault plan, e.g.
	// "partition:inst-3..7@t=40s/20s;drop:upload%5". Empty runs a clean
	// network.
	FaultSpec string
	// Rollout, when non-nil, boots the daemon with the canary rollout
	// controller (normalized before use): merged plans are staged through
	// a canary cohort instead of published fleet-wide, every instance
	// reports plan health after each fetch, and the invariant checker
	// switches to the rollout-mode suite (report.go) — containment of
	// regressed candidates to the cohort, rollback convergence to
	// last-good, and feedback/decision counter accounting.
	Rollout *rollout.Config
	// RegressAt, in rollout runs, injects a plan regression: from this
	// virtual instant on, one designated instance per key uploads
	// evidence carrying a pathological allocation site, and every
	// instance whose installed plan contains that site reports a badly
	// regressed pause p99. Candidates merged after this instant must be
	// rolled back and quarantined, never promoted. Zero injects nothing.
	RegressAt time.Duration
	// StoreDir is the daemon's profile store directory. Required (the
	// caller owns its lifetime; tests pass t.TempDir()).
	StoreDir string
	// TraceWriter, when non-nil, receives the run's JSONL trace —
	// planserver, fleetclient and simnet events interleaved on the
	// virtual clock. Two runs of one seed write identical bytes.
	TraceWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Instances == 0 {
		c.Instances = 16
	}
	if c.Keys == 0 {
		c.Keys = 1
	}
	if c.Keys > c.Instances {
		c.Keys = c.Instances
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Cadence == 0 {
		c.Cadence = 30 * time.Second
	}
	if c.Daemons == 0 {
		c.Daemons = 1
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = c.Cadence / 2
	}
	if c.Rollout != nil {
		n := c.Rollout.Normalize()
		c.Rollout = &n
	}
	return c
}

const (
	// taintRounds: during the first taintRounds rounds, every third
	// instance uploads evidence whose per-instance site is mostly tainted —
	// enough to push it under the analyzer's confidence floor and degrade
	// it to generation zero. Later rounds upload clean evidence, so the
	// no-sticky-degradation invariant has something to bite on.
	taintRounds = 1
	// drainDelay is the virtual-time deferral of the daemons' merge
	// workers — the window in which concurrent uploads coalesce into one
	// merge.
	drainDelay = 200 * time.Millisecond
)

// instance is one simulated production instance.
type instance struct {
	idx    int
	id     string
	key    profilestore.Key
	client *fleetclient.Client
	// alts are per-daemon side channels to the non-home daemons of a
	// replicated rollout run (ascending daemon index, home skipped): each
	// daemon runs its own canary controller and only decides on feedback
	// it hears itself, so the settle phase reports every instance's window
	// to every replica. altLast tracks each channel's previous window end.
	alts    []*fleetclient.Client
	altLast []time.Duration
	taints  bool
	// poisons marks the key's designated regression source: from
	// Config.RegressAt on, its uploads carry the poison site.
	poisons bool

	rounds, fallbacks, errors int

	// cur is the profile the instance currently has installed (the last
	// plan any fetch or sync returned); its content decides whether the
	// instance's feedback reports a regressed p99. lastFeedback is the
	// previous report's window end.
	cur          *analyzer.Profile
	lastFeedback time.Duration
	feedbacks    int

	finalOutcome fleetclient.Outcome
	finalErr     error
	finalETag    string
	finalPlan    *analyzer.Profile
}

// sim is one run's mutable state. Everything is driven from the
// single-threaded event loop.
type sim struct {
	cfg    Config
	clock  *simclock.Clock
	q      *simclock.Queue
	net    *network
	plan   *faultio.NetPlan
	srvs   []*planserver.Server  // every daemon, index order
	stores []*profilestore.Store // each daemon's store, index order
	tracer *trace.Tracer

	instances []*instance
	// workers is the daemons' deferred merge-worker FIFO: Go appends here
	// and enqueues a release event; Step (called by the release event or
	// by a handler that must wait) runs the head, so every worker runs
	// exactly once whether the clock or a blocked handler gets there
	// first.
	workers []func()
	pri     prng
	events  int
}

// Run executes one simulated fleet under cfg and returns its report. A
// non-nil error means the simulation could not be built (bad fault spec,
// unusable store); invariant violations are reported in Report.Violations,
// not as errors.
func Run(cfg Config) (*Report, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.run()
	return s.report(), nil
}

// build assembles one simulation — fabric, daemons, fleet — without
// running any of it.
func build(cfg Config) (*sim, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("simnet: Config.StoreDir is required")
	}
	var plan *faultio.NetPlan
	if cfg.FaultSpec != "" {
		var err error
		if plan, err = faultio.ParseNetSpec(cfg.FaultSpec); err != nil {
			return nil, err
		}
		// The run seed owns the fault draws unless the spec pins its own
		// (a replayed reproduction spec carries "seed=").
		if !strings.Contains(cfg.FaultSpec, "seed=") {
			plan.Seed = cfg.Seed
		}
	}
	clock := simclock.New()
	s := &sim{
		cfg:   cfg,
		clock: clock,
		q:     simclock.NewQueue(clock),
		plan:  plan,
		pri:   prng{state: uint64(cfg.Seed)},
	}
	if cfg.TraceWriter != nil {
		s.tracer = trace.New(trace.Options{Writer: cfg.TraceWriter, Now: clock.Now})
	}
	// The network is built before the daemons so a replicated daemon's
	// anti-entropy client can ride the same fabric (and the same fault
	// plan) as the fleet; its fallback handler is daemon zero.
	s.net = newNetwork(nil, clock, plan)
	for i := 0; i < cfg.Daemons; i++ {
		name, host, dir := "polm2d", "polm2d.simnet", cfg.StoreDir
		opts := planserver.Options{
			Now:      clock.Now,
			Tracer:   s.tracer,
			Executor: s,
			Rollout:  cfg.Rollout,
		}
		if cfg.Daemons > 1 {
			name = daemonName(i)
			host = name + ".simnet"
			dir = filepath.Join(cfg.StoreDir, name)
			opts.SelfID = name
			for j := 0; j < cfg.Daemons; j++ {
				if j != i {
					opts.Peers = append(opts.Peers, daemonURL(j))
				}
			}
			opts.PeerClient = &http.Client{Transport: s.net.transport(name)}
		}
		store, err := profilestore.Open(dir)
		if err != nil {
			return nil, err
		}
		srv := planserver.New(store, opts)
		s.srvs = append(s.srvs, srv)
		s.stores = append(s.stores, store)
		s.net.route(host, srv)
	}
	s.net.handler = s.srvs[0]

	for i := 0; i < cfg.Instances; i++ {
		id := "inst-" + strconv.Itoa(i)
		home := i % cfg.Daemons
		base := "http://polm2d.simnet"
		var alternates []string
		if cfg.Daemons > 1 {
			// Home daemon first, the rest in index order as sticky
			// failover targets: an instance partitioned from its home
			// keeps uploading through whichever replica it can reach.
			base = daemonURL(home)
			for j := 0; j < cfg.Daemons; j++ {
				if j != home {
					alternates = append(alternates, daemonURL(j))
				}
			}
		}
		client, err := fleetclient.New(fleetclient.Options{
			BaseURL:    base,
			BaseURLs:   alternates,
			Seed:       core.DeriveSeed(cfg.Seed, "simnet", id),
			InstanceID: id,
			HTTPClient: &http.Client{Transport: s.net.transport(id)},
			Sleep:      func(d time.Duration) { clock.Advance(d) },
			Tracer:     s.tracer,
		})
		if err != nil {
			return nil, err
		}
		in := &instance{
			idx:    i,
			id:     id,
			key:    profilestore.Key{App: "App" + strconv.Itoa(i%cfg.Keys), Workload: "w"},
			client: client,
			taints: i%3 == 0,
		}
		if cfg.Daemons > 1 && cfg.Rollout != nil {
			for j := 0; j < cfg.Daemons; j++ {
				if j == home {
					continue
				}
				alt, err := fleetclient.New(fleetclient.Options{
					BaseURL:    daemonURL(j),
					Seed:       core.DeriveSeed(cfg.Seed, "simnet", id, "alt-"+strconv.Itoa(j)),
					InstanceID: id,
					HTTPClient: &http.Client{Transport: s.net.transport(id)},
					Sleep:      func(d time.Duration) { clock.Advance(d) },
					Tracer:     s.tracer,
				})
				if err != nil {
					return nil, err
				}
				in.alts = append(in.alts, alt)
				in.altLast = append(in.altLast, 0)
			}
		}
		s.instances = append(s.instances, in)
	}
	if cfg.Rollout != nil && cfg.RegressAt > 0 {
		// The highest-index member of each key is the regression source.
		poisoned := make(map[string]bool)
		for i := cfg.Instances - 1; i >= 0; i-- {
			if in := s.instances[i]; !poisoned[in.key.App] {
				poisoned[in.key.App] = true
				in.poisons = true
			}
		}
	}

	return s, nil
}

// run drives the event queue dry, then quiesces: publish every accepted
// upload (Flush steps any still-parked merge workers), run anti-entropy to
// fixpoint so every daemon has heard everything (replicated runs), settle
// any canary still open (rollout mode), sync once more so the settle
// decisions propagate, then poll the whole fleet on the now-quiet network.
func (s *sim) run() {
	s.scheduleFleet()
	for s.q.RunNext() {
		s.events++
	}
	s.flushAll()
	s.syncToFixpoint()
	if s.cfg.Rollout != nil {
		s.settleRollouts()
	}
	s.syncToFixpoint()
	s.finalPolls()
}

// daemonName and daemonURL name the replicas of a multi-daemon run; a
// single-daemon run keeps the historical polm2d.simnet identity.
func daemonName(i int) string { return "daemon-" + strconv.Itoa(i) }
func daemonURL(i int) string  { return "http://" + daemonName(i) + ".simnet" }

// flushAll publishes every accepted upload on every daemon.
func (s *sim) flushAll() {
	for _, srv := range s.srvs {
		srv.Flush()
	}
}

// syncToFixpoint runs anti-entropy rounds across every daemon until a
// full round pulls nothing: the replicated quiesce point at which no
// daemon holds a document its peers haven't heard. Each round flushes,
// so pulled evidence is merged and published before the next summary
// comparison. Stamps are totally ordered and pulls only move forward, so
// the fixpoint exists; the bound is a stall backstop, not a limit the
// protocol can reach. No-op on a single-daemon run.
func (s *sim) syncToFixpoint() {
	if s.cfg.Daemons <= 1 {
		return
	}
	for round := 0; round < 8; round++ {
		applied := 0
		for _, srv := range s.srvs {
			applied += srv.SyncPeers()
		}
		s.flushAll()
		if applied == 0 {
			return
		}
	}
	if s.tracer.Enabled() {
		s.tracer.Event("simnet", "sync_exhausted")
	}
}

// scheduleFleet lays out the whole run on the event queue: jittered boots,
// Rounds re-profile rounds with a mid-cadence poll each, the quiet point
// at which every fault has cleared, and one clean recovery round.
func (s *sim) scheduleFleet() {
	cadence := s.cfg.Cadence
	var chaosEnd time.Duration
	for _, in := range s.instances {
		in := in
		boot := s.jitter("boot", in.id, cadence)
		s.q.At(boot, s.pri.next(), func() { s.boot(in) })
		for r := 0; r < s.cfg.Rounds; r++ {
			r := r
			at := boot + time.Duration(r+1)*cadence + s.jitter("round/"+strconv.Itoa(r), in.id, cadence/4)
			s.q.At(at, s.pri.next(), func() { s.round(in, r) })
			s.q.At(at+cadence/2, s.pri.next(), func() { s.poll(in) })
		}
		if end := boot + time.Duration(s.cfg.Rounds+1)*cadence; end > chaosEnd {
			chaosEnd = end
		}
	}
	if clear := s.plan.PartitionsClearBy(); clear+cadence/2 > chaosEnd {
		chaosEnd = clear + cadence/2
	}
	if s.cfg.Daemons > 1 {
		// Each daemon pulls its peers on a jittered anti-entropy cadence,
		// through the chaos phase (partitioned pulls fail and count sync
		// errors — that is the protocol under test) and far enough past it
		// to observe recovery before the quiesce fixpoint.
		for i, srv := range s.srvs {
			srv := srv
			off := s.jitter("sync", daemonName(i), s.cfg.SyncInterval)
			for t := s.cfg.SyncInterval + off; t < chaosEnd+2*cadence; t += s.cfg.SyncInterval {
				s.q.At(t, s.pri.next(), func() { srv.SyncPeers() })
			}
		}
	}
	s.q.At(chaosEnd, s.pri.next(), func() {
		s.net.quiet = true
		if s.tracer.Enabled() {
			s.tracer.Event("simnet", "quiet")
		}
	})
	for _, in := range s.instances {
		in := in
		at := chaosEnd + cadence/4 + s.jitter("recovery", in.id, cadence)
		s.q.At(at, s.pri.next(), func() { s.round(in, s.cfg.Rounds) })
	}
}

// jitter derives a stable per-instance offset in [0, span) from the run
// seed — stable identity, not stream position, so reordering the schedule
// construction cannot move anyone's timing.
func (s *sim) jitter(label, id string, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	return time.Duration(uint64(core.DeriveSeed(s.cfg.Seed, "simnet", label, id)) % uint64(span))
}

// boot is an instance's first contact: fetch whatever plan the daemon
// already holds (a cold store answers no-plan).
func (s *sim) boot(in *instance) {
	plan, outcome, err := in.client.FetchPlan(in.key.App, in.key.Workload)
	if err == nil && plan != nil {
		in.cur = plan
	}
	s.traceInstance("boot", in, outcomeString(outcome, err))
}

// round is one re-profile: build this round's cumulative evidence, upload
// it, and adopt the fleet plan that comes back.
func (s *sim) round(in *instance, r int) {
	plan, fresh, err := in.client.SyncEvidence(s.evidence(in, r))
	in.rounds++
	outcome := "merged"
	switch {
	case err != nil:
		in.errors++
		outcome = "error"
	case !fresh:
		in.fallbacks++
		outcome = "fallback"
	}
	if err == nil && plan != nil {
		in.cur = plan
	}
	s.traceInstance("round", in, outcome, trace.Int64("round", int64(r)))
	s.feedback(in)
}

// poll is a mid-cadence conditional fetch — the steady-state traffic that
// exercises 304s and observes plan versions between merges.
func (s *sim) poll(in *instance) {
	plan, outcome, err := in.client.FetchPlan(in.key.App, in.key.Workload)
	if err == nil && plan != nil {
		in.cur = plan
	}
	s.traceInstance("poll", in, outcomeString(outcome, err))
	s.feedback(in)
}

// poisonFrame is the pathological allocation site the designated
// regression source starts reporting at Config.RegressAt. Its objects
// survive, so the merge instruments it: a plan is "poisoned" — and
// regresses whoever runs it — when it pretenures the site. Since merges
// fold in every instance's latest evidence, every candidate staged after
// the injection is poisoned until the source is fixed, which in this
// scenario never happens.
const poisonFrame = "Hot.regress:666"

func poisoned(p *analyzer.Profile) bool {
	if p == nil {
		return false
	}
	for _, d := range p.Allocs {
		if d.Loc == poisonFrame {
			return true
		}
	}
	return false
}

// healthReport is the synthetic equivalent of online.Run's per-window
// health report for a window [start, end) run under plan. The pause
// percentiles are a pure function of the plan's content: baseline numbers
// normally, badly regressed ones when the plan is poisoned.
func healthReport(key profilestore.Key, start, end time.Duration, plan *analyzer.Profile) *rollout.Report {
	r := &rollout.Report{
		App:           key.App,
		Workload:      key.Workload,
		WindowStart:   start,
		WindowEnd:     end,
		Pauses:        8,
		PauseP50:      6 * time.Millisecond,
		PauseP99:      15 * time.Millisecond,
		PromotionRate: 0.2,
		SurvivorRate:  0.8,
	}
	if poisoned(plan) {
		r.PauseP50, r.PauseP99 = 9*time.Millisecond, 40*time.Millisecond
		r.PromotionRate, r.SurvivorRate = 0.7, 0.3
	}
	return r
}

// feedback reports the instance's window since its previous report, run
// under its installed plan. fleetclient stamps the ETag (the plan version
// the window ran under) and skips entirely while no plan is installed.
func (s *sim) feedback(in *instance) {
	if s.cfg.Rollout == nil {
		return
	}
	start := in.lastFeedback
	in.lastFeedback = s.clock.Now()
	sent, err := in.client.ReportFeedback(healthReport(in.key, start, in.lastFeedback, in.cur))
	outcome := "reported"
	switch {
	case err != nil:
		outcome = "error"
	case !sent:
		outcome = "skipped"
	default:
		in.feedbacks++
	}
	s.traceInstance("feedback", in, outcome)
}

// maxSettleSweeps bounds the rollout settle loop. Each sweep delivers one
// report per instance on a quiet network, so any canary the decision rule
// can resolve resolves within a few sweeps; a canary still open after the
// bound is a stalled rollout the invariant checker reports.
const maxSettleSweeps = 24

// settleRollouts drives every open canary to a terminal state before the
// final observation: while any key is mid-canary, the whole fleet polls
// (cohort members fetch the candidate) and reports its window, with the
// clock advancing between sweeps. This is the simulated tail of a real
// fleet's steady-state traffic — the controller only decides on feedback,
// so the quiesce phase must keep feedback flowing until it has decided.
func (s *sim) settleRollouts() {
	for sweep := 0; sweep < maxSettleSweeps; sweep++ {
		if !s.openCanary() {
			return
		}
		s.clock.Advance(s.cfg.Cadence / 4)
		for _, in := range s.instances {
			s.poll(in)
		}
		s.altSweep()
		s.syncToFixpoint()
	}
	if s.tracer.Enabled() {
		s.tracer.Event("simnet", "settle_exhausted")
	}
}

// openCanary reports whether any key on any daemon is still mid-canary.
func (s *sim) openCanary() bool {
	for _, srv := range s.srvs {
		for k := 0; k < s.cfg.Keys; k++ {
			snap, ok := srv.RolloutSnapshot("App"+strconv.Itoa(k), "w")
			if ok && snap.State == rollout.StateCanary.String() {
				return true
			}
		}
	}
	return false
}

// altSweep reports one health window per instance to every non-home
// daemon. A replicated run's canary controllers decide independently on
// the feedback each daemon hears itself; a replica that served only
// failover traffic would otherwise hold its canary open forever. Each
// report runs a fetch first — fleetclient stamps feedback with the plan
// version it last saw, and the window's health is a function of that
// plan's content, exactly as on the home path. No-op on single-daemon
// runs (no instance has alternates).
func (s *sim) altSweep() {
	for _, in := range s.instances {
		for j, alt := range in.alts {
			plan, _, err := alt.FetchPlan(in.key.App, in.key.Workload)
			if err != nil || plan == nil {
				continue
			}
			start := in.altLast[j]
			in.altLast[j] = s.clock.Now()
			if sent, err := alt.ReportFeedback(healthReport(in.key, start, in.altLast[j], plan)); err == nil && sent {
				in.feedbacks++
			}
		}
	}
}

// finalPolls fetches once per instance, in index order, after the network
// is quiet and the daemon has flushed: the observation the convergence
// invariant is evaluated on.
func (s *sim) finalPolls() {
	for _, in := range s.instances {
		in.finalPlan, in.finalOutcome, in.finalErr = in.client.FetchPlan(in.key.App, in.key.Workload)
		in.finalETag = in.client.LastETag()
		s.traceInstance("final_poll", in, outcomeString(in.finalOutcome, in.finalErr))
	}
}

func outcomeString(o fleetclient.Outcome, err error) string {
	if err != nil {
		return "error"
	}
	return o.String()
}

func (s *sim) traceInstance(name string, in *instance, outcome string, attrs ...trace.Attr) {
	if !s.tracer.Enabled() {
		return
	}
	all := append([]trace.Attr{
		trace.String("instance", in.id),
		trace.String("outcome", outcome),
	}, attrs...)
	s.tracer.Event("simnet", name, all...)
}

// evidence builds instance in's cumulative evidence for round r: one site
// shared by every instance of the key and one per-instance site, both
// growing with r (re-profiles report cumulative counts, which is what
// makes last-write-wins aggregation count each instance once). Tainting
// instances report a mostly-tainted per-instance site during the first
// taintRounds rounds — under the confidence floor — and clean counts
// afterwards.
func (s *sim) evidence(in *instance, r int) *analyzer.Profile {
	round := uint64(r) + 1
	shared := 40 * round
	n := round * uint64(16+in.idx%7)
	var tainted uint64
	if in.taints && r < taintRounds {
		tainted = n - n/4
	}
	p := &analyzer.Profile{
		App:      in.key.App,
		Workload: in.key.Workload,
		Sites: []analyzer.SiteStat{
			{
				Trace:     in.key.App + ".serve:1;Db.put:5",
				Allocated: shared,
				Buckets:   []uint64{shared / 4, shared - shared/4},
			},
			{
				Trace:     fmt.Sprintf("%s.serve:1;Worker.tick:%d", in.key.App, 100+in.idx),
				Allocated: n,
				Tainted:   tainted,
				Buckets:   []uint64{n - n/3, n / 3},
			},
		},
	}
	if in.poisons && s.cfg.RegressAt > 0 && s.clock.Now() >= s.cfg.RegressAt {
		m := 64 * round
		p.Sites = append(p.Sites, analyzer.SiteStat{
			Trace:     in.key.App + ".serve:1;" + poisonFrame,
			Allocated: m,
			Buckets:   []uint64{m / 4, m - m/4},
		})
	}
	return p
}

// Go is the daemons' planserver.Executor: defer the merge worker into the
// FIFO and release it after the drain delay.
func (s *sim) Go(work func()) {
	s.workers = append(s.workers, work)
	s.q.After(drainDelay, s.pri.next(), func() { s.Step() })
}

// Step makes the sim a planserver.Stepper and is the release events'
// body: run the FIFO's head, if any.
func (s *sim) Step() bool {
	if len(s.workers) == 0 {
		return false
	}
	work := s.workers[0]
	s.workers = s.workers[1:]
	work()
	return true
}

// prng is a splitmix64 stream for event tie-break priorities: same-instant
// events order by a seeded draw, so the interleaving is a property of the
// seed, not of schedule-construction order.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
