package main

import (
	"fmt"
	"io"
	"time"

	"polm2/internal/rollout"
	"polm2/internal/simclock"
	"polm2/internal/simnet"
	"polm2/internal/trace"
)

// runFleetSim runs the whole plan plane — planserver, fleetclient,
// profilestore, rollout — on one goroutine in virtual time with no sockets:
// sixteen seeds of a replicated pair under a daemon partition and upload
// drops, eight seeds of a single daemon rolling back an injected
// regression. It is the low-noise guard for plan-plane refactors, and the
// only workload where simnet's checker is on the clock.
func runFleetSim(r *run) {
	g := gen{r.cfg.Seed}
	replicated, rollouts := r.blocks(16, 1), r.blocks(8, 1)
	scenarios := []struct {
		name  string
		seeds int
		cfg   simnet.Config
	}{
		{"replicated", replicated, simnet.Config{Instances: 64, Keys: 2, Daemons: 2,
			FaultSpec: "partition:daemon-1..1@t=60s/30s;drop:upload%5"}},
		{"rollout", rollouts, simnet.Config{Instances: 16, RegressAt: 70 * time.Second, Rollout: &rollout.Config{}}},
	}
	if r.cfg.Tiny {
		scenarios[0].seeds, scenarios[1].seeds = 1, 1
		scenarios[0].cfg.Instances = 8
	}

	dirs := 0
	simulate := func(parent spanRef, scenario, n, op int) (*simnet.Report, error) {
		sc := scenarios[scenario]
		cfg := sc.cfg
		cfg.Seed = g.derive("simnet", sc.name, fmt.Sprint(n))
		dirs++
		cfg.StoreDir = r.dir(fmt.Sprintf("sim-%d", dirs))
		sp := r.spans.begin(parent, "simnet", "run_"+sc.name, op)
		rep, err := simnet.Run(cfg)
		sp.end()
		if err == nil && !rep.OK() {
			err = fmt.Errorf("simnet %s seed %d violated invariants:\n%s", sc.name, cfg.Seed, rep.Log())
		}
		return rep, err
	}

	// Set-up is the warm-up block: seed 0 of each scenario, untimed. The
	// timed phase runs seed 0 again, which is the replay check.
	reference, err := setUp(r, r.setupReps(5), func(int) ([]string, error) {
		var logs []string
		for s := range scenarios {
			rep, err := simulate(noParent, s, 0, warmupOp)
			if err != nil {
				return nil, err
			}
			logs = append(logs, rep.Log())
		}
		return logs, nil
	}, func([]string) {})
	if err != nil {
		r.op(1, err)
		return
	}

	var events, deliveries int
	var runTimes sample
	var replays []string
	var failed error
	total := scenarios[0].seeds + scenarios[1].seeds
	wall := r.timedPhase("simulate", total, func() {
		root := r.spans.begin(noParent, "bench", "simulate", 0)
		defer root.end()
		for s, sc := range scenarios {
			for n := 0; n < sc.seeds; n++ {
				t0 := time.Now()
				rep, err := simulate(root, s, n, n)
				runTimes = append(runTimes, time.Since(t0))
				if err != nil {
					failed = err
					return
				}
				if n == 0 {
					replays = append(replays, rep.Log())
				}
				events += rep.Events
				deliveries += rep.Deliveries
			}
		}
	})
	r.op(total, failed)
	if failed != nil {
		return
	}
	for s, sc := range scenarios {
		r.check(replays[s] == reference[s], "%s: same-seed replay log differs", sc.name)
		r.output([]byte(replays[s]))
	}
	r.set("simnet_events_per_s", float64(events)/wall.Seconds())

	if !r.cfg.Trace {
		return
	}
	r.set("simnet.events", float64(events))
	r.set("simnet.deliveries", float64(deliveries))
	r.set("simnet.run_ms_p50", ms(runTimes.percentile(50)))
	probeSimLayers(r)
}

// probeSimLayers times the primitives under the simulator, one at a time.
func probeSimLayers(r *run) {
	// simclock.queue_ns_per_event: push and pop 1024 events, many times.
	const batch = 1024
	rounds := r.reps(400)
	q := simclock.NewQueue(simclock.New())
	fired := 0
	sp := r.spans.begin(noParent, "simclock", "queue", 0)
	for i := 0; i < rounds; i++ {
		for j := 0; j < batch; j++ {
			q.After(time.Duration((j*7919)%batch)*time.Millisecond, uint64(j), func() { fired++ })
		}
		for q.RunNext() {
		}
	}
	r.set("simclock.queue_ns_per_event", float64(sp.end().Nanoseconds())/float64(batch*rounds))
	r.check(fired == batch*rounds, "queue fired %d of %d events", fired, batch*rounds)

	// rollout.record_ns: feedback reports into an open canary window.
	tracker := rollout.NewTracker(rollout.Config{MinReports: 1 << 30})
	tracker.Observe(`"stable"`)
	tracker.Observe(`"candidate"`)
	canary := &rollout.Report{App: "A", Workload: "w", ETag: `"candidate"`, WindowEnd: time.Minute,
		Pauses: 40, PauseP50: 8 * time.Millisecond, PauseP99: 30 * time.Millisecond, PromotionRate: 0.2, SurvivorRate: 0.8}
	baseline := *canary
	baseline.ETag = `"stable"`
	records := r.reps(200_000)
	sp = r.spans.begin(noParent, "rollout", "record", 0)
	for i := 0; i < records/2; i++ {
		tracker.Record(canary, true)
		tracker.Record(&baseline, false)
	}
	r.set("rollout.record_ns", float64(sp.end().Nanoseconds())/float64(records))

	// rollout.cohort_us: bucketing 1024 instance ids.
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = gen{1}.instanceID(i)
	}
	var cohorts sample
	members := 0
	for i := 0; i < 31; i++ {
		sp = r.spans.begin(noParent, "rollout", "cohort", i)
		members = len(rollout.Cohort(int64(i), ids, 0.25))
		cohorts = append(cohorts, sp.end())
	}
	r.set("rollout.cohort_us", us(cohorts.percentile(50)))
	r.check(members == 256, "a quarter of 1024 ids is %d", members)

	// The "zero when disabled, measured when enabled" pair.
	emits := r.reps(500_000)
	var off *trace.Tracer
	sp = r.spans.begin(noParent, "trace", "disabled", 0)
	for i := 0; i < emits; i++ {
		if off.Enabled() {
			off.Event("bench", "probe", trace.Int64("i", int64(i)))
		}
	}
	r.set("trace.disabled_ns", float64(sp.end().Nanoseconds())/float64(emits))
	on := trace.New(trace.Options{Writer: io.Discard})
	sp = r.spans.begin(noParent, "trace", "enabled", 0)
	for i := 0; i < emits; i++ {
		if on.Enabled() {
			on.Event("bench", "probe", trace.Int64("i", int64(i)))
		}
	}
	r.set("trace.enabled_ns_per_event", float64(sp.end().Nanoseconds())/float64(emits))
	r.op(1, on.Err())
}
