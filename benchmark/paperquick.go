package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"polm2/internal/bench"
	"polm2/internal/core"
	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/simclock"
)

// paperWorstReduction is the paper's worst-pause reduction of POLM2 over G1
// per workload (§5.4.1), in percent: the reference paper_err_pp measures
// the reproduction against. A copy is kept here because the benchmark
// judges the system from outside and must not move when the harness's own
// table does.
var paperWorstReduction = map[string]float64{
	"Cassandra-WI": 55, "Cassandra-WR": 67, "Cassandra-RI": 78,
	"Lucene": 58, "GraphChi-CC": 78, "GraphChi-PR": 80,
}

// runPaperQuick regenerates table1 + fig5 in one quick-config session: six
// profiling runs and eighteen production runs on one worker. Most of the
// host time is heap/gc/jvm, so this is where a simulation-core change shows
// and a plan-plane change must not.
func runPaperQuick(r *run) {
	experiments := []string{"table1", "fig5"}
	if r.cfg.Tiny {
		experiments = []string{"ablation-estimator"} // one target, two profiling runs
	}
	cfg := bench.Config{
		RunDuration: 10 * time.Minute,
		Warmup:      2 * time.Minute,
		Seed:        gen{r.cfg.Seed}.derive("paper-quick"),
	}
	if r.cfg.Tiny {
		cfg.ProfileDuration, cfg.RunDuration, cfg.Warmup = 2*time.Minute, 3*time.Minute, time.Minute
	}

	// Set-up is the warm-up block: the first target's G1 production run in
	// a throwaway session.
	targets := bench.Targets()
	_, err := setUp(r, r.setupReps(3), func(int) (struct{}, error) {
		_, err := bench.NewSession(cfg).Run(targets[0], core.CollectorG1, core.PlanNone)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		r.op(1, err)
		return
	}

	session := bench.NewSession(cfg)
	var rendered bytes.Buffer
	var report *bench.Report
	root := noParent
	wall := r.timedPhase("suite", 1, func() {
		root = r.spans.begin(noParent, "bench", "suite", 0)
		last := time.Now()
		unit := 0
		opts := bench.ParallelOptions{Workers: 1}
		if r.spans != nil {
			// One worker runs the units back to back, so consecutive
			// completion callbacks bound each unit's interval.
			opts.Progress = func(line string) {
				now := time.Now()
				name := "render"
				if strings.Contains(line, "] profile:") {
					name = "profile"
				} else if strings.Contains(line, "] run:") {
					name = "run"
				}
				r.spans.add(root, "core", name, unit, last, now)
				last, unit = now, unit+1
			}
		}
		report, err = session.RunExperiments(experiments, &rendered, opts)
		root.end()
	})
	if err != nil {
		r.op(1, fmt.Errorf("timed session: %w", err))
		return
	}
	r.op(len(report.Units), nil)
	r.set("suite_wall_s", wall.Seconds())
	r.output(rendered.Bytes())

	// Output check. Two whole sessions of one seed do not fit a run (a
	// session is ~15 s), so the rendered tables go into the run's output
	// fingerprint, which -selfcheck compares across fresh processes, and
	// every run replays one target, picked by the seed, in a second session
	// and requires its profile and its three production runs to come out
	// identical to the timed session's.
	if !r.cfg.Tiny {
		t := targets[uint64(cfg.Seed)%uint64(len(targets))]
		r.check(replayMatches(session, bench.NewSession(cfg), t) == nil,
			"%s: a second session of seed %d does not reproduce the timed one", t.Key(), cfg.Seed)
	}

	// Fidelity: how far the reproduction's headline number sits from the
	// paper's, averaged over the targets the session ran.
	var errSum float64
	var cycles, maxCommitted uint64
	var simOps int64
	if !r.cfg.Tiny {
		for _, t := range targets {
			g1, err1 := session.Run(t, core.CollectorG1, core.PlanNone)
			polm2, err2 := session.Run(t, core.CollectorNG2C, core.PlanPOLM2)
			manual, err3 := session.Run(t, core.CollectorNG2C, core.PlanManual)
			if err1 != nil || err2 != nil || err3 != nil {
				r.op(1, fmt.Errorf("reading cached runs of %s: %v %v %v", t.Key(), err1, err2, err3))
				return
			}
			reduction := 100 * (1 - float64(polm2.WarmPauses.Max())/float64(g1.WarmPauses.Max()))
			errSum += math.Abs(reduction - paperWorstReduction[t.Key()])
			for _, res := range []*core.RunResult{g1, polm2, manual} {
				cycles += res.GCCycles
				simOps += res.WarmOps
				maxCommitted = max(maxCommitted, res.MaxMemoryBytes)
			}
		}
		r.set("paper_err_pp", errSum/float64(len(targets)))
	} else {
		r.set("paper_err_pp", 1)
	}

	var profileMS, runMS int64
	for _, u := range report.Units {
		if u.Wave == "profile" {
			profileMS += u.WallMS
		} else {
			runMS += u.WallMS
		}
	}
	fmt.Fprintf(r.cfg.Log, "identity: core.profile_s %.3f + core.run_s %.3f = %.3f s of suite_wall_s %.3f s (%.1f %%)\n",
		float64(profileMS)/1e3, float64(runMS)/1e3, float64(profileMS+runMS)/1e3, wall.Seconds(),
		100*float64(profileMS+runMS)/1e3/wall.Seconds())
	if !r.cfg.Trace {
		return
	}
	r.set("core.profile_s", float64(profileMS)/1e3)
	r.set("core.run_s", float64(runMS)/1e3)
	r.set("jvm.sim_ops_per_host_s", float64(simOps)/(float64(runMS)/1e3+1e-9))
	r.set("gc.cycles", float64(cycles))
	r.set("heap.max_committed_mb", float64(maxCommitted)/(1<<20))
	probeSimCore(r)
}

// pauseSetups are the three production configurations of fig5.
var pauseSetups = []struct {
	collector string
	plan      core.PlanKind
}{{core.CollectorG1, core.PlanNone}, {core.CollectorNG2C, core.PlanManual}, {core.CollectorNG2C, core.PlanPOLM2}}

// replayMatches runs target t's four units in the fresh session again and
// compares them with what the timed session cached.
func replayMatches(timed, again *bench.Session, t bench.Target) error {
	p1, err1 := timed.Profile(t)
	p2, err2 := again.Profile(t)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("profiling: %v %v", err1, err2)
	}
	j1, err1 := json.Marshal(p1.Profile)
	j2, err2 := json.Marshal(p2.Profile)
	if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
		return fmt.Errorf("profiles differ (%v %v)", err1, err2)
	}
	for _, su := range pauseSetups {
		r1, err1 := timed.Run(t, su.collector, su.plan)
		r2, err2 := again.Run(t, su.collector, su.plan)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s/%s: %v %v", su.collector, su.plan, err1, err2)
		}
		if !reflect.DeepEqual(r1.Pauses, r2.Pauses) || r1.WarmOps != r2.WarmOps ||
			r1.MaxMemoryBytes != r2.MaxMemoryBytes || r1.GCCycles != r2.GCCycles || r1.GenSwitches != r2.GenSwitches {
			return fmt.Errorf("%s/%s: runs differ", su.collector, su.plan)
		}
	}
	return nil
}

// probeSimCore times the three simulation-core operations the suite spends
// its host time in, each on a fixed synthetic input with no application
// around it.
func probeSimCore(r *run) {
	// jvm.alloc_ns: Thread.Alloc in a loop under NG2C, the collections it
	// triggers included — the mutator's allocation path as the apps drive it.
	_, th, err := probeVM()
	if err != nil {
		r.op(1, err)
		return
	}
	allocs := r.reps(400_000)
	sp := r.spans.begin(noParent, "jvm", "alloc_loop", 0)
	t0 := time.Now()
	for i := 0; i < allocs; i++ {
		if _, err := th.Alloc(1+i%8, 256); err != nil {
			r.op(1, fmt.Errorf("probe alloc: %w", err))
			return
		}
		if i%64 == 63 {
			th.ReleaseLocals()
		}
	}
	r.set("jvm.alloc_ns", float64(time.Since(t0).Nanoseconds())/float64(allocs))
	sp.end()

	// heap.trace_ms: a full trace over 50k linked, rooted objects.
	h, objs, err := linkedHeap(r.reps(50_000))
	if err != nil {
		r.op(1, err)
		return
	}
	var traces sample
	for i := 0; i < r.reps(15); i++ {
		sp := r.spans.begin(noParent, "heap", "trace", i)
		t0 := time.Now()
		live := h.Trace()
		traces = append(traces, time.Since(t0))
		sp.end()
		if live.Objects != len(objs) {
			r.op(1, fmt.Errorf("probe trace marked %d of %d objects", live.Objects, len(objs)))
			return
		}
	}
	r.set("heap.trace_ms", ms(traces.percentile(50)))

	// gc.young_collect_us: ForceCollect on an eden of 4096 objects of which
	// one in sixteen is still referenced — the young-collection fast path.
	col, th, err := probeVM()
	if err != nil {
		r.op(1, err)
		return
	}
	holder, err := th.Alloc(1, 256)
	if err != nil {
		r.op(1, err)
		return
	}
	heapOf := col.Heap()
	var collects sample
	for i := 0; i < r.reps(15); i++ {
		th.Call(2, "Probe", "batch")
		var kept []*heap.Object
		for j := 0; j < 4096; j++ {
			obj, err := th.Alloc(3, 256)
			if err == nil && j%16 == 0 {
				kept = append(kept, obj)
				err = heapOf.Link(holder.ID, obj.ID)
			}
			if err != nil {
				r.op(1, fmt.Errorf("probe eden: %w", err))
				return
			}
		}
		th.ReleaseLocals()
		th.Return()
		sp := r.spans.begin(noParent, "gc", "young_collect", i)
		t0 := time.Now()
		err := col.ForceCollect()
		collects = append(collects, time.Since(t0))
		sp.end()
		for _, obj := range kept {
			if err == nil {
				err = heapOf.Unlink(holder.ID, obj.ID)
			}
		}
		if err != nil {
			r.op(1, fmt.Errorf("probe collect: %w", err))
			return
		}
	}
	r.set("gc.young_collect_us", us(collects.percentile(50)))
}

// probeVM boots an NG2C engine at the evaluation's geometry with one thread
// inside a root frame.
func probeVM() (gc.Collector, *jvm.Thread, error) {
	col, err := core.NewCollector(core.CollectorNG2C, simclock.New(),
		core.ScaledGeometry(core.DefaultScale), core.ScaledCostModel(core.DefaultScale))
	if err != nil {
		return nil, nil, err
	}
	th := jvm.New(col).NewThread("probe")
	th.Enter("Probe", "run")
	return col, th, nil
}

// linkedHeap builds a heap of n rooted 256-byte objects, each linked to its
// two successors — the fanout the simulated apps' holder objects have.
func linkedHeap(n int) (*heap.Heap, []*heap.Object, error) {
	h, err := heap.New(heap.Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		return nil, nil, err
	}
	region, err := h.NewRegion(heap.GenID(1))
	if err != nil {
		return nil, nil, err
	}
	objs := make([]*heap.Object, 0, n)
	for i := 0; i < n; i++ {
		if region.Used()+256 > h.Config().RegionSize {
			if region, err = h.NewRegion(heap.GenID(1)); err != nil {
				return nil, nil, err
			}
		}
		obj, err := h.Allocate(region, 256, heap.SiteID(1+i%8))
		if err != nil {
			return nil, nil, err
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	for i, obj := range objs {
		for k := 1; k <= 2 && i+k < len(objs); k++ {
			if err := h.Link(obj.ID, objs[i+k].ID); err != nil {
				return nil, nil, err
			}
		}
	}
	return h, objs, nil
}
