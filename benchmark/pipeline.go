package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/bench"
	"polm2/internal/core"
	"polm2/internal/dumper"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

// profiled is one target's persisted profiling run: where its artifacts
// are and the profile ProfileApp derived from the in-memory snapshots. The
// snapshots themselves are not retained — everything downstream reads the
// persisted images, as an operator's second analysis would.
type profiled struct {
	target     bench.Target
	recordsDir string
	snapDir    string
	profile    *analyzer.Profile
}

// runProfilePipeline profiles all six targets with artifacts persisted to
// disk, then re-analyzes them from disk alone. It uses the same recorder,
// dumper, snapshot and analyzer code as paper-quick, but through the
// persisted-artifact readers and with the simulation's share cut to the one
// profiling pass — the path an operator profiling one application pays for.
func runProfilePipeline(r *run) {
	targets := bench.Targets()
	opts := core.ProfileOptions{}
	if r.cfg.Tiny {
		targets = targets[:1]
		opts.Duration = 2 * time.Minute
	}
	g := gen{r.cfg.Seed}
	profile := func(t bench.Target, dir string) (*profiled, error) {
		p := &profiled{target: t, recordsDir: filepath.Join(dir, "records"), snapDir: filepath.Join(dir, "snaps")}
		o := opts
		o.Seed = g.derive("profile", t.Key())
		o.RecordsDir, o.SnapshotDir = p.recordsDir, p.snapDir
		res, err := core.ProfileApp(t.App, t.Workload, o)
		if err != nil {
			return nil, err
		}
		p.profile = res.Profile
		return p, nil
	}

	// Set-up is the warm-up block: one profiling run into a throwaway
	// directory.
	if _, err := setUp(r, r.setupReps(3), func(rep int) (*profiled, error) {
		return profile(targets[0], r.dir(fmt.Sprintf("warmup-%d", rep)))
	}, func(*profiled) {}); err != nil {
		r.op(1, err)
		return
	}

	// Each ProfileApp call is timed on its own and the phase is their sum,
	// so the collection that gives every target the same starting state is
	// off the clock.
	artifacts := r.dir("artifacts")
	var runs []*profiled
	var failed error
	profiling := phase{Name: "profile", Blocks: len(targets)}
	for i, t := range targets {
		runtime.GC()
		u0, s0 := cpuTimes()
		sp := r.spans.begin(noParent, "core", "profile_app", i)
		p, err := profile(t, filepath.Join(artifacts, t.Key()))
		profiling.Seconds += sp.end().Seconds()
		u1, s1 := cpuTimes()
		profiling.UserS, profiling.SysS = profiling.UserS+(u1-u0).Seconds(), profiling.SysS+(s1-s0).Seconds()
		if err != nil {
			failed = fmt.Errorf("profiling %s: %w", t.Key(), err)
			break
		}
		runs = append(runs, p)
	}
	r.addPhase(profiling)
	r.op(len(targets), failed)
	if failed != nil {
		return
	}
	r.set("profile_wall_s", profiling.Seconds)
	size, err := dirBytes(artifacts)
	r.op(1, err)
	r.set("artifact_mb", float64(size)/(1<<20))

	// One target of a from-disk pass: decode its snapshot chain, then run
	// the Analyzer over the decoded chain and the on-disk records. Returns
	// the time the pair took.
	analyze := func(parent spanRef, p *profiled, op int) (*analyzer.Profile, time.Duration, error) {
		runtime.GC() // off the clock: each target starts from the same collector state
		sp := r.spans.begin(parent, "snapshot", "decode", op)
		snaps, err := snapshot.ReadDir(p.snapDir)
		took := sp.end()
		if err != nil {
			return nil, took, fmt.Errorf("decoding %s: %w", p.target.Key(), err)
		}
		sp = r.spans.begin(parent, "analyzer", "analyze_disk", op)
		prof, err := analyzer.Analyze(p.recordsDir, snaps, analyzer.Options{App: p.target.App.Name(), Workload: p.target.Workload})
		took += sp.end()
		if err != nil {
			return nil, took, fmt.Errorf("analyzing %s: %w", p.target.Key(), err)
		}
		return prof, took, nil
	}
	// Warm-up block: the first target, once.
	if _, _, err := analyze(noParent, runs[0], warmupOp); err != nil {
		r.op(1, fmt.Errorf("warm-up analysis: %w", err))
		return
	}
	passes := r.blocks(3, 1)
	var walls sample
	var fromDisk [][]*analyzer.Profile
	analysis := phase{Name: "analyze", Blocks: passes}
	u0, s0 := cpuTimes()
	for n := 0; n < passes && failed == nil; n++ {
		var wall time.Duration
		var profiles []*analyzer.Profile
		for i, p := range runs {
			prof, took, err := analyze(noParent, p, n*len(runs)+i)
			wall += took
			if err != nil {
				failed = err
				break
			}
			profiles = append(profiles, prof)
		}
		walls = append(walls, wall)
		analysis.Seconds += wall.Seconds()
		fromDisk = append(fromDisk, profiles)
	}
	u1, s1 := cpuTimes()
	analysis.UserS, analysis.SysS = (u1 - u0).Seconds(), (s1 - s0).Seconds() // includes the collections between targets
	r.addPhase(analysis)
	r.op(passes, failed)
	if failed != nil {
		return
	}
	r.set("analyze_wall_s", walls.percentile(50).Seconds())

	// Output check: every from-disk profile is byte-equal, as JSON, to the
	// one ProfileApp produced from the in-memory snapshots.
	for _, profiles := range fromDisk {
		for i, p := range runs {
			want, err1 := json.Marshal(p.profile)
			got, err2 := json.Marshal(profiles[i])
			r.check(err1 == nil && err2 == nil && bytes.Equal(want, got),
				"%s: profile analyzed from disk differs from the in-memory one", p.target.Key())
			r.output(got)
		}
	}

	if !r.cfg.Trace {
		return
	}
	r.spans.finish()
	n := float64(passes)
	decode, analyzed := r.spans.selfSum("snapshot", "decode").Seconds()/n, r.spans.selfSum("analyzer", "analyze_disk").Seconds()/n
	fmt.Fprintf(r.cfg.Log, "identity: snapshot.decode_s %.3f + analyzer.analyze_disk_s %.3f = %.3f s of a %.3f s pass (%.1f %%)\n",
		decode, analyzed, decode+analyzed, analysis.Seconds/n, 100*(decode+analyzed)*n/analysis.Seconds)
	r.set("snapshot.decode_s", decode)
	r.set("analyzer.analyze_disk_s", analyzed)
	var snapBytes int64
	for _, p := range runs {
		b, err := dirBytes(p.snapDir)
		r.op(1, err)
		snapBytes += b
	}
	r.set("snapshot.decode_mb_per_s", float64(snapBytes)/(1<<20)/decode)
	probeRecorder(r)
	probeDumper(r)
	probeSnapshotAndAnalyzer(r, runs)
}

// probeRecorder times the Recorder's allocation hook and its seal on a
// synthetic heap: 200k objects over 16 sites, no application, no dumper.
func probeRecorder(r *run) {
	h, objs, err := linkedHeap(r.reps(200_000))
	if err != nil {
		r.op(1, err)
		return
	}
	sites := jvm.NewSiteTable()
	var ids []heap.SiteID
	for s := 0; s < 16; s++ {
		ids = append(ids, sites.Intern(jvm.StackTrace{
			{Class: "Probe", Method: "run", Line: 1}, {Class: "Probe", Method: "alloc", Line: 10 + s}}))
	}
	dir := r.dir("probe-records")
	rec, err := recorder.New(recorder.Config{Dir: dir}, h, sites, dumper.NewTee())
	if err != nil {
		r.op(1, err)
		return
	}
	sp := r.spans.begin(noParent, "recorder", "record_alloc", 0)
	t0 := time.Now()
	for i, obj := range objs {
		rec.RecordAlloc(ids[i%len(ids)], obj)
	}
	r.set("recorder.record_ns_per_alloc", float64(time.Since(t0).Nanoseconds())/float64(len(objs)))
	sp.end()
	sp = r.spans.begin(noParent, "recorder", "close", 0)
	t0 = time.Now()
	err = rec.Close()
	r.set("recorder.close_ms", ms(time.Since(t0)))
	sp.end()
	r.op(1, err)
	size, err := dirBytes(dir)
	r.op(1, err)
	r.set("recorder.stream_mb", float64(size)/(1<<20))

	sp = r.spans.begin(noParent, "recorder", "read_ids", 0)
	t0 = time.Now()
	table, err := recorder.LoadSiteTable(dir)
	for id := range table {
		if err == nil {
			_, err = recorder.ReadIDs(dir, id)
		}
	}
	r.set("recorder.read_ids_mb_per_s", float64(size)/(1<<20)/time.Since(t0).Seconds())
	sp.end()
	r.op(1, err)
}

// probeDumper is the Fig. 3/4 axis without the simulation around it: the
// incremental Dumper against a jmap-style full dump of one synthetic heap
// of 50k live objects, a tenth of whose pages are dirtied before each cycle.
func probeDumper(r *run) {
	h, objs, err := linkedHeap(r.reps(50_000))
	if err != nil {
		r.op(1, err)
		return
	}
	clock := simclock.New()
	incr := dumper.New(h, clock, dumper.Config{})
	jmap := dumper.NewJmap(h, clock, dumper.CostModel{})
	const perPage = heap.DefaultPageSize / 256
	var incrT, jmapT sample
	for cycle := 0; cycle < 12 && err == nil; cycle++ {
		for page := cycle % 10; (page+1)*perPage < len(objs) && err == nil; page += 10 {
			a, b := objs[page*perPage], objs[page*perPage+1]
			if err = h.Link(a.ID, b.ID); err == nil {
				err = h.Unlink(a.ID, b.ID)
			}
		}
		if err != nil {
			break
		}
		h.MarkNoNeedPages(h.Trace())
		sp := r.spans.begin(noParent, "dumper", "jmap_snapshot", cycle)
		t0 := time.Now()
		err = jmap.Snapshot(uint64(cycle))
		jmapT = append(jmapT, time.Since(t0))
		sp.end()
		if err != nil {
			break
		}
		sp = r.spans.begin(noParent, "dumper", "incr_snapshot", cycle)
		t0 = time.Now()
		err = incr.Snapshot(uint64(cycle))
		incrT = append(incrT, time.Since(t0))
		sp.end()
	}
	r.op(1, err)
	if err != nil {
		return
	}
	// The first incremental snapshot is a full one (every page is dirty
	// after the build); the steady state is what Fig. 3 and 4 compare.
	var incrBytes, jmapBytes uint64
	for i := 1; i < len(incr.Snapshots()); i++ {
		incrBytes += incr.Snapshots()[i].SizeBytes
		jmapBytes += jmap.Snapshots()[i].SizeBytes
	}
	r.set("dumper.incr_snapshot_ms", ms(incrT[1:].percentile(50)))
	r.set("dumper.jmap_snapshot_ms", ms(jmapT[1:].percentile(50)))
	r.set("dumper.size_ratio", float64(incrBytes)/float64(jmapBytes))
}

// countingWriter counts the bytes an encoder produces and drops them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// probeSnapshotAndAnalyzer times the snapshot codec and the Analyzer's
// stages on the real artifacts the profile phase just produced.
func probeSnapshotAndAnalyzer(r *run, runs []*profiled) {
	var enc countingWriter
	var encode, apply, analyze, build, conflicts time.Duration
	for i, p := range runs {
		snaps, err := snapshot.ReadDir(p.snapDir)
		traces, terr := recorder.LoadSiteTable(p.recordsDir)
		if err != nil || terr != nil {
			r.op(1, fmt.Errorf("probe inputs of %s: %v %v", p.target.Key(), err, terr))
			return
		}

		sp := r.spans.begin(noParent, "snapshot", "encode", i)
		for _, snap := range snaps {
			if err == nil {
				err = snap.Write(&enc)
			}
		}
		encode += sp.end()

		sp = r.spans.begin(noParent, "snapshot", "apply", i)
		store := snapshot.NewStore()
		for _, snap := range snaps {
			if err == nil {
				err = store.Apply(snap)
			}
		}
		apply += sp.end()

		sp = r.spans.begin(noParent, "analyzer", "analyze", i)
		if err == nil {
			_, err = analyzer.Analyze(p.recordsDir, snaps, analyzer.Options{App: p.target.App.Name(), Workload: p.target.Workload})
		}
		analyze += sp.end()
		r.op(1, err)

		// STTree build and Algorithm 1 over the target's real site table,
		// with the generations its profile assigned.
		byTrace := make(map[string]int, len(p.profile.Sites))
		for _, s := range p.profile.Sites {
			byTrace[s.Trace] = s.Gen
		}
		gens := make(map[heap.SiteID]int, len(traces))
		for id, tr := range traces {
			gens[id] = byTrace[tr.String()]
		}
		reps := r.reps(50)
		sp = r.spans.begin(noParent, "analyzer", "sttree_build", i)
		var tree *analyzer.Tree
		for n := 0; n < reps; n++ {
			tree = analyzer.BuildTree(traces, gens)
		}
		build += sp.end() / time.Duration(reps)
		sp = r.spans.begin(noParent, "analyzer", "conflicts", i)
		for n := 0; n < reps; n++ {
			analyzer.ResolveConflicts(tree.DetectConflicts())
		}
		conflicts += sp.end() / time.Duration(reps)
	}
	r.set("snapshot.encode_mb_per_s", float64(enc.n)/(1<<20)/encode.Seconds())
	r.set("snapshot.image_mb", float64(enc.n)/(1<<20))
	r.set("snapshot.apply_ms", ms(apply))
	r.set("analyzer.analyze_s", analyze.Seconds())
	r.set("analyzer.sttree_build_us", us(build))
	r.set("analyzer.conflicts_us", us(conflicts))

	path := filepath.Join(r.dir("probe-profile"), "p.profile.json")
	reps := r.reps(50)
	var err error
	sp := r.spans.begin(noParent, "analyzer", "profile_save_load", 0)
	for i := 0; i < reps && err == nil; i++ {
		if err = runs[0].profile.Save(path); err == nil {
			_, err = analyzer.LoadProfile(path)
		}
	}
	r.set("analyzer.profile_save_load_us", us(sp.end()/time.Duration(reps)))
	r.op(1, err)
}
