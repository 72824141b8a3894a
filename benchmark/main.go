// Command benchmark is the repository's performance benchmark: five
// long-running workloads, ISSUE 14's sixteen end-to-end metrics (five of
// them bounded, the eleven timings listed per-layer) and the per-layer
// probes that explain them (README.md in this directory has the tables).
//
//	go run ./benchmark -workload fleet-steady -seed 7            # end-to-end metrics
//	go run ./benchmark -workload fleet-steady -seed 7 -trace 1   # per-layer metrics + spans
//	go run ./benchmark -workload fleet-steady -selfcheck 5       # five runs of one seed against the bounds
//
// One run executes one workload, verifies its outputs, prints every metric
// it measured by name with its unit, then a summary line, then the result
// object the driver reads (BENCHMARK.json at the repository root is the
// contract). Every layer is measured from outside, by timing calls into
// its public functions; nothing under internal/ knows the benchmark exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

var workloads = map[string]struct {
	run func(*run)
	// clients is the number of closed-loop load goroutines: each sends its
	// next request only after the previous reply.
	clients int
}{
	wlPaperQuick:      {runPaperQuick, 1},
	wlProfilePipeline: {runProfilePipeline, 1},
	wlFleetSteady:     {runFleetSteady, 2},
	wlReplicaSync:     {runReplicaSync, 1},
	wlFleetSim:        {runFleetSim, 1},
}

func main() {
	os.Exit(mainExit(time.Now()))
}

func mainExit(start time.Time) int {
	var (
		workload  = flag.String("workload", "", "workload to run: paper-quick, profile-pipeline, fleet-steady, replica-sync or fleet-sim")
		seed      = flag.Int64("seed", 1, "input seed: evidence contents, instance ids, simnet seeds, bench.Config.Seed")
		seconds   = flag.Int("seconds", referenceSeconds, "time budget; scales block counts (never input sizes) relative to 15")
		traceOn   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		spansPath = flag.String("spans", "", "where a traced run writes its spans (default <workdir>/spans-<workload>.jsonl)")
		workDir   = flag.String("workdir", "benchmark/.scratch", "scratch directory for temp stores and span files, inside the checkout")
		selfcheck = flag.Int("selfcheck", 0, "run the workload N times in fresh processes on one seed and hold every end-to-end metric's largest pairwise gap to its bound")
		varySeed  = flag.Bool("vary-seed", false, "with -selfcheck: give run i the seed seed+i and judge by interquartile spread, as the driver does")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || flag.NArg() > 0 || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload <%v> [-seed n] [-seconds n] [-trace 0|1] [-selfcheck n [-vary-seed]]\n", allWorkloads)
		return 2
	}
	if *selfcheck > 0 {
		return selfCheck(*workload, *seed, *seconds, *selfcheck, *varySeed, *workDir)
	}

	// The simulations allocate heavily; trading memory for fewer host GC
	// cycles is what polm2-bench does, and what keeps GC timing out of the
	// measured phases. An explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, WorkDir: *workDir, Log: os.Stdout}
	res, sum, spans, err := execute(cfg, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if cfg.Trace {
		if *spansPath == "" {
			*spansPath = filepath.Join(*workDir, "spans-"+*workload+".jsonl")
		}
		if err := spans.write(*spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
		sum.Spans = *spansPath
	}
	for _, line := range []any{sum, res} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: encoding output: %v\n", err)
			return 1
		}
		fmt.Println(string(data))
	}
	return 0
}

// execute runs one workload to completion and assembles its outputs; the
// span log (nil on an untraced run) is still to be written out.
func execute(cfg config, start time.Time) (result, summary, *spanLog, error) {
	w := workloads[cfg.Workload]
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r, err := newRun(cfg, start)
	if err != nil {
		return result{}, summary{}, nil, err
	}
	defer r.cleanup()
	fmt.Fprintf(cfg.Log, "workload %s  seed %d  seconds %d  trace %v  closed loop, %d client(s)\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, w.clients)
	w.run(r)
	if r.spans != nil {
		r.spans.finish()
	}
	res := r.report()
	sum := summary{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Clients: w.clients,
		Phases: r.phases, TimedS: r.timed.Seconds(), WallS: time.Since(start).Seconds(),
		Outputs: fmt.Sprintf("%x", r.outputs.Sum(nil)),
	}
	if !cfg.Trace {
		sum.Unbounded = make(map[string]float64)
		for _, m := range demoted {
			if v, ok := r.values[m.Name]; ok {
				sum.Unbounded[m.Name] = v
			}
		}
	}
	for _, d := range r.setups {
		sum.SetupsS = append(sum.SetupsS, d.Seconds())
	}
	return res, sum, r.spans, nil
}
