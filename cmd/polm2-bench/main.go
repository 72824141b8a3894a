// Command polm2-bench regenerates the tables and figures of the POLM2
// paper's evaluation (§5): Table 1 and Figures 3 through 9, plus the
// ablations listed in DESIGN.md.
//
// Usage:
//
//	polm2-bench                 # everything, full 30-minute simulated runs
//	polm2-bench -quick          # everything, shortened runs
//	polm2-bench -exp fig5       # one experiment
//	polm2-bench -workers 1      # compute simulations serially (default: GOMAXPROCS workers)
//	polm2-bench -json out.json  # also write a machine-readable report
//	polm2-bench -trace t.jsonl  # write a deterministic trace of every run
//	polm2-bench -list           # list experiment names
//
// Host-level performance investigation hooks (all write to files or stderr,
// never stdout):
//
//	polm2-bench -cpuprofile cpu.prof   # pprof CPU profile of the run
//	polm2-bench -memprofile mem.prof   # pprof heap profile at exit
//	polm2-bench -memstats              # runtime.MemStats summary on stderr
//
// Output is deterministic for a fixed -seed: the worker count changes only
// wall-clock time, never a byte of the rendered tables.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"polm2"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "", "single experiment to run (default: all); see -list")
		list     = flag.Bool("list", false, "list experiment names and exit")
		quick    = flag.Bool("quick", false, "shorten production runs to 10 simulated minutes")
		scale    = flag.Uint64("scale", 0, "heap scale divisor vs the paper's 12 GB setup (default 64)")
		seed     = flag.Int64("seed", 1, "workload random seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "number of concurrent simulations (GOMAXPROCS: one per usable core unless set)")
		faults   = flag.String("faults", "", `inject I/O faults into every profiling run's artifact writes (faultio spec, e.g. "seed=7;torn:site-*.bin")`)
		jsonOut  = flag.String("json", "", "write a JSON report (outputs + timings) to this file")
		traceOut = flag.String("trace", "", "write a deterministic JSONL trace of every simulation to this file (internal/trace)")
		quiet    = flag.Bool("quiet", false, "suppress per-simulation progress lines")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		memStats   = flag.Bool("memstats", false, "print a runtime.MemStats summary to stderr at exit")
	)
	flag.Parse()

	if *list {
		for _, name := range polm2.BenchExperiments() {
			fmt.Println(name)
		}
		return 0
	}

	// The simulations allocate heavily and run one per worker; trading
	// memory for fewer runtime GC cycles is worth it for a batch tool.
	// An explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: creating CPU profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := polm2.BenchConfig{Scale: *scale, Seed: *seed, FaultSpec: *faults, Trace: *traceOut != ""}
	if *quick {
		cfg.RunDuration = 10 * time.Minute
		cfg.Warmup = 2 * time.Minute
	}
	session := polm2.NewBenchSession(cfg)

	names := polm2.BenchExperiments()
	if *exp != "" {
		names = []string{*exp}
	}
	opts := polm2.BenchParallelOptions{Workers: *workers}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	start := time.Now()
	report, err := session.RunExperiments(names, os.Stdout, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polm2-bench: %v\n", err)
		return 1
	}
	if *traceOut != "" {
		if err := writeTraceFile(session, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: encoding report: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: writing report: %v\n", err)
			return 1
		}
	}
	// Timing goes to stderr: stdout carries only the deterministic
	// rendered experiments, so same-seed runs are byte-identical there.
	fmt.Fprintf(os.Stderr, "completed in %v wall-clock (%d workers)\n",
		time.Since(start).Round(time.Millisecond), report.Workers)

	if *memStats {
		printMemStats()
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeTraceFile persists the session's accumulated trace. Like stdout,
// the bytes depend only on the configuration, never on -workers: units
// trace into private buffers and are concatenated in sorted key order.
func writeTraceFile(session *polm2.BenchSession, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := session.WriteTrace(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// printMemStats reports the host Go runtime's allocation behaviour over the
// whole run — the quantity the simulation-core memory-layout work
// (DESIGN.md §8) optimizes.
func printMemStats() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "memstats: alloc=%s totalalloc=%s sys=%s mallocs=%d frees=%d gc=%d pause=%v\n",
		fmtBytes(ms.HeapAlloc), fmtBytes(ms.TotalAlloc), fmtBytes(ms.Sys),
		ms.Mallocs, ms.Frees, ms.NumGC, time.Duration(ms.PauseTotalNs))
}

func fmtBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// writeHeapProfile snapshots the heap profile after a final GC so the
// profile reflects retained memory, the way `go test -memprofile` does.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return nil
}
