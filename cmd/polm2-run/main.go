// Command polm2-run executes the production phase of POLM2 (§3.5): one
// application workload under a chosen collector, optionally instrumented
// with a previously generated allocation profile.
//
// Usage:
//
//	polm2-run -app Cassandra -workload WI -collector G1
//	polm2-run -app Cassandra -workload WI -collector NG2C -profile profile.json
//	polm2-run -app Cassandra -workload WI -collector NG2C -manual
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"polm2"
	"polm2/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		appName     = flag.String("app", "Cassandra", "application model: Cassandra, Lucene or GraphChi")
		workload    = flag.String("workload", "WI", "workload name")
		collector   = flag.String("collector", "G1", "collector: G1, NG2C or C4")
		profilePath = flag.String("profile", "", "POLM2 allocation profile to instrument with (JSON)")
		storeDir    = flag.String("store", "", "profile repository to select a profile from (by app/workload)")
		manual      = flag.Bool("manual", false, "use the expert's hand-written NG2C profile instead")
		onlineMode  = flag.Bool("online", false, "continuous profiling: re-analyze and hot-swap the plan while running")
		reprofile   = flag.Duration("reprofile", 0, "online re-analysis interval (default 5m)")
		daemonURL   = flag.String("daemon", "", "polm2d base URL for fleet mode: upload evidence, install the merged fleet plan (needs -online)")
		instanceID  = flag.String("instance", "", "stable fleet instance id for evidence uploads (default: derived from -seed)")
		duration    = flag.Duration("duration", 0, "simulated run duration (default: 30m, the paper's)")
		warmup      = flag.Duration("warmup", 0, "ignored warmup window (default: 5m, the paper's)")
		scale       = flag.Uint64("scale", 0, "heap scale divisor vs the paper's 12 GB setup (default 64)")
		seed        = flag.Int64("seed", 1, "workload random seed")
		tracePath   = flag.String("trace", "", "write a deterministic JSONL trace of the run to this file (internal/trace)")
	)
	flag.Parse()

	app := polm2.AppByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "polm2-run: unknown app %q (want Cassandra, Lucene or GraphChi)\n", *appName)
		return 2
	}
	exclusive := 0
	for _, set := range []bool{*profilePath != "", *manual, *storeDir != "", *onlineMode} {
		if set {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "polm2-run: -profile, -manual, -store and -online are mutually exclusive")
		return 2
	}

	if *daemonURL != "" && !*onlineMode {
		fmt.Fprintln(os.Stderr, "polm2-run: -daemon needs -online (fleet sync happens on re-profiles)")
		return 2
	}
	if *instanceID != "" && *daemonURL == "" {
		fmt.Fprintln(os.Stderr, "polm2-run: -instance needs -daemon (it identifies this instance's evidence uploads)")
		return 2
	}

	// The tracer's records are stamped from the simulated clock, so the
	// file is byte-identical across runs of the same configuration.
	var tracer *trace.Tracer
	finishTrace := func() error { return nil }
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: creating trace file: %v\n", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		tracer = trace.New(trace.Options{Writer: bw})
		finishTrace = func() error {
			if err := tracer.Err(); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}

	if *onlineMode {
		opts := polm2.OnlineOptions{
			Duration:  *duration,
			Warmup:    *warmup,
			Scale:     *scale,
			Seed:      *seed,
			Reprofile: *reprofile,
			Tracer:    tracer,
		}
		if *daemonURL != "" {
			fc, err := polm2.NewFleetClient(polm2.FleetClientOptions{
				BaseURL:    *daemonURL,
				Seed:       *seed,
				InstanceID: *instanceID,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
				return 2
			}
			opts.Fleet = fc
		}
		code := runOnline(app, *workload, opts)
		if err := finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: writing trace: %v\n", err)
			return 1
		}
		return code
	}

	plan := polm2.PlanNone
	var profile *polm2.Profile
	switch {
	case *profilePath != "":
		var err error
		profile, err = polm2.LoadProfile(*profilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
			return 1
		}
		plan = polm2.PlanPOLM2
	case *storeDir != "":
		store, err := polm2.OpenProfileStore(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
			return 1
		}
		if audit, err := store.Audit(); err == nil && audit.Corrupt > 0 {
			for _, e := range audit.Entries {
				if e.Err != "" {
					fmt.Fprintf(os.Stderr, "polm2-run: warning: skipping corrupt evidence document %s: %s\n", e.File, e.Err)
				}
			}
		}
		profile, err = store.Select(app.Name(), *workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
			return 1
		}
		fmt.Printf("selected profile %s/%s from %s\n", profile.App, profile.Workload, *storeDir)
		plan = polm2.PlanPOLM2
	case *manual:
		var err error
		profile, err = app.ManualProfile(*workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
			return 1
		}
		plan = polm2.PlanManual
	}

	start := time.Now()
	res, err := polm2.RunApp(app, *workload, *collector, plan, profile, polm2.RunOptions{
		Duration: *duration,
		Warmup:   *warmup,
		Scale:    *scale,
		Seed:     *seed,
		Tracer:   tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
		return 1
	}
	if err := finishTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "polm2-run: writing trace: %v\n", err)
		return 1
	}

	fmt.Printf("ran %s/%s under %s (plan %s): %v simulated in %v wall-clock\n",
		app.Name(), *workload, *collector, plan,
		res.SimDuration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  GC cycles: %d, warm pauses: %d\n", res.GCCycles, res.WarmPauses.Len())
	fmt.Printf("  pause percentiles (ms): p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f worst=%.1f\n",
		ms(res.WarmPauses.Percentile(50)), ms(res.WarmPauses.Percentile(90)),
		ms(res.WarmPauses.Percentile(99)), ms(res.WarmPauses.Percentile(99.9)),
		ms(res.WarmPauses.Max()))
	fmt.Printf("  warm operations: %d, max memory: %d MB", res.WarmOps, res.MaxMemoryBytes>>20)
	if res.PreReserved {
		fmt.Printf(" (pre-reserved)")
	}
	fmt.Println()
	if res.GenSwitches > 0 {
		fmt.Printf("  dynamic generation switches: %d\n", res.GenSwitches)
	}
	return 0
}

func runOnline(app polm2.App, workload string, opts polm2.OnlineOptions) int {
	start := time.Now()
	res, err := polm2.RunOnline(app, workload, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polm2-run: %v\n", err)
		return 1
	}
	fmt.Printf("ran %s/%s online under NG2C: %v simulated in %v wall-clock\n",
		app.Name(), workload, res.SimDuration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  plan updates: %d\n", len(res.Updates))
	for _, u := range res.Updates {
		fmt.Printf("    at %-10v sites=%d gens=%d conflicts=%d\n",
			u.At.Round(time.Second), u.Instrumented, u.Generations, u.Conflicts)
	}
	for _, ev := range res.FleetEvents {
		if ev.Fallback {
			fmt.Printf("    at %-10v fleet daemon unreachable, installed last good plan\n", ev.At.Round(time.Second))
		} else {
			fmt.Printf("    at %-10v fleet sync failed, kept previous plan: %s\n", ev.At.Round(time.Second), ev.Err)
		}
	}
	fmt.Printf("  pause percentiles (ms): p50=%.1f p99=%.1f worst=%.1f\n",
		ms(res.WarmPauses.Percentile(50)), ms(res.WarmPauses.Percentile(99)), ms(res.WarmPauses.Max()))
	fmt.Printf("  warm operations: %d, max memory: %d MB\n", res.WarmOps, res.MaxMemoryBytes>>20)
	return 0
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
