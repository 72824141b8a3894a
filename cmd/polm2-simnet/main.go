// Command polm2-simnet drives internal/simnet, the deterministic in-memory
// fleet simulator for the polm2d plan-distribution stack: one simulated
// daemon, a fleet of instances, a seeded network fault plan, and an
// invariant checker over the run's delivery log.
//
// Usage:
//
//	polm2-simnet -seeds 32                                # CI seed sweep
//	polm2-simnet -seed 42 -instances 64 -trace run.jsonl  # replay one seed
//	polm2-simnet -seed 9 -faults 'partition:inst-3..7@t=40s/20s;drop:upload%5'
//	polm2-simnet -seeds 8 -rollout -regress-at 70s        # canary rollback sweep
//	polm2-simnet -seeds 8 -daemons 2 -faults 'partition:daemon-1..1@t=60s/30s'
//
// With -daemons N the simulated fleet runs N replicated planservers:
// instances home on daemon (index mod N) and fail over on refusals,
// daemons pull each other by anti-entropy on the -sync-interval cadence,
// and the checker switches to the multi-daemon invariant suite
// (post-heal convergence to the stamp-winner merge, per-daemon
// accounting, quarantine propagation). Daemons partition by name:
// 'partition:daemon-1..1@t=60s/30s'.
//
// A sweep runs seeds 1..N and prints one verdict line per seed; the first
// seed that violates an invariant stops the sweep, prints the full
// invariant log — which names the reproducing seed and the effective fault
// spec — and exits 1. A single -seed run always prints the full log, and
// -trace additionally writes the run's byte-reproducible JSONL trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"polm2/internal/rollout"
	"polm2/internal/simnet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the tool body, factored from main so tests drive full sweeps
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polm2-simnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds     = fs.Int("seeds", 0, "sweep seeds 1..N, one simulated fleet per seed")
		seed      = fs.Int64("seed", 0, "run (or replay) a single seed")
		instances = fs.Int("instances", 32, "fleet size")
		keys      = fs.Int("keys", 2, "distinct (app, workload) keys the fleet spreads over")
		rounds    = fs.Int("rounds", 3, "chaos-phase re-profile rounds per instance")
		cadence   = fs.Duration("cadence", 30*time.Second, "simulated re-profile interval")
		faults    = fs.String("faults", defaultFaults, "network fault plan (faultio net spec; empty for a clean network)")
		daemons   = fs.Int("daemons", 1, "replicated planserver daemons (instances home on index mod N)")
		syncEvery = fs.Duration("sync-interval", 0, "anti-entropy pull cadence with -daemons > 1 (default cadence/2)")
		traceOut  = fs.String("trace", "", "write the run's JSONL trace to this file (single -seed runs only)")
		rolloutOn = fs.Bool("rollout", false, "run the daemon's canary rollout controller (adds the rollout invariants)")
		regressAt = fs.Duration("regress-at", 0, "inject a plan regression at this virtual instant (requires -rollout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "polm2-simnet: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if (*seeds > 0) == (*seed != 0) {
		fmt.Fprintln(stderr, "polm2-simnet: exactly one of -seeds N or -seed S is required")
		return 2
	}
	if *traceOut != "" && *seeds > 0 {
		fmt.Fprintln(stderr, "polm2-simnet: -trace records a single run; use it with -seed, not -seeds")
		return 2
	}

	if *regressAt != 0 && !*rolloutOn {
		fmt.Fprintln(stderr, "polm2-simnet: -regress-at requires -rollout")
		return 2
	}
	if *daemons < 1 {
		fmt.Fprintln(stderr, "polm2-simnet: -daemons must be at least 1")
		return 2
	}
	if *syncEvery != 0 && *daemons < 2 {
		fmt.Fprintln(stderr, "polm2-simnet: -sync-interval requires -daemons > 1")
		return 2
	}

	base := simnet.Config{
		Instances:    *instances,
		Keys:         *keys,
		Rounds:       *rounds,
		Cadence:      *cadence,
		FaultSpec:    *faults,
		RegressAt:    *regressAt,
		Daemons:      *daemons,
		SyncInterval: *syncEvery,
	}
	if *rolloutOn {
		base.Rollout = &rollout.Config{}
	}

	if *seed != 0 {
		cfg := base
		cfg.Seed = *seed
		rep, code := simulate(cfg, *traceOut, stderr)
		if code != 0 {
			return code
		}
		fmt.Fprint(stdout, rep.Log())
		if !rep.OK() {
			return 1
		}
		return 0
	}

	for s := int64(1); s <= int64(*seeds); s++ {
		cfg := base
		cfg.Seed = s
		rep, code := simulate(cfg, "", stderr)
		if code != 0 {
			return code
		}
		if !rep.OK() {
			fmt.Fprintf(stdout, "seed %d: FAIL (%d violations)\n", s, len(rep.Violations))
			fmt.Fprintf(stderr, "polm2-simnet: invariants violated; reproduce with -seed %d -faults %q\n%s",
				s, rep.FaultSpec, rep.Log())
			return 1
		}
		repl := ""
		if rep.Daemons > 1 {
			repl = fmt.Sprintf(" daemons=%d syncs=%d applied=%d", rep.Daemons, rep.PeerSyncs, rep.PeerDocsApplied)
		}
		fmt.Fprintf(stdout, "seed %d: ok (time=%s events=%d uploads=%d merges=%d coalesced=%d faults=%d%s)\n",
			s, rep.SimTime, rep.Events, rep.Uploads, rep.Merges, rep.Coalesced,
			rep.Net.Refused+rep.Net.Dropped+rep.Net.Dup+rep.Net.Stale+rep.Net.Delayed+rep.Net.Err5xx, repl)
	}
	fmt.Fprintf(stdout, "sweep: %d seeds, all invariants held\n", *seeds)
	return 0
}

// defaultFaults is the sweep's standing chaos plan: a partition window
// plus every percentage fault class, so a default CI sweep exercises the
// whole fault model. The per-run seed drives the draws (the spec pins no
// seed of its own).
const defaultFaults = "partition:inst-4..11@t=45s/30s;drop:upload%4;dup:upload%5;stale:upload%4;delay:fetch%6@120ms;err5xx%2"

// simulate runs one seed into a throwaway store. A non-zero exit code
// means the simulation could not be built at all (bad spec, unusable
// store) as opposed to failing its invariants.
func simulate(cfg simnet.Config, traceOut string, stderr io.Writer) (*simnet.Report, int) {
	dir, err := os.MkdirTemp("", "polm2-simnet-")
	if err != nil {
		fmt.Fprintf(stderr, "polm2-simnet: %v\n", err)
		return nil, 1
	}
	defer os.RemoveAll(dir)
	cfg.StoreDir = dir

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "polm2-simnet: %v\n", err)
			return nil, 1
		}
		defer f.Close()
		cfg.TraceWriter = f
	}

	rep, err := simnet.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "polm2-simnet: %v\n", err)
		return nil, 2
	}
	return rep, 0
}
