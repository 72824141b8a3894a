// Command polm2d is the POLM2 plan-distribution daemon: it fronts an
// on-disk profile repository (internal/profilestore) and serves versioned
// instrumentation plans to a fleet of production instances, merging the
// profiling evidence they upload into one fleet-wide plan per
// (application, workload). See internal/planserver for the endpoints and
// wire format.
//
// Usage:
//
//	polm2d -addr 127.0.0.1:7468 -store ./profiles
//	polm2d -addr 127.0.0.1:0 -store ./profiles          # random port
//	polm2d -store ./profiles -faults 'seed=7;missing:*.evidence.json'
//	polm2d -store ./profiles -trace trace.jsonl         # also log spans to disk
//	polm2d -store ./profiles -rollout                   # canary new plans before publishing
//
// The daemon prints its actual listen address on startup (useful with
// -addr ...:0) and shuts down cleanly on SIGINT/SIGTERM. The -faults flag
// interposes internal/faultio's deterministic fault plans on the store's
// staging writes — the same fault model the profiling pipeline is tested
// under — so operators and CI can rehearse disk trouble end to end.
//
// With -rollout, a newly merged plan is not published fleet-wide: a
// deterministic canary cohort tests it first, instances report plan health
// through POST /v1/feedback, and the daemon promotes or rolls back (and
// quarantines) the candidate from that evidence. -rollout-canary,
// -rollout-min-reports, -rollout-regression and -rollout-seed tune the
// decision rule; without -rollout the daemon's behaviour is unchanged.
//
// With -peer (repeatable), the daemon replicates: it stamps every accepted
// evidence document with a logical version, serves GET /v1/sync summaries to
// its peers, and pulls each peer on the -sync-interval cadence, applying
// whichever document carries the higher stamp (DESIGN.md §15). -id names
// this replica in the stamps; it defaults to the resolved listen address.
// Replicas never push — a pair of daemons pointed at each other with
//
//	polm2d -addr :7468 -store a -id a -peer http://host-b:7468
//	polm2d -addr :7468 -store b -id b -peer http://host-a:7468
//
// converges both stores to the same evidence and, with -rollout, the same
// quarantine set. Without -peer nothing replicates and the daemon's wire
// surface is unchanged.
//
// Request handling is always traced into a bounded in-memory ring served
// at GET /tracez (newest window, JSONL); -trace additionally appends every
// record to a file. -trace-ring sizes the ring.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"polm2/internal/faultio"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon body, factored from main so the lifecycle test can
// drive a full start/serve/SIGTERM cycle in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polm2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7468", "TCP listen address (port 0 picks a free port)")
		storeDir  = fs.String("store", "profiles", "profile repository directory (created if missing)")
		faultSpec = fs.String("faults", "", "inject I/O faults into the store's writes (faultio spec, e.g. 'seed=7;missing:*.evidence.json')")
		traceOut  = fs.String("trace", "", "append every trace record to this JSONL file (the in-memory /tracez ring is always on)")
		ringSize  = fs.Int("trace-ring", 0, "trace ring capacity in records (default 4096)")

		syncEvery = fs.Duration("sync-interval", 0, "anti-entropy pull cadence with -peer (default 30s)")
		selfID    = fs.String("id", "", "replication identity stamped into evidence with -peer (default: the listen address)")

		rolloutOn  = fs.Bool("rollout", false, "stage merged plans through a canary rollout instead of publishing fleet-wide")
		rolloutFra = fs.Float64("rollout-canary", 0, "canary cohort fraction of the fleet in (0, 1] (default 0.25)")
		rolloutMin = fs.Int("rollout-min-reports", 0, "feedback reports required on each side before deciding (default 3)")
		rolloutPct = fs.Float64("rollout-regression", 0, "canary p99 regression over baseline, in percent, that triggers rollback (default 10)")
		rolloutSd  = fs.Int64("rollout-seed", 0, "seed for the deterministic cohort assignment (default 1)")
	)
	var peers peerList
	fs.Var(&peers, "peer", "base URL of a replica to pull evidence from (repeatable); enables replication")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "polm2d: unexpected arguments %v\n", fs.Args())
		return 2
	}

	store, err := profilestore.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(stderr, "polm2d: %v\n", err)
		return 1
	}
	if *faultSpec != "" {
		plan, err := faultio.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "polm2d: %v\n", err)
			return 2
		}
		store.SetFault(faultio.New(plan))
		fmt.Fprintf(stdout, "polm2d: injecting store faults: %s\n", plan)
	}

	// The ring is always on — /tracez answering is part of the daemon's
	// contract — while the file sink is opt-in.
	topts := trace.Options{Ring: trace.NewRing(*ringSize)}
	var flushTrace func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "polm2d: creating trace file: %v\n", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		topts.Writer = bw
		flushTrace = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	tracer := trace.New(topts)

	// Flag validation precedes the listen: a daemon that exits 2 on a bad
	// combination must not have bound (and leaked) the port first.
	popts := planserver.Options{Tracer: tracer}
	if *rolloutOn {
		cfg := rollout.Config{
			CanaryFraction: *rolloutFra,
			MinReports:     *rolloutMin,
			RegressionPct:  *rolloutPct,
			Seed:           *rolloutSd,
		}
		cfg = cfg.Normalize()
		popts.Rollout = &cfg
		fmt.Fprintf(stdout, "polm2d: canary rollout on (cohort %.0f%%, min %d reports/side, rollback over +%.0f%% p99, seed %d)\n",
			cfg.CanaryFraction*100, cfg.MinReports, cfg.RegressionPct, cfg.Seed)
	} else if *rolloutFra != 0 || *rolloutMin != 0 || *rolloutPct != 0 || *rolloutSd != 0 {
		fmt.Fprintln(stderr, "polm2d: -rollout-* flags require -rollout")
		return 2
	}
	if len(peers) > 0 {
		if *syncEvery < 0 {
			fmt.Fprintln(stderr, "polm2d: -sync-interval must be positive")
			return 2
		}
		if *syncEvery == 0 {
			*syncEvery = 30 * time.Second
		}
		popts.Peers = peers
	} else if *syncEvery != 0 || *selfID != "" {
		fmt.Fprintln(stderr, "polm2d: -sync-interval and -id require -peer")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "polm2d: %v\n", err)
		return 1
	}
	if len(peers) > 0 {
		popts.SelfID = *selfID
		if popts.SelfID == "" {
			popts.SelfID = ln.Addr().String()
		}
		fmt.Fprintf(stdout, "polm2d: replicating with %d peer(s) as %s (sync every %s)\n",
			len(peers), popts.SelfID, *syncEvery)
	}
	ps := planserver.New(store, popts)
	srv := &http.Server{Handler: ps}
	fmt.Fprintf(stdout, "polm2d: serving on http://%s (store %s)\n", ln.Addr(), store.Dir())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(peers) > 0 {
		// The anti-entropy poller: one pull pass per tick, forever. A
		// failed pull is counted and retried next tick — replication is
		// eventually consistent by construction, so staleness is the only
		// cost of a missed pass.
		ticker := time.NewTicker(*syncEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					ps.SyncPeers()
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "polm2d: %v\n", err)
			return 1
		}
	case <-ctx.Done():
		stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "polm2d: shutdown: %v\n", err)
			return 1
		}
		// Merges coalesce asynchronously behind uploads; settle the pending
		// ones so no merge is left in flight and, with -rollout, every
		// key's rollout document records the last merge's verdict.
		ps.Flush()
	}
	if flushTrace != nil {
		if err := flushTrace(); err != nil {
			fmt.Fprintf(stderr, "polm2d: writing trace: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, "polm2d: shutdown complete")
	return 0
}

// peerList collects repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	if v == "" {
		return errors.New("empty peer URL")
	}
	*p = append(*p, v)
	return nil
}
