// Command polm2-profile runs the profiling phase of POLM2 (§3.5) for one
// application workload and writes the resulting allocation profile as JSON.
//
// Usage:
//
//	polm2-profile -app Cassandra -workload WI -o profile.json
//	polm2-profile -app Lucene -workload default -duration 15m -v
//
// The allocation records the profile was analyzed from are kept beside it,
// in the -o path with its extension replaced by ".records".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polm2"
	"polm2/internal/faultio"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		appName  = flag.String("app", "Cassandra", "application model: Cassandra, Lucene or GraphChi")
		workload = flag.String("workload", "WI", "workload name (Cassandra: WI/WR/RI, Lucene: default, GraphChi: CC/PR)")
		out      = flag.String("o", "profile.json", "output path for the allocation profile")
		storeDir = flag.String("store", "", "also store the profile in this repository as its app/workload key's offline seed (__seed__ evidence, read by a polm2d at its next start)")
		snapDir  = flag.String("snapshots", "", "persist heap snapshot images into this directory")
		duration = flag.Duration("duration", 0, "simulated profiling duration (default: 15m)")
		scale    = flag.Uint64("scale", 0, "heap scale divisor vs the paper's 12 GB setup (default 64)")
		seed     = flag.Int64("seed", 1, "workload random seed")
		every    = flag.Int("snapshot-every", 1, "take a heap snapshot every k-th GC cycle")
		faults   = flag.String("faults", "", `inject I/O faults into artifact writes (e.g. "seed=7;torn:site-*.bin;crash#500") and analyze in salvage mode`)
		verbose  = flag.Bool("v", false, "print per-site profiling evidence")
	)
	flag.Parse()

	app := polm2.AppByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "polm2-profile: unknown app %q (want Cassandra, Lucene or GraphChi)\n", *appName)
		return 2
	}
	var injector *faultio.Injector
	if *faults != "" {
		plan, err := faultio.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-profile: %v\n", err)
			return 2
		}
		injector = faultio.New(plan)
	}

	start := time.Now()
	res, err := polm2.ProfileApp(app, *workload, polm2.ProfileOptions{
		Duration:      *duration,
		Scale:         *scale,
		Seed:          *seed,
		SnapshotEvery: *every,
		// The records are kept beside the profile they produced
		// (wi.json -> wi.records/), where polm2-inspect can verify them.
		RecordsDir:  strings.TrimSuffix(*out, filepath.Ext(*out)) + ".records",
		SnapshotDir: *snapDir,
		Fault:       injector,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "polm2-profile: %v\n", err)
		return 1
	}
	if err := res.Profile.Save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "polm2-profile: %v\n", err)
		return 1
	}

	p := res.Profile
	fmt.Printf("profiled %s/%s: %v simulated in %v wall-clock\n",
		app.Name(), *workload, res.SimDuration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  GC cycles: %d, snapshots: %d, records dir: %s\n",
		res.GCCycles, len(res.Snapshots), res.RecordsDir)
	fmt.Printf("  instrumented sites: %d, generations: %d, conflicts: %d (unresolved %d)\n",
		p.InstrumentedSites(), p.UsedGenerations(), p.Conflicts, p.Unresolved)
	if res.Salvage != nil {
		fmt.Printf("  %s\n", res.Salvage)
	}
	fmt.Printf("  profile written to %s\n", *out)
	if *storeDir != "" {
		store, err := polm2.OpenProfileStore(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polm2-profile: %v\n", err)
			return 1
		}
		if err := store.Put(res.Profile); err != nil {
			fmt.Fprintf(os.Stderr, "polm2-profile: %v\n", err)
			return 1
		}
		fmt.Printf("  stored as %s/%s in %s\n", app.Name(), *workload, *storeDir)
	}
	if *verbose {
		for _, site := range p.Sites {
			fmt.Printf("  site %-60s gen=%d n=%d\n", site.Trace, site.Gen, site.Allocated)
		}
		for _, c := range p.Calls {
			fmt.Printf("  call directive %-50s gen=%d\n", c.Loc, c.Gen)
		}
		for _, a := range p.Allocs {
			fmt.Printf("  alloc directive %-48s gen=%d direct=%v\n", a.Loc, a.Gen, a.Direct)
		}
	}
	return 0
}
