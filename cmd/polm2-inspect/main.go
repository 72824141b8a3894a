// Command polm2-inspect examines POLM2 artifacts: allocation profiles
// (summary, STTree rendering, diffs) and snapshot image directories.
//
// Usage:
//
//	polm2-inspect profile wi.json            # summary + directives
//	polm2-inspect tree wi.json               # STTree, the paper's Figure 2
//	polm2-inspect dot wi.json > tree.dot     # Graphviz rendering
//	polm2-inspect diff old.json new.json     # directive-level diff
//	polm2-inspect snapshots ./images         # decode a snapshot image dir
//	polm2-inspect profiles ./profiles        # list a profile repository
//	polm2-inspect plan ./profiles Cassandra/WI  # one key's plan, as the daemon hashes it
//	polm2-inspect rollout ./profiles         # canary rollout state per key
//	polm2-inspect sync ./profiles            # replication stamps per evidence doc
//	polm2-inspect trace trace.jsonl          # summarize a trace file
//	polm2-inspect verify ./artifacts         # integrity-check artifact dirs
//
// verify exits 0 when every artifact is intact and 1 when damage was found
// (the salvage readers report what survives either way).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/snapshot"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: polm2-inspect <profile|tree|dot|diff|snapshots|profiles|plan|rollout|sync|trace|verify> <args...>")
	return 2
}

func run() int {
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		return usage()
	}
	var err error
	switch args[0] {
	case "profile":
		err = showProfile(args[1])
	case "tree":
		err = renderTree(args[1], false)
	case "dot":
		err = renderTree(args[1], true)
	case "diff":
		if len(args) < 3 {
			return usage()
		}
		err = diffProfiles(args[1], args[2])
	case "snapshots":
		err = showSnapshots(os.Stdout, args[1])
	case "profiles":
		err = showProfiles(os.Stdout, args[1])
	case "plan":
		if len(args) < 3 {
			return usage()
		}
		err = showPlan(os.Stdout, args[1], args[2])
	case "rollout":
		err = showRollout(os.Stdout, args[1])
	case "sync":
		err = showSync(os.Stdout, args[1])
	case "trace":
		err = showTrace(os.Stdout, args[1])
	case "verify":
		var clean bool
		clean, err = verifyArtifacts(os.Stdout, args[1])
		if err == nil && !clean {
			return 1
		}
	default:
		return usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "polm2-inspect: %v\n", err)
		return 1
	}
	return 0
}

func showProfile(path string) error {
	p, err := analyzer.LoadProfile(path)
	if err != nil {
		return err
	}
	fmt.Printf("profile %s/%s\n", p.App, p.Workload)
	fmt.Printf("  generations: %d (+young), instrumented sites: %d, conflicts: %d (unresolved %d)\n",
		p.Generations, p.InstrumentedSites(), p.Conflicts, p.Unresolved)
	fmt.Println("  call directives:")
	for _, c := range p.Calls {
		fmt.Printf("    setGeneration(%d) around %s\n", c.Gen, c.Loc)
	}
	fmt.Println("  alloc directives:")
	for _, a := range p.Allocs {
		if a.Direct {
			fmt.Printf("    @Gen(direct -> %d) at %s\n", a.Gen, a.Loc)
		} else {
			fmt.Printf("    @Gen at %s\n", a.Loc)
		}
	}
	if len(p.Sites) > 0 {
		fmt.Println("  site evidence:")
		for _, s := range p.Sites {
			fmt.Printf("    gen=%-3d n=%-9d %s\n", s.Gen, s.Allocated, s.Trace)
		}
	}
	return nil
}

func renderTree(path string, dot bool) error {
	p, err := analyzer.LoadProfile(path)
	if err != nil {
		return err
	}
	if dot {
		return analyzer.RenderDOT(p, os.Stdout)
	}
	return analyzer.RenderSTTree(p, os.Stdout)
}

func diffProfiles(oldPath, newPath string) error {
	oldP, err := analyzer.LoadProfile(oldPath)
	if err != nil {
		return err
	}
	newP, err := analyzer.LoadProfile(newPath)
	if err != nil {
		return err
	}
	oldCalls := make(map[string]int)
	for _, c := range oldP.Calls {
		oldCalls[c.Loc] = c.Gen
	}
	newCalls := make(map[string]int)
	for _, c := range newP.Calls {
		newCalls[c.Loc] = c.Gen
	}
	for _, c := range newP.Calls {
		if g, ok := oldCalls[c.Loc]; !ok {
			fmt.Printf("+ call %s -> gen %d\n", c.Loc, c.Gen)
		} else if g != c.Gen {
			fmt.Printf("~ call %s: gen %d -> %d\n", c.Loc, g, c.Gen)
		}
	}
	for _, c := range oldP.Calls {
		if _, ok := newCalls[c.Loc]; !ok {
			fmt.Printf("- call %s (was gen %d)\n", c.Loc, c.Gen)
		}
	}
	oldAllocs := make(map[string]analyzer.AllocDirective)
	for _, a := range oldP.Allocs {
		oldAllocs[a.Loc] = a
	}
	newAllocs := make(map[string]analyzer.AllocDirective)
	for _, a := range newP.Allocs {
		newAllocs[a.Loc] = a
	}
	for _, a := range newP.Allocs {
		old, ok := oldAllocs[a.Loc]
		switch {
		case !ok:
			fmt.Printf("+ alloc %s (direct=%v gen=%d)\n", a.Loc, a.Direct, a.Gen)
		case old.Direct != a.Direct || old.Gen != a.Gen:
			fmt.Printf("~ alloc %s: direct=%v gen=%d -> direct=%v gen=%d\n",
				a.Loc, old.Direct, old.Gen, a.Direct, a.Gen)
		}
	}
	for _, a := range oldP.Allocs {
		if _, ok := newAllocs[a.Loc]; !ok {
			fmt.Printf("- alloc %s\n", a.Loc)
		}
	}
	return nil
}

// showProfiles lists a profile repository (profilestore.Store): one line
// per (app, workload) key with evidence (an offline seed included),
// showing the key's plan shape and the evidence behind it — the view an
// operator wants of a polm2d daemon's store.
func showProfiles(w io.Writer, dir string) error {
	store, err := profilestore.Open(dir)
	if err != nil {
		return err
	}
	keys, err := store.List()
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Fprintln(w, "no profiles found")
		return nil
	}
	fmt.Fprintf(w, "%-24s %-6s %-8s %-6s %-12s %-10s\n",
		"app/workload", "gens", "sites", "instr", "evidence", "tainted")
	for _, k := range keys {
		p, err := store.Get(k.App, k.Workload)
		if err != nil {
			return err
		}
		var allocated, tainted uint64
		for _, s := range p.Sites {
			allocated += s.Allocated
			tainted += s.Tainted
		}
		fmt.Fprintf(w, "%-24s %-6d %-8d %-6d %-12d %-10d\n",
			k.String(), p.Generations, len(p.Sites), p.InstrumentedSites(), allocated, tainted)
	}
	fmt.Fprintf(w, "%d profiles\n", len(keys))
	return nil
}

// showPlan prints one key's plan as the store defines it — the merge of
// its evidence, an offline seed included — in the store's encoding:
// compact JSON and a newline, per-site evidence included. Its SHA-256 is
// the ETag a polm2d daemon over the same store serves the plan under.
func showPlan(w io.Writer, dir, key string) error {
	app, workload, ok := strings.Cut(key, "/")
	if !ok || app == "" || workload == "" {
		return fmt.Errorf("plan: key %q is not app/workload", key)
	}
	store, err := profilestore.Open(dir)
	if err != nil {
		return err
	}
	p, err := store.Get(app, workload)
	if err != nil {
		return err
	}
	data, err := profilestore.Encode(p)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// showRollout lists the persisted canary-rollout controller state for
// every key in a polm2d store directory: which plan version is stable,
// which (if any) is mid-canary, what's quarantined, and the lifetime
// promote/rollback tallies. Keys the controller has never touched (store
// written with -rollout off) are skipped.
func showRollout(w io.Writer, dir string) error {
	store, err := profilestore.Open(dir)
	if err != nil {
		return err
	}
	keys, err := store.List()
	if err != nil {
		return err
	}
	// The document is planserver's rolloutDoc; only the tracker snapshot
	// matters here, the embedded plan bodies are cache warm-up payload.
	type doc struct {
		Snapshot rollout.Snapshot `json:"snapshot"`
	}
	rows := 0
	for _, k := range keys {
		data, err := store.Rollout(k.App, k.Workload)
		if errors.Is(err, profilestore.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		var d doc
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("rollout document for %s: %w", k, err)
		}
		if rows == 0 {
			fmt.Fprintf(w, "%-24s %-12s %-14s %-14s %-6s %-9s %-9s %s\n",
				"app/workload", "state", "stable", "candidate", "quar", "canaries", "promoted", "rolledback")
		}
		rows++
		fmt.Fprintf(w, "%-24s %-12s %-14s %-14s %-6d %-9d %-9d %d\n",
			k.String(), d.Snapshot.State,
			shortETag(d.Snapshot.StableETag), shortETag(d.Snapshot.CandidateETag),
			len(d.Snapshot.Quarantined), d.Snapshot.Canaries, d.Snapshot.Promotions, d.Snapshot.Rollbacks)
	}
	if rows == 0 {
		fmt.Fprintln(w, "no rollout state found (store written with -rollout off?)")
		return nil
	}
	fmt.Fprintf(w, "%d keys under rollout control\n", rows)
	return nil
}

// showSync lists the replication view of a polm2d store: first each key's
// replicating document count and key sum — what the daemon advertises in
// its GET /v1/sync summary, so two stores compare at the key level by eye
// or diff — then every stored evidence document with its stamp, the
// logical version last-write-wins anti-entropy resolves conflicts with
// (DESIGN.md §15). Comparing two replicas' listings shows exactly which
// documents still differ; identical listings mean the pair has converged.
// Documents written before replication carry no stamp, show "-" and stay
// out of the key sum. A document that does not decode is left out, as the
// daemon leaves it out; polm2-run's store audit names it.
func showSync(w io.Writer, dir string) error {
	store, err := profilestore.Open(dir)
	if err != nil {
		return err
	}
	all, _, err := store.EvidenceAll()
	if err != nil {
		return err
	}
	keys := make([]profilestore.Key, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	if len(keys) == 0 {
		fmt.Fprintln(w, "no evidence documents found")
		return nil
	}
	fmt.Fprintf(w, "%-24s %-6s %s\n", "app/workload", "docs", "key sum")
	for _, k := range keys {
		stamped, sum := 0, profilestore.KeySum{}
		for id, doc := range all[k] {
			if !doc.Stamp.IsZero() {
				stamped++
				sum.Toggle(id, doc.Stamp)
			}
		}
		shown := sum.String()
		if stamped == 0 {
			shown = "-"
		}
		fmt.Fprintf(w, "%-24s %-6d %s\n", k.String(), stamped, shown)
	}
	fmt.Fprintf(w, "\n%-24s %-16s %-18s %-6s %-8s %s\n",
		"app/workload", "instance", "stamp", "gens", "sites", "evidence")
	docs, unstamped := 0, 0
	for _, k := range keys {
		instances := make([]string, 0, len(all[k]))
		for id := range all[k] {
			instances = append(instances, id)
		}
		sort.Strings(instances)
		for _, id := range instances {
			doc := all[k][id]
			stamp := doc.Stamp.String()
			if doc.Stamp.IsZero() {
				stamp = "-"
				unstamped++
			}
			docs++
			var allocated uint64
			for _, s := range doc.Profile.Sites {
				allocated += s.Allocated
			}
			fmt.Fprintf(w, "%-24s %-16s %-18s %-6d %-8d %d\n",
				k.String(), id, stamp, doc.Profile.Generations, len(doc.Profile.Sites), allocated)
		}
	}
	fmt.Fprintf(w, "%d evidence documents across %d keys (%d unstamped)\n", docs, len(keys), unstamped)
	return nil
}

// shortETag trims a content-addressed ETag (a quoted sha256 hex string) to
// a display prefix, mirroring the daemon's trace rendering; empty in,
// "-" out so table columns stay aligned.
func shortETag(etag string) string {
	t := etag
	if len(t) >= 2 && t[0] == '"' {
		t = t[1 : len(t)-1]
	}
	if t == "" {
		return "-"
	}
	if len(t) > 12 {
		t = t[:12]
	}
	return t
}

func showSnapshots(w io.Writer, dir string) error {
	snaps, err := snapshot.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		fmt.Fprintln(w, "no snapshot images found")
		return nil
	}
	fmt.Fprintf(w, "%-6s %-8s %-12s %-8s %-8s %-8s %-10s %-12s\n",
		"seq", "cycle", "taken", "regions", "pages", "no-need", "size(MB)", "duration")
	store := snapshot.NewStore()
	for _, s := range snaps {
		if err := store.Apply(s); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %-8d %-12v %-8d %-8d %-8d %-10.2f %-12v\n",
			s.Seq, s.Cycle, s.TakenAt.Round(time.Millisecond),
			len(s.Regions), len(s.Pages), len(s.NoNeed),
			float64(s.SizeBytes)/(1<<20), s.Duration.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "reconstructed live view after last snapshot: %d objects\n", len(store.LiveIDs()))
	return nil
}
