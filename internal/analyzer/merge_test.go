package analyzer

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// evidenceProfile builds a profile carrying only site evidence, the shape a
// fleet instance uploads to the plan daemon.
func evidenceProfile(app, workload string, sites ...SiteStat) *Profile {
	return &Profile{App: app, Workload: workload, Sites: sites}
}

func mustMerge(t *testing.T, opts Options, profiles ...*Profile) *Profile {
	t.Helper()
	p, err := MergeProfiles(opts, profiles...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func profileJSON(t *testing.T, p *Profile) []byte {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// permutations returns every ordering of indices 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			perm := make([]int, 0, n)
			perm = append(perm, sub[:pos]...)
			perm = append(perm, n-1)
			perm = append(perm, sub[pos:]...)
			out = append(out, perm)
		}
	}
	return out
}

// TestMergePermutationInvariance proves order-independence: every
// permutation of the inputs, merged in one batch, yields a byte-identical
// profile.
func TestMergePermutationInvariance(t *testing.T) {
	inputs := []*Profile{
		evidenceProfile("Cassandra", "WI",
			SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 40, Buckets: []uint64{5, 35}},
			SiteStat{Trace: "Main.run:12;Cache.add:7", Allocated: 20, Buckets: []uint64{18, 2}},
		),
		evidenceProfile("Cassandra", "WI",
			SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 60, Buckets: []uint64{10, 20, 30}},
			SiteStat{Trace: "Main.run:14;Log.append:3", Allocated: 30, Buckets: []uint64{2, 1, 27}},
		),
		evidenceProfile("Cassandra", "WI",
			SiteStat{Trace: "Main.run:12;Cache.add:7", Allocated: 50, Buckets: []uint64{45, 5}},
			SiteStat{Trace: "Main.run:14;Log.append:3", Allocated: 16, Buckets: []uint64{0, 0, 16}, Tainted: 16},
		),
		evidenceProfile("Cassandra", "WI",
			SiteStat{Trace: "Main.run:16;Idx.build:9", Allocated: 24, Buckets: []uint64{4, 20}},
		),
	}
	var want []byte
	for i, perm := range permutations(len(inputs)) {
		ordered := make([]*Profile, len(perm))
		for j, idx := range perm {
			ordered[j] = inputs[idx]
		}
		got := profileJSON(t, mustMerge(t, Options{}, ordered...))
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("permutation %v changed the merged profile:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

// TestMergeAssociativity proves incremental merging (the daemon's
// upload-at-a-time path) converges to the same profile as one batch merge.
func TestMergeAssociativity(t *testing.T) {
	a := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 30, Buckets: []uint64{2, 28}},
		SiteStat{Trace: "Main.run:14;Log.append:3", Allocated: 40, Buckets: []uint64{1, 39}, Tainted: 40},
	)
	b := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 25, Buckets: []uint64{3, 2, 20}},
	)
	c := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:14;Log.append:3", Allocated: 80, Buckets: []uint64{5, 75}},
		SiteStat{Trace: "Main.run:16;Idx.build:9", Allocated: 12, Buckets: []uint64{0, 12}},
	)
	batch := profileJSON(t, mustMerge(t, Options{}, a, b, c))
	incr := profileJSON(t, mustMerge(t, Options{}, mustMerge(t, Options{}, a, b), c))
	if string(batch) != string(incr) {
		t.Fatalf("incremental merge diverged from batch merge:\n%s\nvs\n%s", incr, batch)
	}
	incr2 := profileJSON(t, mustMerge(t, Options{}, a, mustMerge(t, Options{}, c, b)))
	if string(batch) != string(incr2) {
		t.Fatalf("right-fold merge diverged from batch merge:\n%s\nvs\n%s", incr2, batch)
	}
}

// TestMergeCombinesEvidence checks that merged estimates follow the summed
// buckets, not any single input's estimate.
func TestMergeCombinesEvidence(t *testing.T) {
	// Alone, a says "mostly dies young" (gen 0); b's heavier evidence says
	// the site survives one snapshot.
	a := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 20, Buckets: []uint64{19, 1}})
	b := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 100, Buckets: []uint64{10, 90}})
	p := mustMerge(t, Options{}, a, b)
	if len(p.Sites) != 1 {
		t.Fatalf("Sites = %+v", p.Sites)
	}
	s := p.Sites[0]
	if s.Allocated != 120 || s.Buckets[0] != 29 || s.Buckets[1] != 91 {
		t.Fatalf("merged evidence = %+v", s)
	}
	if s.Gen != 1 {
		t.Fatalf("merged gen = %d, want 1 (91/120 survive one snapshot)", s.Gen)
	}
	if len(p.Allocs) == 0 {
		t.Fatal("merged profile emits no directives")
	}
}

// TestMergeConfidenceFloorReapplied checks the floor is re-derived from the
// merged tainted/allocated ratio.
func TestMergeConfidenceFloorReapplied(t *testing.T) {
	tainted := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 90, Buckets: []uint64{5, 85}, Tainted: 90})
	clean := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 30, Buckets: []uint64{2, 28}})

	// 90 of 120 allocations tainted: confidence 0.25 < 0.5 floor, the site
	// degrades to young and emits no directive.
	p := mustMerge(t, Options{}, tainted, clean)
	if p.Sites[0].Gen != 0 {
		t.Fatalf("low-confidence merged site gen = %d, want 0", p.Sites[0].Gen)
	}
	if p.Sites[0].Tainted != 90 {
		t.Fatalf("merged tainted = %d, want the pure sum 90", p.Sites[0].Tainted)
	}
	if len(p.Allocs) != 0 || len(p.Calls) != 0 {
		t.Fatalf("degraded site emitted directives: %+v %+v", p.Allocs, p.Calls)
	}

	// More clean evidence arriving later lifts the site back over the
	// floor — the degrade decision is recomputed, never sticky.
	moreClean := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 120, Buckets: []uint64{10, 110}})
	p2 := mustMerge(t, Options{}, p, moreClean)
	if p2.Sites[0].Gen != 1 {
		t.Fatalf("recovered site gen = %d, want 1", p2.Sites[0].Gen)
	}
}

// TestMergeLabelRules checks label adoption and mismatch rejection.
func TestMergeLabelRules(t *testing.T) {
	labeled := evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 20, Buckets: []uint64{2, 18}})
	unlabeled := evidenceProfile("", "",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 20, Buckets: []uint64{2, 18}})
	p := mustMerge(t, Options{}, labeled, unlabeled)
	if p.App != "Cassandra" || p.Workload != "WI" {
		t.Fatalf("merged labels = %s/%s", p.App, p.Workload)
	}
	other := evidenceProfile("Lucene", "default",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 20, Buckets: []uint64{2, 18}})
	if _, err := MergeProfiles(Options{}, labeled, other); err == nil {
		t.Fatal("cross-application merge accepted")
	}
	if _, err := MergeProfiles(Options{}); err == nil {
		t.Fatal("empty merge accepted")
	}
	bad := evidenceProfile("Cassandra", "WI", SiteStat{Trace: "not a trace", Allocated: 5})
	if _, err := MergeProfiles(Options{}, bad); err == nil {
		t.Fatal("unparseable trace accepted")
	}
}

// TestAccumulatorEquivalence: a MergeAccumulator reused through Reset
// produces byte-identical plans to one-shot MergeProfiles calls, merge
// after merge — nothing of an earlier fold leaks into a later one.
func TestAccumulatorEquivalence(t *testing.T) {
	opts := Options{App: "Cassandra", Workload: "WI"}
	acc := NewMergeAccumulator(opts)
	rounds := [][]*Profile{
		{
			evidenceProfile("Cassandra", "WI",
				SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 40, Buckets: []uint64{5, 35}}),
		},
		{
			evidenceProfile("Cassandra", "WI",
				SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 40, Buckets: []uint64{5, 35}}),
			evidenceProfile("Cassandra", "WI",
				SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 60, Buckets: []uint64{10, 50}},
				SiteStat{Trace: "Main.run:12;Cache.add:7", Allocated: 20, Buckets: []uint64{18, 2}}),
		},
		// A shrinking round: the second profile's sites must vanish from
		// the fold, not linger from the previous merge.
		{
			evidenceProfile("Cassandra", "WI",
				SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 80, Buckets: []uint64{20, 60}}),
		},
	}
	for i, inputs := range rounds {
		acc.Reset()
		for _, p := range inputs {
			if err := acc.Add(p); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		got, err := acc.Merge()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		want := mustMerge(t, opts, inputs...)
		if string(profileJSON(t, got)) != string(profileJSON(t, want)) {
			t.Fatalf("round %d: accumulator merge differs from MergeProfiles", i)
		}
	}
}

// TestAccumulatorErrorAttribution: Add fails on the offending profile
// (label mismatch), Merge fails on an empty fold — the split the plan
// daemon's upload-vs-store error classification rests on.
func TestAccumulatorErrorAttribution(t *testing.T) {
	acc := NewMergeAccumulator(Options{App: "Cassandra", Workload: "WI"})
	if err := acc.Add(evidenceProfile("Lucene", "WI",
		SiteStat{Trace: "Main.run:1", Allocated: 1, Buckets: []uint64{1}})); err == nil {
		t.Fatal("Add of mismatched app did not fail")
	}
	if err := acc.Add(evidenceProfile("Cassandra", "batch",
		SiteStat{Trace: "Main.run:1", Allocated: 1, Buckets: []uint64{1}})); err == nil {
		t.Fatal("Add of mismatched workload did not fail")
	}
	if _, err := acc.Merge(); err == nil {
		t.Fatal("Merge over zero added profiles did not fail")
	}
	// The failures left the accumulator usable.
	if err := acc.Add(evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:1;Db.put:2", Allocated: 10, Buckets: []uint64{4, 6}})); err != nil {
		t.Fatal(err)
	}
	p, err := acc.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 1 || p.Sites[0].Allocated != 10 {
		t.Fatalf("post-error merge = %+v", p.Sites)
	}
}

// TestAccumulatorMergeIsRepeatable: Merge is pure over the fold state —
// calling it twice without an intervening Reset/Add yields identical
// bytes.
func TestAccumulatorMergeIsRepeatable(t *testing.T) {
	acc := NewMergeAccumulator(Options{App: "Cassandra", Workload: "WI"})
	if err := acc.Add(evidenceProfile("Cassandra", "WI",
		SiteStat{Trace: "Main.run:10;Db.put:5", Allocated: 40, Buckets: []uint64{5, 35}},
		SiteStat{Trace: "Main.run:12;Cache.add:7", Allocated: 20, Buckets: []uint64{18, 2}})); err != nil {
		t.Fatal(err)
	}
	first, err := acc.Merge()
	if err != nil {
		t.Fatal(err)
	}
	second, err := acc.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if string(profileJSON(t, first)) != string(profileJSON(t, second)) {
		t.Fatal("repeated Merge over the same fold differs")
	}
}

// fleetEvidence builds a deterministic fleet shaped like a steady fleet's
// uploads: instances profiles of sites sites each. Site 0 is shared
// fleet-wide; every other site is private to its instance, allocating at
// the instance's own Worker.run line below one Handler.call line per site.
// Lifetimes vary by site and instance across three clusters and young, so
// each Worker.run line is a conflict group that Algorithm 1 has to push up
// the stack, and some instances report tainted evidence.
func fleetEvidence(instances, sites int) []*Profile {
	fleet := make([]*Profile, instances)
	for i := range fleet {
		p := evidenceProfile("Fleet", "steady")
		for j := 0; j < sites; j++ {
			trace := fmt.Sprintf("app.Main.main:1;app.Handler.call:%d", 10+j)
			if j > 0 {
				trace = fmt.Sprintf("%s;app.Worker.run:%d", trace, 100+i)
			}
			n := uint64(32 + (i*13+j*7)%64 + 3*j)
			young := n / uint64(2+(i+j)%3)
			if (i*j)%5 == 0 {
				young = n * 3 / 4
			}
			life := 1 + 6*((i+j)%3)
			buckets := make([]uint64, life+1)
			buckets[0], buckets[life] = young, n-young
			var tainted uint64
			if i%4 == 0 {
				tainted = n / 10
			}
			p.Sites = append(p.Sites, SiteStat{Trace: trace, Allocated: n, Buckets: buckets, Tainted: tainted})
		}
		fleet[i] = p
	}
	return fleet
}

// mergeFleetSHA256 pins the merged plan of a 16 x 64 fleetEvidence: the
// bytes a fleet merge produces must not move under host-side work on the
// STTree or the accumulator.
const mergeFleetSHA256 = "4018427a8da815a0a067f4a1764d4589e547a7a2a0e003ffbc3edbacd3061934"

func TestMergeFleetPinned(t *testing.T) {
	merged := mustMerge(t, Options{}, fleetEvidence(16, 64)...)
	if merged.Conflicts == 0 || len(merged.Calls) == 0 {
		t.Fatalf("fleet merge resolved no conflicts (%d conflicts, %d calls): the pin guards too little", merged.Conflicts, len(merged.Calls))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(profileJSON(t, merged))); got != mergeFleetSHA256 {
		t.Fatalf("fleet merge hash = %s, pinned %s", got, mergeFleetSHA256)
	}
}

// mergeRespelledSHA256 pins the merged plan of a fleet in which two
// instances spell the shared site's locations non-canonically.
const mergeRespelledSHA256 = "a64b56740386b5115a1b199538ff4eba8190c34ad4bed28a9f30638794b50542"

// TestMergeNonCanonicalSpellings: a location spelled ":010" or ":+1"
// parses to the same frame as its canonical spelling, but the fold keys
// sites by the uploaded string, so each spelling stays its own site. The
// merged plan renders every trace canonically: the shared site appears as
// three SiteStats with one trace, all ending at one STTree leaf.
func TestMergeNonCanonicalSpellings(t *testing.T) {
	const canonical = "app.Main.main:1;app.Handler.call:10"
	fleet := fleetEvidence(8, 12)
	fleet[1].Sites[0].Trace = "app.Main.main:1;app.Handler.call:010"
	fleet[2].Sites[0].Trace = "app.Main.main:+1;app.Handler.call:10"
	merged := mustMerge(t, Options{}, fleet...)
	n := 0
	for _, s := range merged.Sites {
		if s.Trace == canonical {
			n++
		}
		if strings.Contains(s.Trace, ":0") || strings.Contains(s.Trace, "+") {
			t.Fatalf("merged trace %q is not canonical", s.Trace)
		}
	}
	if n != 3 {
		t.Fatalf("%d SiteStats carry %q, want 3 (one per uploaded spelling)", n, canonical)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(profileJSON(t, merged))); got != mergeRespelledSHA256 {
		t.Fatalf("respelled fleet merge hash = %s, pinned %s", got, mergeRespelledSHA256)
	}
}

// BenchmarkMergeFleet times one fleet merge the way the plan daemon runs
// it: a cold fold (Reset keeps nothing), every instance's evidence added,
// one synthesis.
func BenchmarkMergeFleet(b *testing.B) {
	for _, c := range []struct{ instances, sites int }{{16, 64}, {32, 24}, {64, 64}} {
		b.Run(fmt.Sprintf("%dx%d", c.instances, c.sites), func(b *testing.B) {
			fleet := fleetEvidence(c.instances, c.sites)
			acc := NewMergeAccumulator(Options{App: "Fleet", Workload: "steady"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset()
				for _, p := range fleet {
					if err := acc.Add(p); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if mergedSink, err = acc.Merge(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mergedSink keeps BenchmarkMergeFleet's result live.
var mergedSink *Profile
