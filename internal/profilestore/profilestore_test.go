package profilestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/faultio"
)

// sampleProfile is an offline seed as Put stores it: directives plus the
// site evidence they derive from. allocated tells versions apart.
func sampleProfile(app, workload string) *analyzer.Profile {
	return seedProfile(app, workload, 100)
}

func seedProfile(app, workload string, allocated uint64) *analyzer.Profile {
	return &analyzer.Profile{
		App:         app,
		Workload:    workload,
		Generations: 2,
		Allocs: []analyzer.AllocDirective{
			{Loc: "A.m:1", Gen: 2, Direct: true},
		},
		Calls: []analyzer.CallDirective{{Loc: "B.n:2", Gen: 1}},
		Sites: []analyzer.SiteStat{
			{Trace: "B.n:2;A.m:1", Allocated: allocated, Buckets: []uint64{allocated / 10, 0, allocated - allocated/10}, Gen: 2},
		},
	}
}

// allocatedOf is the single site's allocation count of a sample plan.
func allocatedOf(t *testing.T, p *analyzer.Profile) uint64 {
	t.Helper()
	if len(p.Sites) != 1 {
		t.Fatalf("plan has %d sites, want 1", len(p.Sites))
	}
	return p.Sites[0].Allocated
}

// TestPutGetRoundTrip: a stored seed is its key's only evidence document,
// under SeedInstance, and Get returns its plan.
func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seed := sampleProfile("Cassandra", "WI")
	if err := s.Put(seed); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(Key{"Cassandra", "WI"}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(got.Allocs) != 1 {
		t.Fatalf("Get = %+v, want the seed's plan %+v", got, want)
	}
	ev, err := s.Evidence("Cassandra", "WI")
	if err != nil || len(ev) != 1 || !reflect.DeepEqual(ev[SeedInstance], seed) {
		t.Fatalf("Evidence = %+v, %v; want the seed alone under %s", ev, err, SeedInstance)
	}
	if files, _ := filepath.Glob(filepath.Join(s.Dir(), "*.profile.json")); len(files) != 0 {
		t.Fatalf("Put wrote plan files %v", files)
	}
}

func TestPutRequiresLabels(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := sampleProfile("", "")
	if err := s.Put(p); err == nil {
		t.Fatal("unlabeled profile accepted")
	}
}

// TestPutRefusesUnmergeableSeed: a seed is admitted by the plan daemon's
// upload rule. A profile carrying only directives would re-derive an empty
// plan, and a site the merge cannot fold (an unparseable trace) or that
// contradicts itself would fail or skew every merge of its key.
func TestPutRefusesUnmergeableSeed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func(p *analyzer.Profile){
		"no sites":        func(p *analyzer.Profile) { p.Sites = nil },
		"bad trace":       func(p *analyzer.Profile) { p.Sites[0].Trace = "not a trace" },
		"bucket mismatch": func(p *analyzer.Profile) { p.Sites[0].Buckets[0]++ },
		"tainted overflow": func(p *analyzer.Profile) {
			p.Sites[0].Tainted = p.Sites[0].Allocated + 1
		},
	} {
		p := sampleProfile("Cassandra", "WI")
		mangle(p)
		if err := s.Put(p); err == nil {
			t.Errorf("%s: seed accepted", name)
		}
	}
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Fatalf("List after refused Puts = %v, %v", keys, err)
	}
}

// TestOpenRefusesPlanFile: the store reads no *.profile.json, so a
// directory holding one (an older daemon's plan file, or a seed stored
// before seeds were evidence) is refused, naming the file and the fix.
func TestOpenRefusesPlanFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	plan := filepath.Join(dir, "Cassandra__WI-0123abcd.profile.json")
	if err := os.WriteFile(plan, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	var refusal *PlanFileError
	if !errors.As(err, &refusal) || refusal.File != plan {
		t.Fatalf("Open = %v, want a *PlanFileError naming %s", err, plan)
	}
	if !strings.Contains(err.Error(), "polm2-profile -store") {
		t.Fatalf("refusal %q does not say how to re-store the profile", err)
	}
	if err := os.Remove(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("Open after removing the plan file: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("Cassandra", "WI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing profile error = %v, want ErrNotFound", err)
	}
}

func TestListSortsKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{{"Cassandra", "WI"}, {"Cassandra", "RI"}, {"Lucene", "default"}} {
		if err := s.Put(sampleProfile(k.App, k.Workload)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Key{{"Cassandra", "RI"}, {"Cassandra", "WI"}, {"Lucene", "default"}}; !slices.Equal(keys, want) {
		t.Fatalf("List = %v, want %v", keys, want)
	}
}

func TestSelectExactAndFallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleProfile("Cassandra", "WI")); err != nil {
		t.Fatal(err)
	}
	// Exact hit.
	p, err := s.Select("Cassandra", "WI")
	if err != nil || p.Workload != "WI" {
		t.Fatalf("Select exact = %+v, %v", p, err)
	}
	// Single-profile fallback.
	p, err = s.Select("Cassandra", "RI")
	if err != nil || p.Workload != "WI" {
		t.Fatalf("Select fallback = %+v, %v", p, err)
	}
	// Ambiguous fallback fails.
	if err := s.Put(sampleProfile("Cassandra", "WR")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("Cassandra", "RI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ambiguous Select error = %v", err)
	}
	// Unknown app fails.
	if _, err := s.Select("HBase", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown app Select error = %v", err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b c*d"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestSanitizeCollisionKeepsBothKeys is the regression test for the silent
// overwrite bug: "app v1" and "app_v1" sanitize to the same text, and the
// pre-hash naming mapped both to one file.
func TestSanitizeCollisionKeepsBothKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(seedProfile("app v1", "WI", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(seedProfile("app_v1", "WI", 7)); err != nil {
		t.Fatal(err)
	}
	gotA, err := s.Get("app v1", "WI")
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := s.Get("app_v1", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if gotA.App != "app v1" || allocatedOf(t, gotA) != 100 {
		t.Fatalf("first colliding key overwritten: %+v", gotA)
	}
	if gotB.App != "app_v1" || allocatedOf(t, gotB) != 7 {
		t.Fatalf("second colliding key wrong: %+v", gotB)
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("List after colliding Puts = %v, want both keys", keys)
	}
}

// TestConcurrentPutGet exercises the store's mutex under the race detector:
// many goroutines writing and reading disjoint and overlapping keys.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	workloads := []string{"WI", "WR", "RI"}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := workloads[i%len(workloads)]
			for j := 0; j < 20; j++ {
				if err := s.Put(sampleProfile("Cassandra", w)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get("Cassandra", w); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.List(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	keys, err := s.List()
	if err != nil || len(keys) != len(workloads) {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

// TestFaultedWriteKeepsPreviousVersion checks the injected-fault write
// path: a write whose staging file never reaches the directory reports
// success (the fault model's silent loss) and leaves the previous version
// intact.
func TestFaultedWriteKeepsPreviousVersion(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(seedProfile("Cassandra", "WI", 100)); err != nil {
		t.Fatal(err)
	}
	plan, err := faultio.ParseSpec("missing:*.evidence.json")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFault(faultio.New(plan))
	if err := s.Put(seedProfile("Cassandra", "WI", 300)); err != nil {
		t.Fatalf("faulted Put surfaced an error the process could not observe: %v", err)
	}
	s.SetFault(nil)
	got, err := s.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if n := allocatedOf(t, got); n != 100 {
		t.Fatalf("faulted write half-applied: allocated = %d, want the previous 100", n)
	}
}

// TestEvidenceRoundTripAndReplace: per-instance evidence is keyed by
// (app, workload, instance); a re-upload replaces that instance's entry,
// other keys and instances are untouched, and an evidence-only key is
// listed and read as the merge of its latest documents.
func TestEvidenceRoundTripAndReplace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(app, workload string, allocated uint64) *analyzer.Profile {
		return &analyzer.Profile{App: app, Workload: workload, Sites: []analyzer.SiteStat{
			{Trace: "A.m:1", Allocated: allocated, Buckets: []uint64{allocated}},
		}}
	}
	if err := s.PutEvidenceStamped("inst-1", Stamp{}, mk("Cassandra", "WI", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEvidenceStamped("inst-2", Stamp{}, mk("Cassandra", "WI", 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEvidenceStamped("inst-1", Stamp{}, mk("Cassandra", "WR", 7)); err != nil {
		t.Fatal(err)
	}
	// Replacement: inst-1's second WI upload supersedes its first.
	if err := s.PutEvidenceStamped("inst-1", Stamp{}, mk("Cassandra", "WI", 300)); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Evidence("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev["inst-1"].Sites[0].Allocated != 300 || ev["inst-2"].Sites[0].Allocated != 50 {
		t.Fatalf("WI evidence = %+v, want inst-1:300 (replaced) and inst-2:50", ev)
	}
	other, err := s.Evidence("Cassandra", "WR")
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 1 || other["inst-1"].Sites[0].Allocated != 7 {
		t.Fatalf("WR evidence = %+v, want only inst-1:7", other)
	}
	if none, err := s.Evidence("Lucene", "WI"); err != nil || len(none) != 0 {
		t.Fatalf("unknown key evidence = %+v, %v, want empty", none, err)
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Key{{"Cassandra", "WI"}, {"Cassandra", "WR"}}; !slices.Equal(keys, want) {
		t.Fatalf("List = %v, want the evidence keys %v", keys, want)
	}
	plan, err := s.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sites) != 1 || plan.Sites[0].Allocated != 350 {
		t.Fatalf("Get = %+v, want the merge of inst-1:300 and inst-2:50", plan.Sites)
	}
}

// TestEvidenceReadsOnlyItsKey: Evidence and Get read only the key's own
// documents. Another key's unreadable document does not fail them, and a
// key whose longer name shares the stem contributes nothing.
func TestEvidenceReadsOnlyItsKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := Key{App: "Cassandra", Workload: "WI"}
	lookalike := Key{App: "Cassandra", Workload: "WI-" + keyHash(a) + "__x"}
	if !strings.HasPrefix(stem(lookalike), stem(a)+"__") {
		t.Fatalf("stem %s does not extend %s; the look-alike checks nothing", stem(lookalike), stem(a))
	}
	for i, n := range []uint64{100, 50} {
		if err := s.PutEvidenceStamped(fmt.Sprintf("inst-%d", i), Stamp{}, evProfile(a.App, a.Workload, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutEvidenceStamped("inst-0", Stamp{}, evProfile(lookalike.App, lookalike.Workload, 7)); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(s.Dir(), "evidence", "Lucene__default-00000000__inst-0-00000000.evidence.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	ev, err := s.Evidence(a.App, a.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev["inst-0"].Sites[0].Allocated != 100 || ev["inst-1"].Sites[0].Allocated != 50 {
		t.Fatalf("Evidence = %+v, want inst-0:100 and inst-1:50", ev)
	}
	got, err := s.Get(a.App, a.Workload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(a, ev["inst-0"], ev["inst-1"])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, want the merge of the key's two documents %+v", got, want)
	}
	// The whole-store scan reads the damaged document too, and leaves it
	// out as corrupt instead of failing every key.
	all, audit, err := s.EvidenceAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || len(all[a]) != 2 || len(all[lookalike]) != 1 {
		t.Fatalf("EvidenceAll = %v, want both keys' documents", all)
	}
	if audit.Corrupt != 1 || len(audit.Entries) != 4 || audit.err() == nil ||
		!strings.Contains(audit.err().Error(), filepath.Base(garbage)) {
		t.Fatalf("EvidenceAll audit = %+v, want %s reported corrupt", audit, filepath.Base(garbage))
	}
}

// TestGetMergesSeedWithEvidence: a seed is its key's SeedInstance
// document, so the key's plan is the merge of the seed and the fleet's
// evidence; List names every key with evidence once, and Select falls
// back to an evidence-only key. A second Put replaces only the seed.
func TestGetMergesSeedWithEvidence(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{"Lucene", "default"}
	if err := s.Put(seedProfile(k.App, k.Workload, 100)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{k, {"Cassandra", "WI"}} {
		if err := s.PutEvidenceStamped("inst-1", Stamp{}, evProfile(k.App, k.Workload, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(seedProfile(k.App, k.Workload, 60)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k.App, k.Workload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(k, seedProfile(k.App, k.Workload, 60), evProfile(k.App, k.Workload, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, want the merge of the second seed and inst-1 %+v", got, want)
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Key{{"Cassandra", "WI"}, k}; !slices.Equal(keys, want) {
		t.Fatalf("List = %v, want %v", keys, want)
	}
	p, err := s.Select("Cassandra", "RI")
	if err != nil || p.Workload != "WI" || len(p.Sites) != 1 {
		t.Fatalf("Select fallback = %+v, %v, want the evidence-only Cassandra/WI plan", p, err)
	}
}

// TestEvidenceInstanceSanitizeCollision: instance ids that sanitize to
// the same file name ("a b" vs "a_b") must stay distinct entries, the
// same FNV-suffix guarantee the plan files have.
func TestEvidenceInstanceSanitizeCollision(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(allocated uint64) *analyzer.Profile {
		return &analyzer.Profile{App: "A", Workload: "W", Sites: []analyzer.SiteStat{
			{Trace: "A.m:1", Allocated: allocated, Buckets: []uint64{allocated}},
		}}
	}
	if err := s.PutEvidenceStamped("a b", Stamp{}, mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEvidenceStamped("a_b", Stamp{}, mk(2)); err != nil {
		t.Fatal(err)
	}
	ev, err := s.Evidence("A", "W")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev["a b"].Sites[0].Allocated != 1 || ev["a_b"].Sites[0].Allocated != 2 {
		t.Fatalf("colliding instance ids merged on disk: %+v", ev)
	}
}

// TestPutEvidenceValidates: unlabeled or anonymous evidence is refused.
func TestPutEvidenceValidates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := sampleProfile("Cassandra", "WI")
	if err := s.PutEvidenceStamped("", Stamp{}, p); err == nil {
		t.Fatal("empty instance id accepted")
	}
	if err := s.PutEvidenceStamped("inst-1", Stamp{}, &analyzer.Profile{Workload: "WI"}); err == nil {
		t.Fatal("unlabeled evidence accepted")
	}
}

// Rollout documents ride the same atomic-rename path as evidence: they
// round-trip byte-for-byte, never surface as a profile (List), and a
// missing document reports ErrNotFound.
func TestRolloutDocRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rollout("Cassandra", "WI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing rollout doc: err = %v, want ErrNotFound", err)
	}
	doc := []byte(`{"state":"canary","stable_etag":"aa"}`)
	if err := s.PutRollout("Cassandra", "WI", doc); err != nil {
		t.Fatal(err)
	}
	got, err := s.Rollout("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if string(bytes.TrimRight(got, "\n")) != string(doc) {
		t.Fatalf("rollout doc = %q, want %q", got, doc)
	}
	// Distinct keys get distinct documents.
	if err := s.PutRollout("Cassandra", "RI", []byte(`{"state":"stable"}`)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rollout("Cassandra", "WI"); !bytes.Contains(got, []byte("canary")) {
		t.Fatalf("WI doc clobbered by RI write: %q", got)
	}
	// The doc never surfaces as a profile.
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Fatalf("List sees rollout docs: %v, %v", keys, err)
	}
	// Garbage in, error out.
	if err := s.PutRollout("Cassandra", "WI", []byte("{not json")); err == nil {
		t.Fatalf("invalid JSON accepted as rollout doc")
	}
	if err := s.PutRollout("", "WI", doc); err == nil {
		t.Fatalf("empty app accepted for rollout doc")
	}
}
