package profilestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/faultio"
)

func sampleProfile(app, workload string) *analyzer.Profile {
	return &analyzer.Profile{
		App:         app,
		Workload:    workload,
		Generations: 2,
		Allocs: []analyzer.AllocDirective{
			{Loc: "A.m:1", Gen: 2, Direct: true},
		},
		Calls: []analyzer.CallDirective{{Loc: "B.n:2", Gen: 1}},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleProfile("Cassandra", "WI")
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "Cassandra" || got.Workload != "WI" || len(got.Allocs) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// TestPutBytesIsTheFile: PutBytes returns exactly the bytes it stored —
// the profile's compact JSON and a newline, which the daemon serves as the
// plan body without encoding again.
func TestPutBytesIsTheFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := sampleProfile("Cassandra", "WI")
	data, err := s.PutBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(compact, '\n'); !bytes.Equal(data, want) {
		t.Fatalf("PutBytes = %s, want compact JSON and a newline %s", data, want)
	}
	onDisk, err := os.ReadFile(s.path(Key{App: "Cassandra", Workload: "WI"}))
	if err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("stored file %q (%v) differs from the returned bytes %q", onDisk, err, data)
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

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("Cassandra", "WI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing profile error = %v, want ErrNotFound", err)
	}
}

func TestListAndDelete(t *testing.T) {
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
	if len(keys) != 3 {
		t.Fatalf("List = %v", keys)
	}
	if keys[0].String() != "Cassandra/RI" {
		t.Fatalf("List not sorted: %v", keys)
	}
	if err := s.Delete("Cassandra", "WI"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("Cassandra", "WI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete error = %v", err)
	}
	keys, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("after delete List = %v", keys)
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
	a := sampleProfile("app v1", "WI")
	b := sampleProfile("app_v1", "WI")
	a.Generations, b.Generations = 2, 1
	a.Calls, b.Calls = nil, nil
	a.Allocs = []analyzer.AllocDirective{{Loc: "A.m:1", Gen: 2, Direct: true}}
	b.Allocs = []analyzer.AllocDirective{{Loc: "B.n:2", Gen: 1, Direct: true}}
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
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
	if gotA.App != "app v1" || gotA.Generations != 2 {
		t.Fatalf("first colliding key overwritten: %+v", gotA)
	}
	if gotB.App != "app_v1" || gotB.Generations != 1 {
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
	first := sampleProfile("Cassandra", "WI")
	if err := s.Put(first); err != nil {
		t.Fatal(err)
	}
	plan, err := faultio.ParseSpec("missing:*.profile.json")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFault(faultio.New(plan))
	second := sampleProfile("Cassandra", "WI")
	second.Generations = 3
	second.Allocs = []analyzer.AllocDirective{{Loc: "A.m:1", Gen: 3, Direct: true}}
	second.Calls = nil
	if err := s.Put(second); err != nil {
		t.Fatalf("faulted Put surfaced an error the process could not observe: %v", err)
	}
	s.SetFault(nil)
	got, err := s.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generations != 2 {
		t.Fatalf("faulted write half-applied: generations = %d, want the previous 2", got.Generations)
	}
}

// TestEvidenceRoundTripAndReplace: per-instance evidence is keyed by
// (app, workload, instance); a re-upload replaces that instance's entry,
// other keys and instances are untouched, and List/Audit (which feed the
// plan-serving paths and polm2-inspect) never see evidence files.
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
	// Evidence must not masquerade as stored plans.
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("List sees evidence entries as plans: %v", keys)
	}
	if _, err := s.Get("Cassandra", "WI"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get found a plan where only evidence exists: %v", err)
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

// Rollout documents ride the same atomic-rename path as profiles: they
// round-trip byte-for-byte, stay invisible to *.profile.json consumers
// (List), and a missing document reports ErrNotFound.
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
