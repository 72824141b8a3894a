package planserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// inline is an Executor that runs the merge worker on the uploading
// goroutine, so the drain finishes before the handler reads the plan.
var inline = ExecutorFunc(func(work func()) { work() })

func newTestServer(t *testing.T) (*Server, *httptest.Server, *profilestore.Store) {
	t.Helper()
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Inline workers: these tests assert on upload responses (the returned
	// ETag and body must be the merge including the upload itself) and on
	// exact per-upload merge counts. The async default is exercised by the
	// coalescing and fleet-load tests.
	srv := New(store, Options{Executor: inline})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, store
}

// evidence builds one instance's upload: a profile carrying only site
// evidence.
func evidence(app, workload string, sites ...analyzer.SiteStat) *analyzer.Profile {
	return &analyzer.Profile{App: app, Workload: workload, Sites: sites}
}

func site(trace string, buckets ...uint64) analyzer.SiteStat {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	return analyzer.SiteStat{Trace: trace, Allocated: total, Buckets: buckets}
}

func postEvidence(t *testing.T, url, instance string, p *analyzer.Profile) *http.Response {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, instance, body)
}

func postRaw(t *testing.T, url, instance string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/evidence", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if instance != "" {
		req.Header.Set(InstanceHeader, instance)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fetchPlan(t *testing.T, url, app, workload, etag string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/plan?app=%s&workload=%s", url, app, workload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// storedSites reads the merged per-site evidence through the store's Get:
// served plans carry only the directives.
func storedSites(t *testing.T, store *profilestore.Store, app, workload string) []analyzer.SiteStat {
	t.Helper()
	p, err := store.Get(app, workload)
	if err != nil {
		t.Fatal(err)
	}
	return p.Sites
}

// storedAllocated sums the stored plan's per-site allocation counts.
func storedAllocated(t *testing.T, store *profilestore.Store, app, workload string) uint64 {
	t.Helper()
	var total uint64
	for _, s := range storedSites(t, store, app, workload) {
		total += s.Allocated
	}
	return total
}

// storedPlan is the full encoding of the key's plan as the store defines
// it (profilestore.Store.Get): the bytes the daemon's ETag addresses.
func storedPlan(t *testing.T, store *profilestore.Store, app, workload string) []byte {
	t.Helper()
	p, err := store.Get(app, workload)
	if err != nil {
		t.Fatal(err)
	}
	full, err := profilestore.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// etagOf is the ETag the daemon serves a plan's full encoding under.
func etagOf(full []byte) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%x", sha256.Sum256(full)))
}

// noPlanFiles fails the test if the store holds any *.profile.json: the
// daemon writes none.
func noPlanFiles(t *testing.T, store *profilestore.Store) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(store.Dir(), "*.profile.json"))
	if err != nil || len(files) != 0 {
		t.Fatalf("plan files %v (%v) in a store only the daemon wrote", files, err)
	}
}

func TestPlanFetchNotFound(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, _ := fetchPlan(t, ts.URL, "Cassandra", "WI", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch of empty store = %d, want 404", resp.StatusCode)
	}
	resp, _ = fetchPlan(t, ts.URL, "", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fetch without key = %d, want 400", resp.StatusCode)
	}
}

func TestUploadFetchRoundTrip(t *testing.T) {
	srv, ts, store := newTestServer(t)
	resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload = %d", resp.StatusCode)
	}
	mergedETag := resp.Header.Get("ETag")
	resp.Body.Close()
	if mergedETag == "" {
		t.Fatal("upload response missing ETag")
	}

	// Fresh fetch returns the plan with the same ETag.
	resp, body := fetchPlan(t, ts.URL, "Cassandra", "WI", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != mergedETag {
		t.Fatalf("fetch ETag %s != upload ETag %s", got, mergedETag)
	}
	var p analyzer.Profile
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.App != "Cassandra" || p.Workload != "WI" || len(p.Sites) != 0 {
		t.Fatalf("served plan = %+v, want the labels and no per-site evidence", p)
	}
	if got := storedSites(t, store, "Cassandra", "WI"); len(got) != 1 || got[0].Allocated != 100 {
		t.Fatalf("stored evidence = %+v, want one site with 100", got)
	}

	// Conditional refetch with the current ETag is a 304.
	resp, _ = fetchPlan(t, ts.URL, "Cassandra", "WI", mergedETag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional refetch = %d, want 304", resp.StatusCode)
	}

	// A second instance's evidence merges; the ETag moves and the merged
	// evidence is the sum.
	resp = postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 10, 40)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second upload = %d", resp.StatusCode)
	}
	newETag := resp.Header.Get("ETag")
	resp.Body.Close()
	if newETag == mergedETag {
		t.Fatal("merge did not move the ETag")
	}
	resp, body = fetchPlan(t, ts.URL, "Cassandra", "WI", mergedETag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refetch after merge = %d, want 200 (stale ETag)", resp.StatusCode)
	}
	// The plan file holds the merged evidence (the served body is its
	// projection: TestServedPlanIsProjection).
	if got := storedSites(t, store, "Cassandra", "WI"); got[0].Allocated != 150 {
		t.Fatalf("merged evidence = %d, want 150", got[0].Allocated)
	}

	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 2 {
		t.Fatalf("evidence_merge_total = %d, want 2", got)
	}
	if got := srv.Metrics().Counter("plan_not_modified_total").Value(); got != 1 {
		t.Fatalf("plan_not_modified_total = %d, want 1", got)
	}
}

// TestUploadReplacesPerInstance pins the aggregation model: an instance's
// re-upload (a cumulative online re-profile, or a client retrying a lost
// response) replaces its earlier evidence instead of adding to it, so the
// fleet plan counts every instance exactly once however often it syncs.
func TestUploadReplacesPerInstance(t *testing.T) {
	srv, ts, store := newTestServer(t)
	trace := "Main.run:10;Db.put:5"

	fetchAllocated := func() uint64 {
		t.Helper()
		if resp, _ := fetchPlan(t, ts.URL, "Cassandra", "WI", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch = %d", resp.StatusCode)
		}
		return storedAllocated(t, store, "Cassandra", "WI")
	}

	// Instance 1 re-profiles three times, each upload cumulative over the
	// last; only the latest (300) may count.
	for _, n := range []uint64{100, 200, 300} {
		resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI",
			site(trace, n/4, n-n/4)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload of %d = %d", n, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := fetchAllocated(); got != 300 {
		t.Fatalf("after 3 cumulative re-uploads allocated = %d, want 300 (latest only)", got)
	}

	// A second instance adds once...
	resp := postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site(trace, 10, 40)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inst-2 upload = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if got := fetchAllocated(); got != 350 {
		t.Fatalf("after second instance allocated = %d, want 350", got)
	}
	// ... and a byte-identical retry (lost response replay) is a no-op:
	// same total, same ETag.
	resp = postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site(trace, 10, 40)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inst-2 retry = %d", resp.StatusCode)
	}
	retryTag := resp.Header.Get("ETag")
	resp.Body.Close()
	if got := fetchAllocated(); got != 350 {
		t.Fatalf("after retried upload allocated = %d, want 350 (idempotent)", got)
	}
	if retryTag != etag {
		t.Fatalf("retried identical upload moved the ETag: %s -> %s", etag, retryTag)
	}

	// The per-instance evidence is durable: a fresh server over the same
	// store reloads it and keeps replacing, not adding.
	srv2 := New(store, Options{Executor: inline})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp = postEvidence(t, ts2.URL, "inst-1", evidence("Cassandra", "WI", site(trace, 75, 225)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart upload = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, _ := fetchPlan(t, ts2.URL, "Cassandra", "WI", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart fetch = %d", resp.StatusCode)
	}
	if total := storedAllocated(t, store, "Cassandra", "WI"); total != 350 {
		t.Fatalf("post-restart allocated = %d, want 350 (inst-1 replaced, inst-2 kept)", total)
	}
	// Every accepted upload is a merge, replacement or not.
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 5 {
		t.Fatalf("evidence_merge_total = %d, want 5", got)
	}
}

// TestSeedPlanCountsOnce: a plan seeded into the store offline is the
// key's __seed__ evidence, counted once however many instance uploads
// merge around it.
func TestSeedPlanCountsOnce(t *testing.T) {
	_, ts, store := newTestServer(t)
	seeded, err := analyzer.MergeProfiles(analyzer.Options{},
		evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 20, 80)))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(seeded); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI",
			site("Main.run:10;Db.put:5", 10, 40)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, _ := fetchPlan(t, ts.URL, "Cassandra", "WI", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch = %d", resp.StatusCode)
	}
	if got := storedSites(t, store, "Cassandra", "WI"); len(got) != 1 || got[0].Allocated != 150 {
		t.Fatalf("seeded+uploaded evidence = %+v, want one site with 100+50=150", got)
	}
}

// evidenceFiles snapshots the store's evidence log: file name to bytes,
// empty when the directory does not exist.
func evidenceFiles(t *testing.T, store *profilestore.Store) map[string]string {
	t.Helper()
	dir := filepath.Join(store.Dir(), "evidence")
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestReadsNeverWriteSeed: a key whose store holds only a seed (and a
// rollout document mid-canary) is only ever *read* by plan fetches,
// feedback, sync stamp lists and a peer pull's summary compare — none of
// them may write to the evidence log. The key's first accepted upload
// joins the __seed__ document already there.
func TestReadsNeverWriteSeed(t *testing.T) {
	dir := t.TempDir()
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 4, Seed: 42}
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := rolloutServer(t, store, cfg)
	postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site("B.b:2", 9))).Body.Close()
	canary, outside := splitCohort(cfg, "inst-1", "inst-2")
	candidate := planETagFor(t, ts.URL, canary)
	if stable := planETagFor(t, ts.URL, outside); candidate == stable {
		t.Fatalf("no canary staged: both instances see %s", stable)
	}
	// Lose the evidence log and seed its last merge offline: the key is
	// now seed-only (the seed, plus the rollout document holding the open
	// canary).
	seed, err := store.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "evidence")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(seed); err != nil {
		t.Fatal(err)
	}

	// The peer advertises the key with a sum this daemon cannot match, so
	// the pull compares the local sum and reads the peer's stamp list.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery != "" {
			json.NewEncoder(w).Encode(syncStamps{Docs: []syncDocStamp{}})
			return
		}
		json.NewEncoder(w).Encode(syncSummary{Daemon: "daemon-0", Keys: []syncKeySummary{{
			App: "Cassandra", Workload: "WI", Docs: 1,
		}}})
	}))
	defer peer.Close()
	store2, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(store2, Options{Executor: inline, Rollout: &cfg, SelfID: "daemon-1", Peers: []string{peer.URL}})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	before := evidenceFiles(t, store2)
	planETagFor(t, ts2.URL, canary)
	planETagFor(t, ts2.URL, outside)
	if resp := postFeedback(t, ts2.URL, canary, feedbackReport(candidate, 10*time.Millisecond)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("feedback = %d, want 204", resp.StatusCode)
	}
	if docs := fetchStamps(t, ts2.URL, "Cassandra", "WI"); len(docs) != 0 {
		t.Fatalf("plan-only key lists stamps %+v", docs)
	}
	fetchSummary(t, ts2.URL)
	srv2.SyncPeers()
	if v := srv2.Metrics().Counter("peer_sync_error_total").Value(); v != 0 {
		t.Fatalf("peer pull failed %d times", v)
	}
	if after := evidenceFiles(t, store2); !reflect.DeepEqual(after, before) {
		t.Fatalf("reads changed the evidence log: %d files before, %d after", len(before), len(after))
	}

	// The first write joins the seed.
	postEvidence(t, ts2.URL, "inst-3", evidence("Cassandra", "WI", site("C.c:3", 4))).Body.Close()
	ev, err := store2.Evidence("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev[profilestore.SeedInstance] == nil || ev["inst-3"] == nil {
		t.Fatalf("after the first upload the log holds %d documents, want __seed__ and inst-3", len(ev))
	}
}

// TestEvidenceLogReadOnce: a restarted daemon reads its evidence log in
// one scan, however many keys it then serves — uploads to every key, the
// sync summary and every key's stamp list all come from that scan.
func TestEvidenceLogReadOnce(t *testing.T) {
	const keys, instances = 4, 8
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := httptest.NewServer(New(store, Options{Executor: inline, SelfID: "daemon-0"}))
	for k := 0; k < keys; k++ {
		for i := 0; i < instances; i++ {
			postEvidence(t, first.URL, fmt.Sprintf("inst-%d", i), evidence(fmt.Sprintf("App%d", k), "w", site("A.a:1", 5))).Body.Close()
		}
	}
	first.Close()

	srv := New(store, Options{Executor: inline, SelfID: "daemon-0"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for k := 0; k < keys; k++ {
		resp := postEvidence(t, ts.URL, "inst-new", evidence(fmt.Sprintf("App%d", k), "w", site("A.a:1", 6)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload to App%d = %d", k, resp.StatusCode)
		}
	}
	if sum := fetchSummary(t, ts.URL); len(sum.Keys) != keys {
		t.Fatalf("summary lists %d keys, want %d", len(sum.Keys), keys)
	}
	for k := 0; k < keys; k++ {
		if docs := fetchStamps(t, ts.URL, fmt.Sprintf("App%d", k), "w"); len(docs) != instances+1 {
			t.Fatalf("App%d stamp list has %d documents, want %d", k, len(docs), instances+1)
		}
	}
	if got := srv.Metrics().Counter("evidence_load_total").Value(); got != 1 {
		t.Fatalf("evidence_load_total = %d, want 1 (one scan of the log per daemon lifetime)", got)
	}
}

// admissibleEvidence is an evidence document the daemon admits for key A/W.
const admissibleEvidence = `{"app":"A","workload":"W","generations":0,"sites":[{"trace":"A.m:1","allocated":1,"buckets":[1],"gen":0}]}`

// refusedEvidence lists evidence documents, each under the instance id it
// is sent with, that the daemon must refuse for key A/W by upload
// (TestUploadRejections) and by peer pull alike
// (TestPeerPullRefusesUploadRejections).
var refusedEvidence = []struct{ name, instance, body string }{
	{"not json", "inst-1", "{"},
	{"unlabeled", "inst-1", `{"generations":0}`},
	{"bucket mismatch", "inst-1", `{"app":"A","workload":"W","generations":0,"sites":[{"trace":"A.m:1","allocated":10,"buckets":[1,2],"gen":0}]}`},
	{"tainted overflow", "inst-1", `{"app":"A","workload":"W","generations":0,"sites":[{"trace":"A.m:1","allocated":3,"buckets":[1,2],"gen":0,"tainted":5}]}`},
	{"bad trace", "inst-1", `{"app":"A","workload":"W","generations":0,"sites":[{"trace":"nope","allocated":1,"buckets":[1],"gen":0}]}`},
	{"invalid directive", "inst-1", `{"app":"A","workload":"W","generations":0,"allocs":[{"loc":"A.m:1","gen":5,"direct":true}]}`},
	{"missing instance id", "", admissibleEvidence},
	{"oversized instance id", strings.Repeat("x", 129), admissibleEvidence},
}

func TestUploadRejections(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	for _, tc := range refusedEvidence {
		resp := postRaw(t, ts.URL, tc.instance, []byte(tc.body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := srv.Metrics().Counter("evidence_reject_total").Value(); got != uint64(len(refusedEvidence)) {
		t.Fatalf("evidence_reject_total = %d, want %d", got, len(refusedEvidence))
	}
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 0 {
		t.Fatalf("evidence_merge_total = %d, want 0", got)
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	fetchPlan(t, ts.URL, "Cassandra", "WI", "") // a 404 miss, to move counters
	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"plan_fetch_total 1", "plan_miss_total 1", "evidence_merge_total 0"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metricsz missing %q:\n%s", want, body)
		}
	}
}

// TestPlanMergeLatencyCountsPasses: plan_merge_latency observes every merge
// worker pass once, timed on Options.Now, and nothing else — so its count
// is evidence_merge_total on a daemon without store errors.
func TestPlanMergeLatencyCountsPasses(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Every clock read advances one millisecond: a pass reads it twice.
	var now atomic.Int64
	srv := New(store, Options{Executor: inline, Now: func() time.Duration { return time.Duration(now.Add(int64(time.Millisecond))) }})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, inst := range []string{"inst-1", "inst-2", "inst-1"} {
		resp := postEvidence(t, ts.URL, inst, evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, uint64(95+i))))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d = %d", i, resp.StatusCode)
		}
	}
	fetchPlan(t, ts.URL, "Cassandra", "WI", "")
	hist := srv.Metrics().Histogram("plan_merge_latency", nil)
	merges := srv.Metrics().Counter("evidence_merge_total").Value()
	if merges != 3 || hist.Count() != merges {
		t.Fatalf("plan_merge_latency counts %d passes, evidence_merge_total %d, want 3 and 3", hist.Count(), merges)
	}
	if hist.Sum() != 3*time.Millisecond {
		t.Fatalf("plan_merge_latency sum = %v, want 3 passes of 1ms", hist.Sum())
	}
}

// TestSingleFlightLoads checks that concurrent cold fetches of one key
// produce exactly one store load.
func TestSingleFlightLoads(t *testing.T) {
	srv, ts, store := newTestServer(t)
	prof := evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, 95))
	merged, err := analyzer.MergeProfiles(analyzer.Options{}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(merged); err != nil {
		t.Fatal(err)
	}
	const fetchers = 32
	var wg sync.WaitGroup
	errs := make(chan error, fetchers)
	start := make(chan struct{})
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/v1/plan?app=Cassandra&workload=WI")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All fetchers served from one store load: the cold load runs under
	// the shard lock, so every other fetcher finds the plan it installed.
	if loads := srv.Metrics().Counter("plan_load_total").Value(); loads != 1 {
		t.Fatalf("plan_load_total = %d, want exactly 1", loads)
	}
	if got := srv.Metrics().Counter("plan_fetch_total").Value(); got != fetchers {
		t.Fatalf("plan_fetch_total = %d, want %d", got, fetchers)
	}
}

// rolloutDocSHA256 pins the rollout document TestServedPlanIsProjection
// writes. It embeds full plan encodings, whose bytes do not depend on what
// the daemon serves, so the document must not move with the wire format.
const rolloutDocSHA256 = "83b8ecfbb28e4d69b93195c2e29a68d6bcba7b36bfe65b875055bd439363a3be"

// TestServedPlanIsProjection pins the wire plan: on every path that
// publishes a plan — an upload's 200, a fetch's 200, a cold rebuild from
// the evidence, a restore from the rollout document — the body is the
// plan's profile without its per-site evidence (compact JSON and a
// newline), and the ETag is the SHA-256 of the plan's full encoding.
func TestServedPlanIsProjection(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withRollout := Options{Executor: inline, Rollout: &rollout.Config{}}
	srv := New(store, withRollout)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plan := func() []byte {
		t.Helper()
		return storedPlan(t, store, "Cassandra", "WI")
	}
	check := func(what string, full []byte, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", what, resp.StatusCode)
		}
		var p analyzer.Profile
		if err := json.Unmarshal(full, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Sites) == 0 {
			t.Fatalf("%s: the plan carries no per-site evidence; the check is vacuous", what)
		}
		p.Sites = nil
		want, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Fatalf("%s body is not the plan's projection:\n%s\nwant\n%s", what, body, want)
		}
		if tag, want := resp.Header.Get("ETag"), etagOf(full); tag != want {
			t.Fatalf("%s ETag %s, want the plan's %s", what, tag, want)
		}
	}
	upload := func(instance string, p *analyzer.Profile) (*http.Response, []byte) {
		t.Helper()
		resp := postEvidence(t, ts.URL, instance, p)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// The key's first merge is adopted as the stable plan: the upload and
	// a fetch both serve it.
	resp, body := upload("inst-1", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95), site("Main.run:10;Log.add:7", 90, 10)))
	check("upload", plan(), resp, body)
	resp, body = fetchPlan(t, ts.URL, "Cassandra", "WI", "")
	check("fetch", plan(), resp, body)

	// A second merge opens a canary: the rollout document now embeds both
	// plans, and the evidence's merge is the candidate.
	resp, _ = upload("inst-2", evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 1, 9)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second upload = %d", resp.StatusCode)
	}
	docBytes, err := store.Rollout("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(docBytes)); got != rolloutDocSHA256 {
		t.Errorf("rollout document sha256 = %s, want %s:\n%s", got, rolloutDocSHA256, docBytes)
	}
	var doc rolloutDoc
	if err := json.Unmarshal(docBytes, &doc); err != nil {
		t.Fatal(err)
	}
	var stableFile bytes.Buffer
	if err := json.Compact(&stableFile, doc.Stable); err != nil {
		t.Fatal(err)
	}
	stableFile.WriteByte('\n')
	if len(doc.Candidate) == 0 {
		t.Fatal("rollout document embeds no candidate; the second merge opened no canary")
	}

	// A restarted rollout daemon serves stable from the rollout document,
	// without rebuilding the evidence's merge (the candidate).
	restored := New(store, withRollout)
	ts2 := httptest.NewServer(restored)
	defer ts2.Close()
	resp, body = fetchPlan(t, ts2.URL, "Cassandra", "WI", "")
	check("restored fetch", stableFile.Bytes(), resp, body)
	if got := restored.Metrics().Counter("plan_load_total").Value(); got != 0 {
		t.Fatalf("plan_load_total = %d after a rollout restore, want 0", got)
	}

	// A restarted daemon without rollout rebuilds the plan cold.
	cold := New(store, Options{Executor: inline})
	ts3 := httptest.NewServer(cold)
	defer ts3.Close()
	resp, body = fetchPlan(t, ts3.URL, "Cassandra", "WI", "")
	check("cold fetch", plan(), resp, body)
	if got := cold.Metrics().Counter("plan_load_total").Value(); got != 1 {
		t.Fatalf("plan_load_total = %d after a cold fetch, want 1", got)
	}
}

// TestPublishedPlanKeepsOnlyServedBody: with rollout off a published plan
// holds its served body and ETag but not its full encoding, and both
// derive from the plan the store defines (Get); with rollout on, whose
// documents embed full encodings, a restart restores the stable and
// candidate plans byte-identical. Neither daemon writes a plan file.
func TestPublishedPlanKeepsOnlyServedBody(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, wl := range []string{"WI", "RI"} {
		for i := 0; i < 4; i++ {
			resp := postEvidence(t, ts.URL, fmt.Sprintf("inst-%d", i), evidence("Cassandra", wl,
				site("Main.run:10;Db.put:5", 5, uint64(95+i)), site(fmt.Sprintf("Main.run:%d;Log.add:7", 11+i), 90, 10)))
			resp.Body.Close()
		}
	}
	srv.Flush()
	published := 0
	srv.eachShard(func(sh *shard) {
		if sh.plan == nil {
			t.Fatalf("%s: no plan published after Flush", sh.key)
		}
		published++
		if sh.plan.full != nil {
			t.Fatalf("%s: the published plan keeps %d bytes of its full encoding with rollout off", sh.key, len(sh.plan.full))
		}
		full := storedPlan(t, store, sh.key.App, sh.key.Workload)
		if want := etagOf(full); sh.plan.etag != want {
			t.Fatalf("%s: ETag %s, want the stored plan's %s", sh.key, sh.plan.etag, want)
		}
		var p analyzer.Profile
		if err := json.Unmarshal(full, &p); err != nil {
			t.Fatal(err)
		}
		p.Sites = nil
		want, err := profilestore.Encode(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sh.plan.body, want) {
			t.Fatalf("%s: body is not the stored plan's projection:\n%s\nwant\n%s", sh.key, sh.plan.body, want)
		}
	})
	if published != 2 {
		t.Fatalf("%d keys published, want 2", published)
	}
	noPlanFiles(t, store)
	resp, body := fetchPlan(t, ts.URL, "Cassandra", "RI", "")
	srv.peekShard(profilestore.Key{App: "Cassandra", Workload: "RI"}, func(sh *shard) {
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, sh.plan.body) || resp.Header.Get("ETag") != sh.plan.etag {
			t.Fatalf("fetch = %d %s %s, want 200 with the published body under %s", resp.StatusCode, resp.Header.Get("ETag"), body, sh.plan.etag)
		}
	})

	// Rollout on: a second merge opens a canary, and a restarted daemon
	// restores both plans from the rollout document.
	rstore, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withRollout := Options{Executor: inline, Rollout: &rollout.Config{}}
	key := profilestore.Key{App: "Cassandra", Workload: "WI"}
	first := New(rstore, withRollout)
	ts1 := httptest.NewServer(first)
	defer ts1.Close()
	postEvidence(t, ts1.URL, "inst-1", evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, 95))).Body.Close()
	postEvidence(t, ts1.URL, "inst-2", evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 90, 10))).Body.Close()
	first.Flush()
	noPlanFiles(t, rstore)
	var stable, cand cachedPlan
	first.peekShard(key, func(sh *shard) {
		if sh.plan == nil || sh.cand == nil || len(sh.plan.full) == 0 || len(sh.cand.full) == 0 {
			t.Fatal("rollout daemon holds no stable and candidate plan encodings after two merges")
		}
		stable, cand = *sh.plan, *sh.cand
	})
	if want := etagOf(storedPlan(t, rstore, key.App, key.Workload)); cand.etag != want {
		t.Fatalf("candidate ETag %s, want the stored plan's %s", cand.etag, want)
	}
	restarted := New(rstore, withRollout)
	ts2 := httptest.NewServer(restarted)
	defer ts2.Close()
	if resp, _ := fetchPlan(t, ts2.URL, "Cassandra", "WI", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted fetch = %d", resp.StatusCode)
	}
	restarted.peekShard(key, func(sh *shard) {
		for _, c := range []struct {
			what      string
			got, want *cachedPlan
		}{{"stable", sh.plan, &stable}, {"candidate", sh.cand, &cand}} {
			if c.got == nil || c.got.etag != c.want.etag || !bytes.Equal(c.got.full, c.want.full) || !bytes.Equal(c.got.body, c.want.body) {
				t.Fatalf("restored %s plan differs from the one published before the restart", c.what)
			}
		}
	})
}
