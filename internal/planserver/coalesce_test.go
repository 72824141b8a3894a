package planserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
)

// gateScheduler is an Executor that can hold handed-over merge workers
// back and release them later, making batching observable: uploads
// accepted while the gate is closed are all covered by the single drain
// that runs on release.
type gateScheduler struct {
	mu      sync.Mutex
	closed  bool
	pending []func()
}

func (g *gateScheduler) Go(work func()) {
	g.mu.Lock()
	if g.closed {
		g.pending = append(g.pending, work)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	go work()
}

func (g *gateScheduler) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

func (g *gateScheduler) release() {
	g.mu.Lock()
	pending := g.pending
	g.pending, g.closed = nil, false
	g.mu.Unlock()
	for _, work := range pending {
		go work()
	}
}

// TestCoalescingConcurrentUploads is the pipeline's core contract under
// -race: 64 concurrent uploads for one key are all accepted while no
// merge can run, then a single released drain covers the whole batch.
// The final plan must equal the serial merge of every instance's
// evidence, the batch must cost one merge (not 64), and plans observed
// by concurrent readers must only ever be a complete published version —
// never torn, never older than one batch.
func TestCoalescingConcurrentUploads(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateScheduler{}
	srv := New(store, Options{Executor: gate})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm the key so async uploads have a published plan to respond
	// with; the warm instance's evidence stays in the final merge.
	warmProfile := evidence("Fleet", "burst", site("Fleet.serve:1;Warm.init:2", 3, 7))
	resp := postEvidence(t, ts.URL, "inst-warm", warmProfile)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm upload = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = fetchPlan(t, ts.URL, "Fleet", "burst", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm fetch = %d", resp.StatusCode)
	}
	warmTag := resp.Header.Get("ETag")

	gate.close()

	const uploaders = 64
	profiles := make([]*analyzer.Profile, uploaders)
	for i := range profiles {
		n := uint64(32 + i)
		profiles[i] = evidence("Fleet", "burst",
			site("Fleet.serve:1;Db.put:5", n/4, n-n/4),
			site(fmt.Sprintf("Fleet.serve:1;Worker.tick:%d", 100+i), 2, 14))
	}

	var uploadWg, readerWg sync.WaitGroup
	errs := make(chan error, uploaders+1)
	stopReads := make(chan struct{})
	// A reader hammers GET /v1/plan throughout: every response must be a
	// complete published plan — the warm one or (after release) the batch
	// merge — identified by its ETag and intact JSON body.
	finalTags := make(map[string]bool)
	var finalMu sync.Mutex
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/plan?app=Fleet&workload=burst")
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reader fetch = %d, %v", resp.StatusCode, err)
				return
			}
			var p analyzer.Profile
			if err := json.Unmarshal(body, &p); err != nil {
				errs <- fmt.Errorf("reader saw torn plan: %v", err)
				return
			}
			if tag := resp.Header.Get("ETag"); tag != warmTag {
				finalMu.Lock()
				finalTags[tag] = true
				finalMu.Unlock()
			}
		}
	}()
	for i := 0; i < uploaders; i++ {
		uploadWg.Add(1)
		go func(i int) {
			defer uploadWg.Done()
			resp := postEvidence(t, ts.URL, fmt.Sprintf("inst-%02d", i), profiles[i])
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("upload %d = %d", i, resp.StatusCode)
				return
			}
			// With the gate closed no merge can land, so the response
			// serves the one published plan: the warm version. Anything
			// else means the handler waited on (or ran) a merge.
			if tag := resp.Header.Get("ETag"); tag != warmTag {
				errs <- fmt.Errorf("upload %d responded with ETag %s, want the published %s", i, tag, warmTag)
			}
		}(i)
	}

	// Wait for the uploads with the gate still closed, then release the
	// backlog and let the reader observe the transition too.
	uploadWg.Wait()
	mergesBefore := srv.Metrics().Counter("evidence_merge_total").Value()
	if mergesBefore != 1 {
		t.Fatalf("merges with gate closed = %d, want 1 (the warm upload)", mergesBefore)
	}
	gate.release()
	srv.Flush()
	close(stopReads)
	readerWg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// One drain covered the entire 64-upload backlog.
	merges := srv.Metrics().Counter("evidence_merge_total").Value()
	if merges > 2 {
		t.Fatalf("evidence_merge_total = %d, want ≤2 for a 64-upload batch", merges)
	}
	if got := srv.Metrics().Counter("evidence_upload_total").Value(); got != uploaders+1 {
		t.Fatalf("evidence_upload_total = %d, want %d", got, uploaders+1)
	}
	if got := srv.Metrics().Counter("evidence_coalesced_total").Value(); got < uploaders-1 {
		t.Fatalf("evidence_coalesced_total = %d, want ≥%d", got, uploaders-1)
	}

	// The batched result is byte-identical to the serial merge of every
	// instance's evidence (order-independence end to end).
	want, err := analyzer.MergeProfiles(analyzer.Options{App: "Fleet", Workload: "burst"},
		append([]*analyzer.Profile{warmProfile}, profiles...)...)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, err := newCachedPlan(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := fetchPlan(t, ts.URL, "Fleet", "burst", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final fetch = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != wantPlan.etag {
		t.Fatalf("final plan ETag %s, want serial-merge %s", got, wantPlan.etag)
	}
	if string(body) != string(wantPlan.body) {
		t.Fatalf("final plan body differs from the serial merge")
	}

	// The reader only ever saw two versions: warm and final.
	finalMu.Lock()
	defer finalMu.Unlock()
	for tag := range finalTags {
		if tag != wantPlan.etag {
			t.Fatalf("reader observed plan version %s, want only %s or the warm %s", tag, wantPlan.etag, warmTag)
		}
	}
}

// TestCrossKeyIndependence pins the sharding: a merge stuck on one key
// must not block uploads (or merges) for any other key, and must not even
// block further uploads for its own key — the handler path takes no
// global merge lock and never waits on a running merge.
func TestCrossKeyIndependence(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var scheduled int
	var mu sync.Mutex
	// Block only the first scheduled worker (key A's); everything after
	// runs normally.
	sched := func(work func()) {
		mu.Lock()
		scheduled++
		first := scheduled == 1
		mu.Unlock()
		if first {
			go func() { <-gate; work() }()
			return
		}
		go work()
	}
	srv := New(store, Options{Executor: ExecutorFunc(sched)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Seed both keys and warm their plan caches so async uploads answer
	// without waiting for a first merge.
	warm := make(map[string]string)
	for _, key := range []string{"alpha", "beta"} {
		seeded, err := analyzer.MergeProfiles(analyzer.Options{},
			evidence(key, "w", site("Main.run:1;Init.go:2", 5, 15)))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(seeded); err != nil {
			t.Fatal(err)
		}
		resp, _ := fetchPlan(t, ts.URL, key, "w", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm fetch %s = %d", key, resp.StatusCode)
		}
		warm[key] = resp.Header.Get("ETag")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Key alpha's worker is now stuck behind the gate. Its uploads
		// must still be accepted immediately...
		for i := 0; i < 2; i++ {
			resp := postEvidence(t, ts.URL, fmt.Sprintf("a-%d", i), evidence("alpha", "w",
				site("Main.run:1;Db.put:5", 10, 30)))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("alpha upload %d = %d", i, resp.StatusCode)
			}
		}
		// ... and key beta's whole pipeline — upload AND merge — must run
		// to completion while alpha's merge is blocked.
		resp := postEvidence(t, ts.URL, "b-0", evidence("beta", "w",
			site("Main.run:1;Cache.get:7", 8, 24)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("beta upload = %d", resp.StatusCode)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("uploads blocked behind a stuck merge on another key")
	}
	if t.Failed() {
		t.FailNow()
	}

	// Beta's merge lands (poll: its worker runs concurrently with us);
	// alpha's never does while the gate holds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := fetchPlan(t, ts.URL, "beta", "w", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("beta fetch = %d", resp.StatusCode)
		}
		if resp.Header.Get("ETag") != warm["beta"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("beta plan never moved past its warm version")
		}
		time.Sleep(time.Millisecond)
	}
	if total := storedAllocated(t, store, "beta", "w"); total != 20+32 { // adopted seed evidence + b-0
		t.Fatalf("beta plan allocated = %d, want 52", total)
	}
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 1 {
		t.Fatalf("evidence_merge_total = %d, want 1 (beta only; alpha is gated)", got)
	}

	// Release alpha; its backlog (two uploads) drains in one batch.
	close(gate)
	srv.Flush()
	resp, _ := fetchPlan(t, ts.URL, "alpha", "w", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha fetch after release = %d", resp.StatusCode)
	}
	if total := storedAllocated(t, store, "alpha", "w"); total != 20+40+40 { // adopted seed + a-0 + a-1
		t.Fatalf("alpha plan allocated = %d, want 100", total)
	}
}

// TestSteadyStateNoDiskReads pins the evidence cache: after a key's first
// upload populates it, further uploads merge entirely from memory. The
// test deletes the on-disk evidence log mid-run — uploads keep merging
// correctly anyway, which no re-reading implementation could do.
func TestSteadyStateNoDiskReads(t *testing.T) {
	srv, ts, store := newTestServer(t)
	trace := "Main.run:10;Db.put:5"
	for i, n := range []uint64{100, 200} {
		resp := postEvidence(t, ts.URL, fmt.Sprintf("inst-%d", i), evidence("Cassandra", "WI",
			site(trace, n/4, n-n/4)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm upload %d = %d", i, resp.StatusCode)
		}
	}
	if got := srv.Metrics().Counter("evidence_load_total").Value(); got != 1 {
		t.Fatalf("evidence_load_total after warmup = %d, want 1 (the one scan of the log)", got)
	}

	// Wipe the evidence log. Only the in-memory cache can merge now.
	if err := os.RemoveAll(filepath.Join(store.Dir(), "evidence")); err != nil {
		t.Fatal(err)
	}
	resp := postEvidence(t, ts.URL, "inst-0", evidence("Cassandra", "WI", site(trace, 75, 225)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steady-state replace = %d", resp.StatusCode)
	}
	resp = postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site(trace, 10, 40)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steady-state new instance = %d", resp.StatusCode)
	}

	if resp2, _ := fetchPlan(t, ts.URL, "Cassandra", "WI", ""); resp2.StatusCode != http.StatusOK {
		t.Fatalf("fetch = %d", resp2.StatusCode)
	}
	if total := storedAllocated(t, store, "Cassandra", "WI"); total != 300+200+50 {
		t.Fatalf("merged allocated = %d, want 550 (inst-0 replaced + inst-1 cached + inst-2 new)", total)
	}
	if got := srv.Metrics().Counter("evidence_load_total").Value(); got != 1 {
		t.Fatalf("evidence_load_total = %d, want 1 — steady-state uploads must not read the store's evidence log", got)
	}
	// Plan serving never needed a store load either: every fetch was
	// answered from the merge pipeline's published plan.
	if got := srv.Metrics().Counter("plan_load_total").Value(); got != 0 {
		t.Fatalf("plan_load_total = %d, want 0", got)
	}
}

// TestPlanRebuildFromEvidence: the plan file is a convenience copy and the
// evidence log the durable truth — with the plan file gone (lost publish,
// partial restore), a cold fetch rebuilds the identical plan through the
// merge pipeline and re-persists it.
func TestPlanRebuildFromEvidence(t *testing.T) {
	_, ts, store := newTestServer(t)
	resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 10, 40)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wantTag := resp.Header.Get("ETag")
	if wantTag == "" {
		t.Fatal("upload response missing ETag")
	}
	if err := store.Delete("Cassandra", "WI"); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon over the plan-less store: the cold fetch must serve
	// the merge of the surviving evidence, not a 404.
	srv2 := New(store, Options{Executor: inline})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp2, _ := fetchPlan(t, ts2.URL, "Cassandra", "WI", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cold fetch after plan loss = %d, want 200 (rebuild from evidence)", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got != wantTag {
		t.Fatalf("rebuilt plan ETag %s, want %s", got, wantTag)
	}
	// The rebuild re-persisted the plan file, evidence and all.
	if got := storedSites(t, store, "Cassandra", "WI"); len(got) != 1 || got[0].Allocated != 150 {
		t.Fatalf("rebuilt plan = %+v, want the 150-allocation merge", got)
	}
}

// TestPlanFetch304ZeroAllocs pins the conditional-fetch fast path: once a
// plan is cached, a 304 answer allocates nothing — no query map, no
// header value slices, no metric name building.
func TestPlanFetch304ZeroAllocs(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Executor: inline})
	w := &benchWriter{h: make(http.Header)}
	benchUpload(t, srv, w, "inst-0", benchEvidence(t, "inst-0", 8, 0))
	req := httptest.NewRequest("GET", "/v1/plan?app=Bench&workload=hot", nil)
	w.reset()
	srv.handlePlan(w, req)
	etag := w.h.Get("ETag")
	if w.code != http.StatusOK || etag == "" {
		t.Fatalf("warm fetch = %d, etag %q", w.code, etag)
	}
	req.Header.Set("If-None-Match", etag)

	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		srv.handlePlan(w, req)
		if w.code != http.StatusNotModified {
			t.Fatalf("fetch = %d, want 304", w.code)
		}
	})
	if allocs != 0 {
		t.Fatalf("conditional plan fetch allocates %.1f per request, want 0", allocs)
	}
}

// TestQueryParam checks the allocation-free query parser against the
// stdlib one over the shapes the daemon sees (and a few it shouldn't).
func TestQueryParam(t *testing.T) {
	cases := []string{
		"app=Cassandra&workload=WI",
		"workload=WI&app=Cassandra",
		"app=&workload=WI",
		"app=Cassandra",
		"",
		"app",
		"app=a%20b&workload=w%2Fx",
		"app=a+b&workload=c",
		"application=nope&app=yes",
		"app=first&app=second",
		"workload=only",
		"app=%zz&workload=ok",
	}
	for _, raw := range cases {
		want, err := url.ParseQuery(raw)
		if err != nil {
			// The stdlib rejects the whole string; ours returns "" for the
			// malformed value and must not panic.
			for _, key := range []string{"app", "workload"} {
				queryParam(raw, key)
			}
			continue
		}
		for _, key := range []string{"app", "workload"} {
			if got := queryParam(raw, key); got != want.Get(key) {
				t.Errorf("queryParam(%q, %q) = %q, want %q", raw, key, got, want.Get(key))
			}
		}
	}
}
