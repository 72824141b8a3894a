package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
)

// TestFleetLoad drives 256 concurrent clients against the daemon: every
// client uploads its own profiling evidence for the same (app, workload)
// — twice, the second a byte-identical replay as a retry after a lost
// response would send — and polls the plan with conditional GETs while
// the merges land. The merged fleet plan must account for every
// instance's evidence exactly once, whatever the arrival order and
// despite the replays — the end-to-end form of MergeProfiles'
// order-independence plus the daemon's replace-per-instance model — and
// the run doubles as the data race stress for the cache, cold-load and
// store paths under -race.
func TestFleetLoad(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	transport := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	const clients = 256
	sharedTrace := "Fleet.serve:1;Db.put:5"
	var wantShared uint64
	for i := 0; i < clients; i++ {
		wantShared += uint64(sharedAllocs(i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := runFleetClient(client, ts.URL, i, sharedTrace); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// The daemon runs the async coalescing pipeline here (the default):
	// uploads return before their merge lands, so drain the pending
	// batches before asserting on the converged plan.
	srv.Flush()

	// The converged plan accounts for every client exactly once.
	stored, err := store.Get("Fleet", "steady")
	if err != nil {
		t.Fatal(err)
	}
	var gotShared uint64
	perClient := 0
	for _, s := range stored.Sites {
		if s.Trace == sharedTrace {
			gotShared = s.Allocated
		} else {
			perClient++
		}
	}
	if gotShared != wantShared {
		t.Fatalf("shared site evidence = %d, want %d (each client counted once)", gotShared, wantShared)
	}
	if perClient != clients {
		t.Fatalf("per-client sites = %d, want %d", perClient, clients)
	}

	// The served plan is the stored (durable) plan's directives.
	resp, err := client.Get(ts.URL + "/v1/plan?app=Fleet&workload=steady")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("final fetch = %d, %v", resp.StatusCode, err)
	}
	var p analyzer.Profile
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 0 || p.InstrumentedSites() != stored.InstrumentedSites() {
		t.Fatalf("served plan has %d sites and %d directives, want 0 and the stored plan's %d",
			len(p.Sites), p.InstrumentedSites(), stored.InstrumentedSites())
	}

	if got := srv.Metrics().Counter("evidence_upload_total").Value(); got != 2*clients {
		t.Fatalf("evidence_upload_total = %d, want %d (each client uploads twice)", got, 2*clients)
	}
	// Merges coalesce: every upload is covered, but concurrent uploads
	// share batches, so the daemon performed no more merges than uploads
	// (and the coalescing counter accounts for the difference exactly).
	mergesDone := srv.Metrics().Counter("evidence_merge_total").Value()
	if mergesDone == 0 || mergesDone > 2*clients {
		t.Fatalf("evidence_merge_total = %d, want within [1, %d]", mergesDone, 2*clients)
	}
	if got := srv.Metrics().Counter("evidence_coalesced_total").Value(); got != 2*clients-mergesDone {
		t.Fatalf("evidence_coalesced_total = %d, want uploads-merges = %d", got, 2*clients-mergesDone)
	}
	if got := srv.Metrics().Counter("evidence_reject_total").Value(); got != 0 {
		t.Fatalf("evidence_reject_total = %d, want 0", got)
	}
}

// sharedAllocs is client i's contribution to the shared allocation site.
func sharedAllocs(i int) int { return 64 + i%17 }

// runFleetClient is one simulated instance: poll, upload evidence, poll
// again with the merged ETag.
func runFleetClient(client *http.Client, baseURL string, i int, sharedTrace string) error {
	// Cold poll; 404 (no plan yet) and 200 are both fine mid-convergence.
	resp, err := client.Get(baseURL + "/v1/plan?app=Fleet&workload=steady")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("cold fetch status %d", resp.StatusCode)
	}

	n := uint64(sharedAllocs(i))
	up := &analyzer.Profile{App: "Fleet", Workload: "steady", Sites: []analyzer.SiteStat{
		{Trace: sharedTrace, Allocated: n, Buckets: []uint64{n / 4, n - n/4}},
		{Trace: fmt.Sprintf("Fleet.serve:1;Worker.tick:%d", 100+i), Allocated: 16, Buckets: []uint64{2, 14}},
	}}
	body, err := json.Marshal(up)
	if err != nil {
		return err
	}
	// Upload twice under the same instance id: the replay stands in for a
	// retry after a lost response and must replace, not double-count.
	var etag string
	for round := 0; round < 2; round++ {
		req, err := http.NewRequest("POST", baseURL+"/v1/evidence", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(InstanceHeader, fmt.Sprintf("inst-%d", i))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("upload round %d status %d: %s", round, resp.StatusCode, msg)
		}
		etag = resp.Header.Get("ETag")
		if etag == "" {
			return fmt.Errorf("upload response missing ETag")
		}
	}

	// Conditional poll: either our merged version is still current (304)
	// or other instances merged past it (200 with a newer ETag).
	req, err := http.NewRequest("GET", baseURL+"/v1/plan?app=Fleet&workload=steady", nil)
	if err != nil {
		return err
	}
	req.Header.Set("If-None-Match", etag)
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("conditional fetch status %d", resp.StatusCode)
	}
	return nil
}
