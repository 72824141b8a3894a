package fleetclient

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// deadURL returns a URL nothing listens on: a closed listener's address,
// so connections are refused immediately instead of timing out.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	url := ts.URL
	ts.Close()
	return url
}

// A dead primary rotates the client to the live secondary within one
// operation's retry budget, and the client then sticks to the secondary —
// later operations go there directly without re-probing the dead primary.
func TestFailoverOnTransportError(t *testing.T) {
	var hits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		servePlan(w, r, testPlan(2))
	}))
	defer live.Close()

	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: deadURL(t), BaseURLs: []string{live.URL}, Sleep: rec.sleep})
	p, outcome, err := c.FetchPlan("Cassandra", "WI")
	if err != nil || outcome != OutcomeFresh || p.Generations != 2 {
		t.Fatalf("failover fetch = %+v, %v, %v", p, outcome, err)
	}
	// Attempt 1 (dead, slept once) + attempt 2 (live).
	if len(rec.slept()) != 1 || hits.Load() != 1 {
		t.Fatalf("failover took %d sleeps and %d live hits, want 1 and 1", len(rec.slept()), hits.Load())
	}
	// Sticky: the next operation starts at the live endpoint.
	if _, _, err := c.FetchPlan("Cassandra", "WI"); err != nil {
		t.Fatal(err)
	}
	if len(rec.slept()) != 1 {
		t.Fatalf("post-failover fetch slept again: %v", rec.slept())
	}
}

// HTTP-level failures do not rotate: a daemon answering 5xx is alive, and
// the client keeps retrying it rather than abandoning a known endpoint.
func TestNoFailoverOnServerError(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer primary.Close()
	var secondaryHits atomic.Int64
	secondary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		secondaryHits.Add(1)
		servePlan(w, r, testPlan(2))
	}))
	defer secondary.Close()

	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: primary.URL, BaseURLs: []string{secondary.URL}, Sleep: rec.sleep})
	if _, _, err := c.FetchPlan("Cassandra", "WI"); err == nil {
		t.Fatal("all-5xx fetch with no last good plan reported success")
	}
	if secondaryHits.Load() != 0 {
		t.Fatalf("5xx rotated to the secondary (%d hits), want sticky primary", secondaryHits.Load())
	}
}

// With every endpoint down, the rotation wraps and the operation exhausts
// its retries; the last good plan still salvages the fetch.
func TestFailoverFallsBackWhenAllDown(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		servePlan(w, r, testPlan(2))
	}))
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: live.URL, BaseURLs: []string{deadURL(t)}, Sleep: rec.sleep})
	if _, outcome, err := c.FetchPlan("Cassandra", "WI"); err != nil || outcome != OutcomeFresh {
		t.Fatalf("seeding fetch = %v, %v", outcome, err)
	}
	live.Close()
	p, outcome, err := c.FetchPlan("Cassandra", "WI")
	if err != nil || outcome != OutcomeFallback || p.Generations != 2 {
		t.Fatalf("all-down fetch = %+v, %v, %v, want last-good fallback", p, outcome, err)
	}
}

// Evidence uploads carry the client's own sequence number: advanced once
// per upload call, constant across that call's retries, so a replayed
// upload cannot leapfrog a newer one after failover.
func TestUploadSequenceHeader(t *testing.T) {
	var mu sync.Mutex
	var seqs []string
	var fail atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seqs = append(seqs, r.Header.Get(EvidenceSeqHeader))
		mu.Unlock()
		if fail.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		servePlan(w, r, testPlan(1))
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Sleep: rec.sleep})
	if _, err := c.UploadEvidence(testPlan(1)); err != nil {
		t.Fatal(err)
	}
	fail.Store(true) // second upload: one 503, then success on retry
	if _, err := c.UploadEvidence(testPlan(1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 3 {
		t.Fatalf("daemon saw %d uploads, want 3 (1 + retried pair)", len(seqs))
	}
	if seqs[0] != "1" || seqs[1] != "2" || seqs[2] != "2" {
		t.Fatalf("upload sequence headers = %v, want [1 2 2]", seqs)
	}
}

// Failover applies to uploads too: a dead primary's upload lands on the
// secondary with its sequence intact.
func TestUploadFailsOver(t *testing.T) {
	var mu sync.Mutex
	var seqs []string
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seqs = append(seqs, r.Header.Get(EvidenceSeqHeader))
		mu.Unlock()
		servePlan(w, r, testPlan(1))
	}))
	defer live.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: deadURL(t), BaseURLs: []string{live.URL}, Sleep: rec.sleep})
	if _, err := c.UploadEvidence(testPlan(1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 1 || seqs[0] != "1" {
		t.Fatalf("failover upload sequence = %v, want [1]", seqs)
	}
}
