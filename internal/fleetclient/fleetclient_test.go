package fleetclient

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/rollout"
)

func testPlan(gen int) *analyzer.Profile {
	return &analyzer.Profile{
		App: "Cassandra", Workload: "WI", Generations: gen,
		Allocs: []analyzer.AllocDirective{{Loc: "A.m:1", Gen: gen, Direct: true}},
	}
}

// servePlan writes p with a version-derived ETag, honouring If-None-Match.
func servePlan(w http.ResponseWriter, r *http.Request, p *analyzer.Profile) {
	etag := fmt.Sprintf("%q", fmt.Sprintf("gen-%d", p.Generations))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p)
}

// sleepRecorder captures every backoff delay instead of sleeping.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(d time.Duration) {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) slept() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.delays...)
}

func newClient(t *testing.T, opts Options) *Client {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBackoffDeterministicForSeed proves the retry schedule is a pure
// function of (seed, operation, sequence, attempt): same seed, same
// schedule; different seed, different jitter; delays grow exponentially
// within the equal-jitter envelope and cap at maxDelay.
func TestBackoffDeterministicForSeed(t *testing.T) {
	opts := Options{BaseURL: "http://unused", Seed: 42}
	a := newClient(t, opts)
	b := newClient(t, opts)
	schedA := a.RetrySchedule("fetch", 0)
	schedB := b.RetrySchedule("fetch", 0)
	if len(schedA) != maxAttempts-1 {
		t.Fatalf("schedule length = %d, want maxAttempts-1 = %d", len(schedA), maxAttempts-1)
	}
	for i := range schedA {
		if schedA[i] != schedB[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, schedA[i], schedB[i])
		}
	}
	// Envelope: delay i sits in [d/2, d] for d = min(baseDelay << i,
	// maxDelay) — past the schedule too, where the cap binds (i ≥ 6).
	for i := 0; i < 8; i++ {
		got := a.backoff("fetch", 0, i)
		d := baseDelay << i
		if d > maxDelay {
			d = maxDelay
		}
		if got < d/2 || got > d {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i, got, d/2, d)
		}
	}
	// A different seed jitters differently somewhere in the schedule.
	opts.Seed = 43
	schedC := newClient(t, opts).RetrySchedule("fetch", 0)
	same := true
	for i := range schedA {
		if schedA[i] != schedC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical jitter schedules")
	}
	// Distinct operations of the same kind decorrelate too.
	seq1 := a.RetrySchedule("fetch", 1)
	same = true
	for i := range schedA {
		if schedA[i] != seq1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("operations 0 and 1 share a jitter schedule")
	}
}

// TestFetchFallsBackToLastGood: after a successful fetch, the daemon goes
// down; the client retries its full deterministic schedule, then serves
// the last good plan.
func TestFetchFallsBackToLastGood(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "maintenance", http.StatusServiceUnavailable)
			return
		}
		servePlan(w, r, testPlan(2))
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Seed: 7, Sleep: rec.sleep})
	p, outcome, err := c.FetchPlan("Cassandra", "WI")
	if err != nil || outcome != OutcomeFresh || p.Generations != 2 {
		t.Fatalf("healthy fetch = %+v, %v, %v", p, outcome, err)
	}
	// Still healthy: the conditional refetch is a 304 backed by the cache.
	p, outcome, err = c.FetchPlan("Cassandra", "WI")
	if err != nil || outcome != OutcomeNotModified || p.Generations != 2 {
		t.Fatalf("conditional fetch = %+v, %v, %v", p, outcome, err)
	}
	if len(rec.slept()) != 0 {
		t.Fatalf("healthy fetches slept: %v", rec.slept())
	}

	down.Store(true)
	p, outcome, err = c.FetchPlan("Cassandra", "WI")
	if err != nil {
		t.Fatalf("fallback fetch errored: %v", err)
	}
	if outcome != OutcomeFallback || p.Generations != 2 {
		t.Fatalf("fallback fetch = %+v, %v", p, outcome)
	}
	// The retries slept exactly the deterministic schedule of operation 2
	// (ops 0 and 1 were the healthy fetches).
	want := c.RetrySchedule("fetch", 2)
	got := rec.slept()
	if len(got) != len(want) {
		t.Fatalf("slept %d times, want %d (full retry schedule)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFetchErrorsWithNoFallback: an unreachable daemon with no last good
// plan is a hard error after the bounded retries.
func TestFetchErrorsWithNoFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Seed: 7, Sleep: rec.sleep})
	if _, _, err := c.FetchPlan("Cassandra", "WI"); err == nil {
		t.Fatal("unreachable daemon with no fallback returned a plan")
	}
	if len(rec.slept()) != maxAttempts-1 {
		t.Fatalf("slept %d times, want maxAttempts-1 = %d", len(rec.slept()), maxAttempts-1)
	}
}

// TestFetchNoPlanIsPermanent: 404 means "no plan yet" — no retries, no
// error, no fallback.
func TestFetchNoPlanIsPermanent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no plan", http.StatusNotFound)
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Sleep: rec.sleep})
	p, outcome, err := c.FetchPlan("Cassandra", "WI")
	if err != nil || p != nil || outcome != OutcomeNoPlan {
		t.Fatalf("no-plan fetch = %+v, %v, %v", p, outcome, err)
	}
	if len(rec.slept()) != 0 {
		t.Fatalf("404 retried: slept %v", rec.slept())
	}
}

// TestUploadCarriesStableInstanceID: every evidence upload carries the
// client's instance id — the identity the daemon replaces evidence per —
// derived deterministically from the seed, stable across uploads and
// restarts, decorrelated across seeds, and overridable.
func TestUploadCarriesStableInstanceID(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(InstanceHeader))
		mu.Unlock()
		servePlan(w, r, testPlan(1))
	}))
	defer ts.Close()
	c := newClient(t, Options{BaseURL: ts.URL, Seed: 5})
	if c.InstanceID() == "" {
		t.Fatal("client derived no instance id")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.UploadEvidence(testPlan(1)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := append([]string(nil), seen...)
	mu.Unlock()
	if len(got) != 2 || got[0] != c.InstanceID() || got[1] != c.InstanceID() {
		t.Fatalf("uploads carried instance ids %v, want stable %q", got, c.InstanceID())
	}
	// Same seed, same identity (a restarted instance keeps replacing its
	// own evidence); different seeds decorrelate; an explicit id wins.
	if same := newClient(t, Options{BaseURL: ts.URL, Seed: 5}); same.InstanceID() != c.InstanceID() {
		t.Fatalf("seed 5 re-derived %q, want %q", same.InstanceID(), c.InstanceID())
	}
	if other := newClient(t, Options{BaseURL: ts.URL, Seed: 6}); other.InstanceID() == c.InstanceID() {
		t.Fatalf("seeds 5 and 6 share instance id %q", c.InstanceID())
	}
	if explicit := newClient(t, Options{BaseURL: ts.URL, Seed: 5, InstanceID: "rack-7"}); explicit.InstanceID() != "rack-7" {
		t.Fatalf("explicit instance id not honoured: %q", explicit.InstanceID())
	}
}

// TestFetchPlanEscapesKey: (app, workload) are arbitrary strings, so the
// plan query must be URL-encoded — '&', '=', '#', spaces and non-ASCII
// must arrive at the server intact.
func TestFetchPlanEscapesKey(t *testing.T) {
	var mu sync.Mutex
	var gotApp, gotWorkload string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotApp = r.URL.Query().Get("app")
		gotWorkload = r.URL.Query().Get("workload")
		mu.Unlock()
		servePlan(w, r, testPlan(1))
	}))
	defer ts.Close()
	c := newClient(t, Options{BaseURL: ts.URL})
	app, workload := "my app&v=1", "write#heavy 50%é"
	if _, _, err := c.FetchPlan(app, workload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotApp != app || gotWorkload != workload {
		t.Fatalf("server saw (%q, %q), want (%q, %q)", gotApp, gotWorkload, app, workload)
	}
}

// TestUploadRejectionIsPermanent: a 400 reject must not burn retries.
func TestUploadRejectionIsPermanent(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "rejected evidence", http.StatusBadRequest)
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Sleep: rec.sleep})
	if _, err := c.UploadEvidence(testPlan(1)); err == nil {
		t.Fatal("rejected upload reported success")
	}
	if hits.Load() != 1 || len(rec.slept()) != 0 {
		t.Fatalf("rejected upload retried: %d hits, slept %v", hits.Load(), rec.slept())
	}
}

// TestSyncEvidenceFallsBack: when the daemon cannot be reached mid-run,
// SyncEvidence serves the last good plan (fresh=false) instead of failing
// the re-profile.
func TestSyncEvidenceFallsBack(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "maintenance", http.StatusServiceUnavailable)
			return
		}
		servePlan(w, r, testPlan(3))
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Seed: 9, Sleep: rec.sleep})

	merged, fresh, err := c.SyncEvidence(testPlan(1))
	if err != nil || !fresh || merged.Generations != 3 {
		t.Fatalf("healthy sync = %+v, %v, %v", merged, fresh, err)
	}
	down.Store(true)
	merged, fresh, err = c.SyncEvidence(testPlan(1))
	if err != nil {
		t.Fatalf("fallback sync errored: %v", err)
	}
	if fresh || merged.Generations != 3 {
		t.Fatalf("fallback sync = %+v, fresh=%v", merged, fresh)
	}
	// With no last good plan at all, the error surfaces.
	c2 := newClient(t, Options{BaseURL: ts.URL, Sleep: rec.sleep})
	if _, _, err := c2.SyncEvidence(testPlan(1)); err == nil {
		t.Fatal("sync with no fallback reported success")
	}
}

// Plan fetches carry the instance id so a rollout-enabled daemon can
// route the fetcher to its cohort's plan.
func TestFetchCarriesInstanceID(t *testing.T) {
	var gotInstance atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotInstance.Store(r.Header.Get(InstanceHeader))
		servePlan(w, r, testPlan(1))
	}))
	defer ts.Close()
	c := newClient(t, Options{BaseURL: ts.URL, InstanceID: "inst-42"})
	if _, _, err := c.FetchPlan("Cassandra", "WI"); err != nil {
		t.Fatal(err)
	}
	if got := gotInstance.Load(); got != "inst-42" {
		t.Fatalf("fetch carried instance %q, want inst-42", got)
	}
}

// ReportFeedback stamps the instance id and the last-good ETag, skips
// silently when no plan version is known, and treats 4xx as permanent.
func TestReportFeedback(t *testing.T) {
	var mu sync.Mutex
	var gotInstance, gotETag string
	var posts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plan" {
			servePlan(w, r, testPlan(3))
			return
		}
		mu.Lock()
		posts++
		gotInstance = r.Header.Get(InstanceHeader)
		var rep rollout.Report
		json.NewDecoder(r.Body).Decode(&rep)
		gotETag = rep.ETag
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, InstanceID: "inst-7", Sleep: rec.sleep})

	rep := &rollout.Report{
		App: "Cassandra", Workload: "WI",
		WindowEnd: time.Second, Pauses: 4,
		PauseP50: time.Millisecond, PauseP99: 2 * time.Millisecond,
	}
	// No plan fetched yet: nothing to attribute the window to.
	if sent, err := c.ReportFeedback(rep); sent || err != nil {
		t.Fatalf("pre-plan feedback: sent=%v err=%v, want skipped", sent, err)
	}
	if _, _, err := c.FetchPlan("Cassandra", "WI"); err != nil {
		t.Fatal(err)
	}
	sent, err := c.ReportFeedback(rep)
	if !sent || err != nil {
		t.Fatalf("feedback: sent=%v err=%v", sent, err)
	}
	mu.Lock()
	if gotInstance != "inst-7" || gotETag != c.LastETag() || posts != 1 {
		t.Fatalf("daemon saw instance=%q etag=%q posts=%d, want inst-7/%s/1", gotInstance, gotETag, posts, c.LastETag())
	}
	mu.Unlock()
	// An invalid report is the caller's bug, reported without a request.
	bad := *rep
	bad.Pauses = -1
	if _, err := c.ReportFeedback(&bad); err == nil {
		t.Fatal("invalid report accepted")
	}
}

func TestReportFeedbackRejectionIsPermanent(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "no such endpoint", http.StatusNotFound)
	}))
	defer ts.Close()
	rec := &sleepRecorder{}
	c := newClient(t, Options{BaseURL: ts.URL, Sleep: rec.sleep})
	rep := &rollout.Report{
		App: "Cassandra", Workload: "WI", ETag: `"v1"`,
		WindowEnd: time.Second, Pauses: 4,
		PauseP50: time.Millisecond, PauseP99: 2 * time.Millisecond,
	}
	if sent, err := c.ReportFeedback(rep); sent || err == nil {
		t.Fatalf("404 feedback: sent=%v err=%v, want permanent error", sent, err)
	}
	if posts.Load() != 1 || len(rec.slept()) != 0 {
		t.Fatalf("404 was retried: %d posts, %d sleeps", posts.Load(), len(rec.slept()))
	}
}
