package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// rolloutServer builds a rollout-enabled server over its own store.
// MinReports 1 keeps lifecycle tests compact — one report per side
// decides; the gate itself is pinned by the rollout package's table test.
func rolloutServer(t *testing.T, store *profilestore.Store, cfg rollout.Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(store, Options{Executor: inline, Rollout: &cfg})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postFeedback(t *testing.T, url, instance string, rep *rollout.Report) *http.Response {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/feedback", bytes.NewReader(body))
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
	resp.Body.Close()
	return resp
}

func feedbackReport(etag string, p99 time.Duration) *rollout.Report {
	return &rollout.Report{
		App: "Cassandra", Workload: "WI", ETag: etag,
		WindowEnd: time.Second, Pauses: 8,
		PauseP50: p99 / 2, PauseP99: p99,
		PromotionRate: 0.1, SurvivorRate: 0.3,
	}
}

// planETagFor fetches the plan as instance and returns the response ETag.
func planETagFor(t *testing.T, url, instance string) string {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/v1/plan?app=Cassandra&workload=WI", nil)
	if err != nil {
		t.Fatal(err)
	}
	if instance != "" {
		req.Header.Set(InstanceHeader, instance)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan fetch as %q = %d", instance, resp.StatusCode)
	}
	return resp.Header.Get("ETag")
}

// splitCohort uploads evidence from both instances and returns (canary
// member, non-member) according to the deterministic cohort.
func splitCohort(cfg rollout.Config, a, b string) (string, string) {
	cohort := rollout.Cohort(cfg.Seed, []string{a, b}, cfg.CanaryFraction)
	if cohort[a] {
		return a, b
	}
	return b, a
}

// The full promote lifecycle over live HTTP: adopt, canary containment,
// decision, fleet-wide publish.
func TestRolloutPromoteLifecycle(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 1, RegressionPct: 10, Seed: 42}
	srv, ts := rolloutServer(t, store, cfg)

	// First merge ever: adopted as stable, no canary to run.
	resp := postEvidence(t, ts.URL, "inst-a", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	stable := resp.Header.Get("ETag")
	resp.Body.Close()
	if snap, ok := srv.RolloutSnapshot("Cassandra", "WI"); !ok || snap.State != "stable" || snap.StableETag != stable {
		t.Fatalf("after first merge: snapshot %+v ok=%v, want stable %s", snap, ok, stable)
	}

	// Second instance's evidence changes the merge: a canary opens.
	resp = postEvidence(t, ts.URL, "inst-b", evidence("Cassandra", "WI",
		site("Main.run:10;Cache.alloc:7", 80, 20)))
	resp.Body.Close()
	snap, _ := srv.RolloutSnapshot("Cassandra", "WI")
	if snap.State != "canary" || snap.StableETag != stable || snap.CandidateETag == "" {
		t.Fatalf("after second merge: snapshot %+v, want open canary over stable %s", snap, stable)
	}
	cand := snap.CandidateETag

	member, outsider := splitCohort(cfg, "inst-a", "inst-b")
	if got := planETagFor(t, ts.URL, member); got != cand {
		t.Fatalf("cohort member fetched %s, want candidate %s", got, cand)
	}
	if got := planETagFor(t, ts.URL, outsider); got != stable {
		t.Fatalf("non-member fetched %s, want stable %s", got, stable)
	}
	if got := planETagFor(t, ts.URL, ""); got != stable {
		t.Fatalf("headerless fetch got %s, want stable %s", got, stable)
	}
	if got := planETagFor(t, ts.URL, "inst-unknown"); got != stable {
		t.Fatalf("unknown instance fetched %s, want stable %s", got, stable)
	}

	// Healthy canary: baseline report, then a canary report within the
	// regression threshold → promote.
	if resp := postFeedback(t, ts.URL, outsider, feedbackReport(stable, 10*time.Millisecond)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("baseline feedback = %d", resp.StatusCode)
	}
	if resp := postFeedback(t, ts.URL, member, feedbackReport(cand, 10*time.Millisecond)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("canary feedback = %d", resp.StatusCode)
	}
	snap, _ = srv.RolloutSnapshot("Cassandra", "WI")
	if snap.State != "stable" || snap.StableETag != cand || snap.Promotions != 1 {
		t.Fatalf("after promote: snapshot %+v, want stable=%s with one promotion", snap, cand)
	}
	if got := planETagFor(t, ts.URL, outsider); got != cand {
		t.Fatalf("post-promote non-member fetched %s, want %s", got, cand)
	}

	kinds := ""
	for _, tr := range srv.RolloutTransitions() {
		kinds += tr.Kind + " "
	}
	if kinds != "adopt canary_start promote publish " {
		t.Fatalf("transition kinds = %q", kinds)
	}
	var buf bytes.Buffer
	srv.Metrics().WriteTo(&buf)
	for _, want := range []string{
		"rollout_state{app=\"Cassandra\",workload=\"WI\"} 0",
		"rollout_promotions_total 1",
		"rollout_rollbacks_total 0",
		"rollout_canary_total 1",
		"feedback_reports_total 2",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want+"\n")) {
			t.Errorf("metricsz missing %q in:\n%s", want, buf.String())
		}
	}
}

// Rollback quarantines the candidate: the regressed plan vanishes from
// every serving path and a re-merge of identical evidence stays withheld,
// while genuinely new evidence opens the next canary.
func TestRolloutRollbackAndQuarantine(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 1, RegressionPct: 10, Seed: 42}
	srv, ts := rolloutServer(t, store, cfg)

	resp := postEvidence(t, ts.URL, "inst-a", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	stable := resp.Header.Get("ETag")
	resp.Body.Close()
	poison := evidence("Cassandra", "WI", site("Main.run:10;Leak.grow:3", 0, 0, 100))
	resp = postEvidence(t, ts.URL, "inst-b", poison)
	resp.Body.Close()
	snap, _ := srv.RolloutSnapshot("Cassandra", "WI")
	cand := snap.CandidateETag

	member, outsider := splitCohort(cfg, "inst-a", "inst-b")
	postFeedback(t, ts.URL, outsider, feedbackReport(stable, 10*time.Millisecond))
	postFeedback(t, ts.URL, member, feedbackReport(cand, 50*time.Millisecond))

	snap, _ = srv.RolloutSnapshot("Cassandra", "WI")
	if snap.State != "rolled_back" || snap.StableETag != stable || snap.Rollbacks != 1 {
		t.Fatalf("after rollback: snapshot %+v, want rolled_back on stable %s", snap, stable)
	}
	if len(snap.Quarantined) != 1 || snap.Quarantined[0] != cand {
		t.Fatalf("quarantine = %v, want [%s]", snap.Quarantined, cand)
	}
	// The regressed plan is gone from every path, cohort member included.
	for _, inst := range []string{member, outsider, ""} {
		if got := planETagFor(t, ts.URL, inst); got != stable {
			t.Fatalf("post-rollback fetch as %q got %s, want stable %s", inst, got, stable)
		}
	}
	// Re-uploading the identical evidence re-merges to the quarantined
	// ETag: withheld, fleet stays on stable.
	resp = postEvidence(t, ts.URL, "inst-b", poison)
	if got := resp.Header.Get("ETag"); got != stable {
		t.Fatalf("re-merge of quarantined evidence served %s, want stable %s", got, stable)
	}
	resp.Body.Close()
	snap, _ = srv.RolloutSnapshot("Cassandra", "WI")
	if snap.State != "rolled_back" {
		t.Fatalf("quarantined re-merge moved state to %s", snap.State)
	}
	// New evidence → new ETag → next canary.
	resp = postEvidence(t, ts.URL, "inst-b", evidence("Cassandra", "WI",
		site("Main.run:10;Cache.alloc:7", 90, 10)))
	resp.Body.Close()
	snap, _ = srv.RolloutSnapshot("Cassandra", "WI")
	if snap.State != "canary" || snap.CandidateETag == cand {
		t.Fatalf("fresh evidence after rollback: snapshot %+v, want a new canary", snap)
	}
	var buf bytes.Buffer
	srv.Metrics().WriteTo(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("rollout_rollbacks_total 1\n")) ||
		!bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf("rollout_state{app=\"Cassandra\",workload=\"WI\"} %d\n", int(rollout.StateCanary)))) {
		t.Errorf("metricsz after rollback+recanary:\n%s", buf.String())
	}
}

// A restarted daemon resumes from the persisted rollout document: stable
// plan, open canary, and quarantine all survive, and the plan file on
// disk (which holds the newest merge — the candidate) is never promoted
// to stable by the restart.
func TestRolloutRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 1, RegressionPct: 10, Seed: 42}
	_, ts := rolloutServer(t, store, cfg)
	resp := postEvidence(t, ts.URL, "inst-a", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	stable := resp.Header.Get("ETag")
	resp.Body.Close()
	resp = postEvidence(t, ts.URL, "inst-b", evidence("Cassandra", "WI",
		site("Main.run:10;Cache.alloc:7", 80, 20)))
	resp.Body.Close()

	// "Restart": a fresh server over the same store directory.
	store2, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := rolloutServer(t, store2, cfg)
	member, outsider := splitCohort(cfg, "inst-a", "inst-b")
	snapBefore, _ := func() (rollout.Snapshot, bool) {
		// Trigger the lazy restore via a fetch, then read the snapshot.
		planETagFor(t, ts2.URL, outsider)
		return srv2.RolloutSnapshot("Cassandra", "WI")
	}()
	if snapBefore.State != "canary" || snapBefore.StableETag != stable {
		t.Fatalf("restored snapshot %+v, want open canary over %s", snapBefore, stable)
	}
	if got := planETagFor(t, ts2.URL, outsider); got != stable {
		t.Fatalf("restarted daemon served %s to non-member, want stable %s", got, stable)
	}
	if got := planETagFor(t, ts2.URL, member); got != snapBefore.CandidateETag {
		t.Fatalf("restarted daemon served %s to member, want candidate %s", got, snapBefore.CandidateETag)
	}

	// Decide the restored canary: regression → rollback, then restart
	// again and confirm the quarantine is durable.
	postFeedback(t, ts2.URL, outsider, feedbackReport(stable, 10*time.Millisecond))
	postFeedback(t, ts2.URL, member, feedbackReport(snapBefore.CandidateETag, 80*time.Millisecond))
	store3, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := rolloutServer(t, store3, cfg)
	if got := planETagFor(t, ts3.URL, member); got != stable {
		t.Fatalf("after rollback+restart, member got %s, want stable %s", got, stable)
	}
	snap, ok := srv3.RolloutSnapshot("Cassandra", "WI")
	if !ok || snap.State != "rolled_back" || len(snap.Quarantined) != 1 {
		t.Fatalf("post-restart snapshot %+v ok=%v, want durable rolled_back + quarantine", snap, ok)
	}
}

// A restarted daemon advertises its quarantine set from its first sync
// summary: the one evidence scan restores each loaded key's rollout state,
// so the summary — and its root — match the daemon's before the restart
// without any request touching the key first.
func TestRestartAdvertisesQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 1, RegressionPct: 10, Seed: 42}
	open := func() (*Server, *httptest.Server) {
		store, err := profilestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(store, Options{Executor: inline, SelfID: "d1", Rollout: &cfg})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return srv, ts
	}
	srv, ts := open()
	resp := postEvidence(t, ts.URL, "inst-a", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	stable := resp.Header.Get("ETag")
	resp.Body.Close()
	resp = postEvidence(t, ts.URL, "inst-b", evidence("Cassandra", "WI",
		site("Main.run:10;Leak.grow:3", 0, 0, 100)))
	resp.Body.Close()
	snap, _ := srv.RolloutSnapshot("Cassandra", "WI")
	member, outsider := splitCohort(cfg, "inst-a", "inst-b")
	postFeedback(t, ts.URL, outsider, feedbackReport(stable, 10*time.Millisecond))
	postFeedback(t, ts.URL, member, feedbackReport(snap.CandidateETag, 50*time.Millisecond))
	srv.Flush()
	before := fetchSummary(t, ts.URL)
	if len(before.Keys) != 1 || len(before.Keys[0].Quarantined) != 1 || before.Keys[0].Quarantined[0] != snap.CandidateETag {
		t.Fatalf("summary before restart = %+v, want one key quarantining %s", before, snap.CandidateETag)
	}

	_, ts2 := open()
	after := fetchSummary(t, ts2.URL)
	if !reflect.DeepEqual(after.Keys, before.Keys) || after.Root != before.Root {
		t.Fatalf("summary after restart = %+v, want %+v", after, before)
	}
}

// A store written by a rollout-disabled daemon has evidence but no rollout
// document, and a key stored offline has only its seed; the first
// rollout-enabled fetch of either adopts its plan as stable instead of
// treating the fleet's current plan as an unvetted candidate. A seed-only
// key takes no special path: its cold load merges the seed, and the
// tracker's first observation adopts the result.
func TestRolloutAdoptsLegacyPlanFile(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := func() (*Server, *httptest.Server, *profilestore.Store) {
		srv := New(store, Options{Executor: inline})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return srv, ts, store
	}()
	resp := postEvidence(t, ts.URL, "inst-a", evidence("Cassandra", "WI",
		site("Main.run:10;Db.put:5", 5, 95)))
	legacy := resp.Header.Get("ETag")
	resp.Body.Close()
	seed, err := profilestore.Plan(profilestore.Key{App: "Lucene", Workload: "default"},
		evidence("Lucene", "default", site("Main.run:1;Index.add:7", 10, 30)))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(seed); err != nil {
		t.Fatal(err)
	}
	seedFull, err := profilestore.Encode(seed)
	if err != nil {
		t.Fatal(err)
	}

	store2, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := rolloutServer(t, store2, rollout.Config{MinReports: 1, Seed: 42})
	for _, c := range []struct {
		key  profilestore.Key
		etag string
	}{
		{profilestore.Key{App: "Cassandra", Workload: "WI"}, legacy},
		{profilestore.Key{App: "Lucene", Workload: "default"}, etagOf(seedFull)},
	} {
		resp, _ := fetchPlan(t, ts2.URL, c.key.App, c.key.Workload, "")
		if got := resp.Header.Get("ETag"); resp.StatusCode != http.StatusOK || got != c.etag {
			t.Fatalf("rollout-enabled daemon served %s %d %s, want the stored plan %s", c.key, resp.StatusCode, got, c.etag)
		}
		snap, ok := srv2.RolloutSnapshot(c.key.App, c.key.Workload)
		if !ok || snap.State != "stable" || snap.StableETag != c.etag {
			t.Fatalf("%s adoption snapshot %+v ok=%v, want stable %s", c.key, snap, ok, c.etag)
		}
	}
	trs := srv2.RolloutTransitions()
	if len(trs) != 2 || trs[0].Kind != "adopt" || trs[1].Kind != "adopt" {
		t.Fatalf("adoption transitions = %+v, want one adopt per key", trs)
	}
}

// With rollout disabled (the default), feedback is acknowledged and
// counted but decides nothing — and the counters appear in /metricsz only
// once a report has arrived, keeping the default exposition unchanged.
func TestFeedbackWithRolloutDisabled(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	var before bytes.Buffer
	srv.Metrics().WriteTo(&before)
	if bytes.Contains(before.Bytes(), []byte("feedback_reports_total")) {
		t.Fatalf("feedback counter pre-registered with rollout off:\n%s", before.String())
	}
	resp := postFeedback(t, ts.URL, "inst-1", feedbackReport(`"abc"`, 10*time.Millisecond))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("feedback with rollout off = %d, want 204", resp.StatusCode)
	}
	var after bytes.Buffer
	srv.Metrics().WriteTo(&after)
	if !bytes.Contains(after.Bytes(), []byte("feedback_reports_total 1\n")) {
		t.Fatalf("feedback not counted:\n%s", after.String())
	}
	if _, ok := srv.RolloutSnapshot("Cassandra", "WI"); ok {
		t.Fatalf("rollout snapshot exists with rollout disabled")
	}
}

func TestFeedbackRejects(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := rolloutServer(t, store, rollout.Config{MinReports: 1})
	cases := []struct {
		name     string
		instance string
		body     []byte
	}{
		{"malformed json", "inst-1", []byte("{nope")},
		{"unknown field", "inst-1", []byte(`{"app":"a","workload":"w","etag":"e","bogus":1}`)},
		{"missing instance header", "", mustJSON(t, feedbackReport(`"e"`, time.Millisecond))},
		{"invalid report", "inst-1", []byte(`{"app":"a","workload":"w","etag":"e","pauses":-4}`)},
	}
	for _, tc := range cases {
		req, err := http.NewRequest("POST", ts.URL+"/v1/feedback", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.instance != "" {
			req.Header.Set(InstanceHeader, tc.instance)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	var buf bytes.Buffer
	srv.Metrics().WriteTo(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("feedback_reject_total 4\n")) {
		t.Errorf("rejects not counted:\n%s", buf.String())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
