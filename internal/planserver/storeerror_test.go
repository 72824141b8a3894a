package planserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

// replaceStoreFile swaps the one store file matching glob (under the
// store's directory) for what mk leaves at its path.
func replaceStoreFile(t *testing.T, store *profilestore.Store, glob string, mk func(path string) error) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(store.Dir(), glob))
	if err != nil || len(paths) != 1 {
		t.Fatalf("glob %s = %v, %v; want one file", glob, paths, err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := mk(paths[0]); err != nil {
		t.Fatal(err)
	}
}

// TestStoreErrorAccounting makes each handler's store call fail and holds
// every path to the same reply: exactly one store_error_total increment, a
// 500, and one trace event with outcome store_error — none on the sync
// paths, which are untraced.
func TestStoreErrorAccounting(t *testing.T) {
	garbage := func(path string) error { return os.WriteFile(path, []byte("{"), 0o644) }
	// A directory where an evidence document goes: the scan cannot read
	// it. (A document that reads but does not decode is skipped instead:
	// TestCorruptEvidenceFailsOnlyItsDocument.)
	scanFails := func(t *testing.T, store *profilestore.Store) {
		if err := os.MkdirAll(filepath.Join(store.Dir(), "evidence", "bad.evidence.json"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// A directory where the key's rollout document goes: the restore
	// cannot read it.
	rolloutUnreadable := func(t *testing.T, store *profilestore.Store) {
		if err := store.PutRollout("Cassandra", "WI", []byte("{}")); err != nil {
			t.Fatal(err)
		}
		replaceStoreFile(t, store, "*.rollout.json", func(path string) error { return os.Mkdir(path, 0o755) })
	}
	syncGet := func(query string) func(t *testing.T, url string) *http.Response {
		return func(t *testing.T, url string) *http.Response {
			resp, err := http.Get(url + "/v1/sync" + query)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp
		}
	}
	for _, tc := range []struct {
		name     string
		rollout  bool
		untraced bool
		// breakStore damages the store before the daemon serves anything.
		breakStore func(t *testing.T, store *profilestore.Store)
		request    func(t *testing.T, url string) *http.Response
	}{{
		name:       "fetch",
		rollout:    true,
		breakStore: rolloutUnreadable,
		request: func(t *testing.T, url string) *http.Response {
			resp, _ := fetchPlan(t, url, "Cassandra", "WI", "")
			return resp
		},
	}, {
		name: "upload",
		breakStore: func(t *testing.T, store *profilestore.Store) {
			// A regular file where the evidence directory goes: the scan
			// finds nothing, the write cannot create its document.
			if err := garbage(filepath.Join(store.Dir(), "evidence")); err != nil {
				t.Fatal(err)
			}
		},
		request: func(t *testing.T, url string) *http.Response {
			resp := postEvidence(t, url, "inst-1", evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, 95)))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp
		},
	}, {
		name:       "feedback",
		rollout:    true,
		breakStore: rolloutUnreadable,
		request: func(t *testing.T, url string) *http.Response {
			return postFeedback(t, url, "inst-1", feedbackReport(`"abc"`, 10*time.Millisecond))
		},
	}, {
		name:       "evidence scan",
		breakStore: scanFails,
		request: func(t *testing.T, url string) *http.Response {
			resp, _ := fetchPlan(t, url, "Cassandra", "WI", "")
			return resp
		},
	}, {
		name:       "sync summary",
		untraced:   true,
		breakStore: scanFails,
		request:    syncGet(""),
	}, {
		name:       "sync stamp list",
		rollout:    true,
		untraced:   true,
		breakStore: rolloutUnreadable,
		request:    syncGet("?app=Cassandra&workload=WI"),
	}} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := profilestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tc.breakStore(t, store)
			var events bytes.Buffer
			opts := Options{Executor: inline, Tracer: trace.New(trace.Options{Writer: &events})}
			if tc.rollout {
				opts.Rollout = &rollout.Config{MinReports: 1}
			}
			srv := New(store, opts)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			if resp := tc.request(t, ts.URL); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500", resp.StatusCode)
			}
			if got := srv.Metrics().Counter("store_error_total").Value(); got != 1 {
				t.Errorf("store_error_total = %d, want 1", got)
			}
			want := 1
			if tc.untraced {
				want = 0
			}
			if got := strings.Count(events.String(), `"outcome":"store_error"`); got != want {
				t.Errorf("%d trace events with outcome store_error, want %d:\n%s", got, want, events.String())
			}
		})
	}
}

// TestCorruptEvidenceFailsOnlyItsDocument: the daemon's one scan of the
// evidence log skips a document that does not decode and counts it once
// in store_error_total. Its key serves from its remaining documents, every
// other key serves as before, and the store's Audit names the file.
func TestCorruptEvidenceFailsOnlyItsDocument(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, 95))
	for _, p := range []struct {
		instance string
		profile  *analyzer.Profile
	}{
		{"inst-1", good},
		{"inst-2", evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 50, 50))},
		{"inst-1", evidence("Lucene", "default", site("Main.run:1;Index.add:7", 10, 30))},
	} {
		if err := store.PutEvidenceStamped(p.instance, profilestore.Stamp{}, p.profile); err != nil {
			t.Fatal(err)
		}
	}
	var victim string
	replaceStoreFile(t, store, filepath.Join("evidence", "Cassandra__WI-*__inst-2-*.evidence.json"), func(path string) error {
		victim = filepath.Base(path)
		return os.WriteFile(path, []byte(`{"instance":"inst-2","profile":{"app":`), 0o644)
	})
	want, err := profilestore.Plan(profilestore.Key{App: "Cassandra", Workload: "WI"}, good)
	if err != nil {
		t.Fatal(err)
	}
	full, err := profilestore.Encode(want)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(store, Options{Executor: inline})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, _ := fetchPlan(t, ts.URL, "Cassandra", "WI", "")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etagOf(full) {
			t.Fatalf("fetch %d of the damaged key = %d %s, want 200 %s (inst-1 alone)", i, resp.StatusCode, resp.Header.Get("ETag"), etagOf(full))
		}
		if resp, _ := fetchPlan(t, ts.URL, "Lucene", "default", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %d of another key = %d, want 200", i, resp.StatusCode)
		}
	}
	if got := srv.Metrics().Counter("store_error_total").Value(); got != 1 {
		t.Errorf("store_error_total = %d, want 1 (the skipped document, counted once)", got)
	}
	if got := srv.Metrics().Counter("evidence_load_total").Value(); got != 1 {
		t.Errorf("evidence_load_total = %d, want 1: a skipped document is no reason to re-scan", got)
	}
	audit, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.Corrupt != 1 || len(audit.Entries) != 3 {
		t.Fatalf("Audit = %+v, want 3 documents with 1 corrupt", audit)
	}
	for _, e := range audit.Entries {
		if (e.Err != "") != (e.File == victim) {
			t.Errorf("Audit entry %+v: want exactly %s flagged", e, victim)
		}
	}
}

// TestRolloutOffStaysOff pins that a daemon without Options.Rollout never
// grows rollout state: after uploads, merges, feedback, a peer pull and
// cold fetches, no store holds a rollout document, no server reports a
// tracker and no exposition lists a rollout_* series.
func TestRolloutOffStaysOff(t *testing.T) {
	a, tsA, storeA := newPeerServer(t, "daemon-a")
	b, tsB, storeB := newPeerServer(t, "daemon-b", tsA.URL)
	keys := []profilestore.Key{{App: "Cassandra", Workload: "WI"}, {App: "Lucene", Workload: "RW"}}
	for _, k := range keys {
		for i := 0; i < 2; i++ {
			resp := postEvidence(t, tsA.URL, fmt.Sprintf("inst-%d", i), evidence(k.App, k.Workload, site("Main.run:10;Db.put:5", uint64(5+i), 95)))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("upload %s = %d", k, resp.StatusCode)
			}
		}
		rep := feedbackReport(a.PlanETag(k.App, k.Workload), 10*time.Millisecond)
		rep.App, rep.Workload = k.App, k.Workload
		if resp := postFeedback(t, tsA.URL, "inst-0", rep); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("feedback %s = %d", k, resp.StatusCode)
		}
	}
	if pulled := b.SyncPeers(); pulled != 2*len(keys) {
		t.Fatalf("peer pull applied %d documents, want %d", pulled, 2*len(keys))
	}
	b.Flush()
	// A fresh daemon over a's store serves every key by a cold load.
	cold := New(storeA, Options{Executor: inline})
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	for _, url := range []string{tsA.URL, tsB.URL, tsCold.URL} {
		for _, k := range keys {
			if resp, _ := fetchPlan(t, url, k.App, k.Workload, ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("fetch %s from %s = %d", k, url, resp.StatusCode)
			}
		}
	}

	for _, st := range []*profilestore.Store{storeA, storeB} {
		for _, k := range keys {
			if _, err := st.Rollout(k.App, k.Workload); !errors.Is(err, profilestore.ErrNotFound) {
				t.Errorf("store %s holds a rollout document for %s (err %v)", st.Dir(), k, err)
			}
		}
	}
	for i, srv := range []*Server{a, b, cold} {
		for _, k := range keys {
			if _, ok := srv.RolloutSnapshot(k.App, k.Workload); ok {
				t.Errorf("server %d reports a rollout tracker for %s", i, k)
			}
		}
		if out := metricsText(t, srv); strings.Contains(out, "rollout_") {
			t.Errorf("server %d exposes rollout series:\n%s", i, out)
		}
	}
}
