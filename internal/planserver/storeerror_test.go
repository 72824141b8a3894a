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
// 500, and one trace event with outcome store_error.
func TestStoreErrorAccounting(t *testing.T) {
	garbage := func(path string) error { return os.WriteFile(path, []byte("{"), 0o644) }
	for _, tc := range []struct {
		name    string
		rollout bool
		// breakStore damages the store before the daemon serves anything.
		breakStore func(t *testing.T, store *profilestore.Store)
		request    func(t *testing.T, url string) *http.Response
	}{{
		name: "fetch",
		breakStore: func(t *testing.T, store *profilestore.Store) {
			if err := store.Put(evidence("Cassandra", "WI", site("Main.run:10;Db.put:5", 5, 95))); err != nil {
				t.Fatal(err)
			}
			replaceStoreFile(t, store, "*.profile.json", garbage)
		},
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
		name:    "feedback",
		rollout: true,
		breakStore: func(t *testing.T, store *profilestore.Store) {
			// A directory where the key's rollout document goes: the
			// restore cannot read it.
			if err := store.PutRollout("Cassandra", "WI", []byte("{}")); err != nil {
				t.Fatal(err)
			}
			replaceStoreFile(t, store, "*.rollout.json", func(path string) error { return os.Mkdir(path, 0o755) })
		},
		request: func(t *testing.T, url string) *http.Response {
			return postFeedback(t, url, "inst-1", feedbackReport(`"abc"`, 10*time.Millisecond))
		},
	}, {
		name: "evidence scan",
		breakStore: func(t *testing.T, store *profilestore.Store) {
			dir := filepath.Join(store.Dir(), "evidence")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := garbage(filepath.Join(dir, "bad.evidence.json")); err != nil {
				t.Fatal(err)
			}
		},
		request: func(t *testing.T, url string) *http.Response {
			resp, _ := fetchPlan(t, url, "Cassandra", "WI", "")
			return resp
		},
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
			if got := strings.Count(events.String(), `"outcome":"store_error"`); got != 1 {
				t.Errorf("%d trace events with outcome store_error, want 1:\n%s", got, events.String())
			}
		})
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
