package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// newPeerServer builds a replication-enabled server: SelfID stamps its
// uploads, and peers (when any) are pulled on demand via SyncPeers.
func newPeerServer(t *testing.T, id string, peers ...string) (*Server, *httptest.Server, *profilestore.Store) {
	t.Helper()
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Executor: inline, SelfID: id, Peers: peers})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, store
}

// getSyncJSON GETs /v1/sync with the given raw query and decodes a 200.
func getSyncJSON(t *testing.T, url, query string, v any) {
	t.Helper()
	if query != "" {
		query = "?" + query
	}
	resp, err := http.Get(url + "/v1/sync" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sync%s = %d, want 200", query, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func fetchSummary(t *testing.T, url string) syncSummary {
	t.Helper()
	var sum syncSummary
	getSyncJSON(t, url, "", &sum)
	return sum
}

func fetchStamps(t *testing.T, url, app, workload string) []syncDocStamp {
	t.Helper()
	var list syncStamps
	getSyncJSON(t, url, "app="+app+"&workload="+workload, &list)
	return list.Docs
}

// sumOf recomputes a key sum from scratch.
func sumOf(docs ...syncDocStamp) profilestore.KeySum {
	var sum profilestore.KeySum
	for _, d := range docs {
		sum.Toggle(d.Instance, d.Stamp)
	}
	return sum
}

// Upload stamping: every accepted upload strictly advances the instance's
// sequence, the client's own sequence header can push it further, and the
// assigned stamp is reported back — but only when the daemon has an id.
func TestUploadStampAdvances(t *testing.T) {
	_, ts, _ := newPeerServer(t, "daemon-0")

	resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5)))
	resp.Body.Close()
	if got := resp.Header.Get(EvidenceStampHeader); got != "1@daemon-0" {
		t.Fatalf("first upload stamp = %q, want 1@daemon-0", got)
	}

	resp = postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 6)))
	resp.Body.Close()
	if got := resp.Header.Get(EvidenceStampHeader); got != "2@daemon-0" {
		t.Fatalf("second upload stamp = %q, want 2@daemon-0", got)
	}

	// A client-supplied sequence ahead of the local one is adopted, and a
	// stale one cannot move the stamp backwards.
	if got := postWithSeq(t, ts.URL, "inst-1", "10"); got != "10@daemon-0" {
		t.Fatalf("client-seq upload stamp = %q, want 10@daemon-0", got)
	}
	if got := postWithSeq(t, ts.URL, "inst-1", "3"); got != "11@daemon-0" {
		t.Fatalf("stale client-seq upload stamp = %q, want 11@daemon-0", got)
	}
}

// postWithSeq uploads evidence carrying the client's own sequence header
// and returns the stamp the daemon assigned.
func postWithSeq(t *testing.T, url, instance, seq string) string {
	t.Helper()
	body, err := json.Marshal(evidence("Cassandra", "WI", site("A.a:1", 7)))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/evidence", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(InstanceHeader, instance)
	req.Header.Set(EvidenceSeqHeader, seq)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seq upload = %d, want 200", resp.StatusCode)
	}
	return resp.Header.Get(EvidenceStampHeader)
}

// An unreplicated server (no SelfID) keeps its upload responses
// byte-identical to a pre-replication build: no stamp header.
func TestUploadNoStampWithoutSelfID(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5)))
	resp.Body.Close()
	if got := resp.Header.Get(EvidenceStampHeader); got != "" {
		t.Fatalf("unreplicated upload carries stamp header %q, want none", got)
	}
	if _, ok := resp.Header["X-Polm2-Evidence-Stamp"]; ok {
		t.Fatal("unreplicated upload response includes the stamp header key")
	}
}

// The summary advertises one entry per key, sorted, whose count and sum
// stand for exactly the stamps the key's stamp list spells out.
func TestSyncDigest(t *testing.T) {
	_, ts, _ := newPeerServer(t, "daemon-0")
	postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 6))).Body.Close()
	postEvidence(t, ts.URL, "inst-1", evidence("App0", "w", site("B.b:2", 7))).Body.Close()

	sum := fetchSummary(t, ts.URL)
	if sum.Daemon != "daemon-0" {
		t.Fatalf("summary daemon = %q, want daemon-0", sum.Daemon)
	}
	if len(sum.Keys) != 2 {
		t.Fatalf("summary has %d keys, want 2: %+v", len(sum.Keys), sum.Keys)
	}
	// Keys sort by String(): App0/w before Cassandra/WI.
	if sum.Keys[0].App != "App0" || sum.Keys[1].App != "Cassandra" {
		t.Fatalf("summary key order = %s, %s", sum.Keys[0].App, sum.Keys[1].App)
	}
	docs := fetchStamps(t, ts.URL, "Cassandra", "WI")
	if len(docs) != 2 || docs[0].Instance != "inst-1" || docs[1].Instance != "inst-2" {
		t.Fatalf("Cassandra stamp list = %+v, want inst-1 then inst-2", docs)
	}
	if got := docs[0].Stamp.String(); got != "1@daemon-0" {
		t.Fatalf("inst-1 stamp = %s, want 1@daemon-0", got)
	}
	if cass := sum.Keys[1]; cass.Docs != 2 || cass.Sum != sumOf(docs...) {
		t.Fatalf("Cassandra summary = %d docs, sum %s; stamp list hashes to %s", cass.Docs, cass.Sum, sumOf(docs...))
	}
}

// The summary's size follows the key count, not the fleet: at most 128
// bytes per key whether 8 or 64 instances uploaded to each.
func TestSyncSummarySizeIndependentOfFleet(t *testing.T) {
	const keys = 6
	for _, instances := range []int{8, 64} {
		srv, ts, _ := newPeerServer(t, "daemon-0")
		for k := 0; k < keys; k++ {
			for i := 0; i < instances; i++ {
				postEvidence(t, ts.URL, fmt.Sprintf("instance-%04d", i),
					evidence(fmt.Sprintf("Application%02d", k), "workload", site("A.a:1", 5))).Body.Close()
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sync", nil))
		if got, limit := rec.Body.Len(), keys*128+64; got > limit {
			t.Fatalf("%d instances per key: summary is %d bytes, want at most %d", instances, got, limit)
		}
		if sum := fetchSummary(t, ts.URL); len(sum.Keys) != keys || sum.Keys[0].Docs != instances {
			t.Fatalf("%d instances per key: summary = %+v", instances, sum.Keys)
		}
	}
}

// The single-document mode returns the stored profile and stamp; app and
// workload alone answer the key's stamp list (empty for an unknown key),
// app alone is a client error and unknown documents are 404.
func TestSyncDocFetch(t *testing.T) {
	_, ts, _ := newPeerServer(t, "daemon-0")
	postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/sync?app=Cassandra&workload=WI&instance=inst-1")
	if err != nil {
		t.Fatal(err)
	}
	var doc syncDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Instance != "inst-1" || doc.Stamp.String() != "1@daemon-0" || doc.Profile == nil {
		t.Fatalf("sync doc = %+v", doc)
	}
	if doc.Profile.App != "Cassandra" || len(doc.Profile.Sites) != 1 {
		t.Fatalf("sync doc profile = %+v", doc.Profile)
	}

	if docs := fetchStamps(t, ts.URL, "Cassandra", "WI"); len(docs) != 1 || docs[0] != (syncDocStamp{"inst-1", doc.Stamp}) {
		t.Fatalf("stamp list = %+v, want inst-1 at %s", docs, doc.Stamp)
	}
	if docs := fetchStamps(t, ts.URL, "Ghost", "w"); docs == nil || len(docs) != 0 {
		t.Fatalf("unknown key's stamp list = %#v, want an empty list", docs)
	}

	for _, partial := range []string{"app=Cassandra", "workload=WI", "app=Cassandra&instance=inst-1"} {
		resp, err = http.Get(ts.URL + "/v1/sync?" + partial)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s = %d, want 400", partial, resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/sync?app=Cassandra&workload=WI&instance=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown instance = %d, want 404", resp.StatusCode)
	}
}

// Two daemons, one upload each, one anti-entropy pass each way: both end
// serving the identical merged plan, the pulled stamps are adopted
// verbatim, and a repeat pass pulls nothing.
func TestSyncPeersConverge(t *testing.T) {
	// A is built against a placeholder peer (B's URL does not exist yet);
	// the pair is closed once both listeners are up.
	srvA, tsA, _ := newPeerServer(t, "daemon-0", "http://placeholder.invalid")
	srvB, tsB, _ := newPeerServer(t, "daemon-1", tsA.URL)
	srvA.peers = []string{tsB.URL}

	postEvidence(t, tsA.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	postEvidence(t, tsB.URL, "inst-2", evidence("Cassandra", "WI", site("B.b:2", 9))).Body.Close()

	if n := srvB.SyncPeers(); n != 1 {
		t.Fatalf("B first pass pulled %d, want 1", n)
	}
	if n := srvA.SyncPeers(); n != 1 {
		t.Fatalf("A first pass pulled %d, want 1", n)
	}
	srvA.Flush()
	srvB.Flush()

	ea := srvA.PlanETag("Cassandra", "WI")
	eb := srvB.PlanETag("Cassandra", "WI")
	if ea == "" || ea != eb {
		t.Fatalf("plans diverge after sync: A=%s B=%s", ea, eb)
	}

	// B holds A's document under A's stamp, untouched by the pull.
	docs := fetchStamps(t, tsB.URL, "Cassandra", "WI")
	if len(docs) != 2 {
		t.Fatalf("B stamp list after sync = %+v", docs)
	}
	if got := docs[0].Stamp.String(); got != "1@daemon-0" {
		t.Fatalf("B's copy of inst-1 stamped %s, want 1@daemon-0", got)
	}
	// Same stamp set, different arrival order: the same advertised sum.
	if a, b := fetchSummary(t, tsA.URL).Keys, fetchSummary(t, tsB.URL).Keys; len(a) != 1 || !reflect.DeepEqual(a, b) {
		t.Fatalf("converged summaries differ: A=%+v B=%+v", a, b)
	}

	// Fixpoint: nothing left to pull, divergence gauge at zero.
	if n := srvB.SyncPeers(); n != 0 {
		t.Fatalf("B second pass pulled %d, want 0", n)
	}
	if v := srvB.Metrics().Gauge("peer_divergence_gauge").Value(); v != 0 {
		t.Fatalf("divergence gauge = %d, want 0", v)
	}
	if v := srvB.Metrics().Counter("peer_sync_total").Value(); v != 2 {
		t.Fatalf("peer_sync_total = %d, want 2", v)
	}
	if v := srvB.Metrics().Counter("peer_docs_applied_total").Value(); v != 1 {
		t.Fatalf("peer_docs_applied_total = %d, want 1", v)
	}
}

// A conflicting instance (same id written on both daemons) resolves to the
// stamp-order winner on both sides — last write wins, deterministically.
func TestSyncPeersLastWriteWins(t *testing.T) {
	srvA, tsA, _ := newPeerServer(t, "daemon-0", "http://placeholder.invalid")
	srvB, tsB, _ := newPeerServer(t, "daemon-1", tsA.URL)
	srvA.peers = []string{tsB.URL}

	// inst-1 writes once to A (seq 1), twice to B (seq 2 wins).
	postEvidence(t, tsA.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	postEvidence(t, tsB.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 6))).Body.Close()
	postEvidence(t, tsB.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 7))).Body.Close()

	if n := srvB.SyncPeers(); n != 0 {
		t.Fatalf("B pulled %d, want 0 (its seq 2 beats A's seq 1)", n)
	}
	if n := srvA.SyncPeers(); n != 1 {
		t.Fatalf("A pulled %d, want 1 (B's seq 2 beats its seq 1)", n)
	}
	srvA.Flush()
	srvB.Flush()
	if ea, eb := srvA.PlanETag("Cassandra", "WI"), srvB.PlanETag("Cassandra", "WI"); ea != eb || ea == "" {
		t.Fatalf("winner plans diverge: A=%s B=%s", ea, eb)
	}
	if got := fetchStamps(t, tsA.URL, "Cassandra", "WI")[0].Stamp.String(); got != "2@daemon-1" {
		t.Fatalf("A's winner stamp = %s, want 2@daemon-1", got)
	}
}

// A freshly constructed server over an existing store advertises the
// persisted evidence without having served a single request — the summary
// path performs the cold-restart store scan itself.
func TestSyncDigestColdRestart(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := New(store, Options{Executor: inline, SelfID: "daemon-0"})
	ts := httptest.NewServer(first)
	postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	ts.Close()

	second := New(store, Options{Executor: inline, SelfID: "daemon-0"})
	ts2 := httptest.NewServer(second)
	defer ts2.Close()
	want := syncDocStamp{"inst-1", profilestore.Stamp{Seq: 1, Origin: "daemon-0"}}
	sum := fetchSummary(t, ts2.URL)
	if len(sum.Keys) != 1 || sum.Keys[0].Docs != 1 || sum.Keys[0].Sum != sumOf(want) {
		t.Fatalf("cold-restart summary = %+v, want the persisted key at sum %s", sum.Keys, sumOf(want))
	}
	if docs := fetchStamps(t, ts2.URL, "Cassandra", "WI"); len(docs) != 1 || docs[0] != want {
		t.Fatalf("cold-restart stamp list = %+v, want 1@daemon-0 (persisted, not re-derived)", docs)
	}
}

// Legacy (unstamped) documents stay out of the summary, the key sum and
// the stamp list, and are never pulled by a peer.
func TestSyncSkipsLegacyDocs(t *testing.T) {
	_, tsA, storeA := newPeerServer(t, "daemon-0")
	p := evidence("Cassandra", "WI", site("A.a:1", 5))
	if err := storeA.PutEvidenceStamped("inst-legacy", profilestore.Stamp{}, p); err != nil {
		t.Fatal(err)
	}
	if sum := fetchSummary(t, tsA.URL); len(sum.Keys) != 0 {
		t.Fatalf("legacy-only key advertised: %+v", sum.Keys)
	}
	postEvidence(t, tsA.URL, "inst-1", p).Body.Close()
	docs := fetchStamps(t, tsA.URL, "Cassandra", "WI")
	if len(docs) != 1 || docs[0].Instance != "inst-1" {
		t.Fatalf("stamp list = %+v, want inst-1 only", docs)
	}
	if sum := fetchSummary(t, tsA.URL); len(sum.Keys) != 1 || sum.Keys[0].Docs != 1 || sum.Keys[0].Sum != sumOf(docs...) {
		t.Fatalf("summary = %+v, want the one stamped document", sum.Keys)
	}

	srvB, _, _ := newPeerServer(t, "daemon-1", tsA.URL)
	if n := srvB.SyncPeers(); n != 1 {
		t.Fatalf("B pulled %d docs, want the 1 stamped one", n)
	}
	if v := srvB.Metrics().Counter("peer_sync_error_total").Value(); v != 0 {
		t.Fatalf("legacy skip counted %d sync errors, want 0", v)
	}
}

// An unreachable peer costs one sync error and nothing else; the pass as
// a whole still completes.
func TestSyncPeerUnreachable(t *testing.T) {
	srv, _, _ := newPeerServer(t, "daemon-1", "http://127.0.0.1:1")
	if n := srv.SyncPeers(); n != 0 {
		t.Fatalf("unreachable peer pulled %d, want 0", n)
	}
	if v := srv.Metrics().Counter("peer_sync_error_total").Value(); v != 1 {
		t.Fatalf("peer_sync_error_total = %d, want 1", v)
	}
	if v := srv.Metrics().Counter("peer_sync_total").Value(); v != 0 {
		t.Fatalf("peer_sync_total = %d, want 0", v)
	}
}

// hostilePeer is a fake daemon answering the three sync depths from
// fixed values; doc nil answers 404.
type hostilePeer struct {
	summary syncSummary
	stamps  syncStamps
	doc     *syncDoc
	hits    map[string]int // requests seen, by depth
}

func (h *hostilePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case r.URL.RawQuery == "":
		h.hits["summary"]++
		json.NewEncoder(w).Encode(h.summary)
	case !q.Has("instance"):
		h.hits["stamps"]++
		json.NewEncoder(w).Encode(h.stamps)
	case h.doc == nil:
		h.hits["doc"]++
		http.NotFound(w, r)
	default:
		h.hits["doc"]++
		json.NewEncoder(w).Encode(h.doc)
	}
}

// A peer is trusted no further than a fleet instance: whatever it
// advertises, a pass never panics and never applies a document that fails
// upload-grade validation — it counts one sync error or skips.
func TestSyncRejectsInvalidPeerDoc(t *testing.T) {
	evilStamp := profilestore.Stamp{Seq: 9, Origin: "evil"}
	listed := syncStamps{Docs: []syncDocStamp{{"inst-1", evilStamp}}}
	advertised := syncSummary{Daemon: "evil", Keys: []syncKeySummary{{
		App: "Cassandra", Workload: "WI", Docs: 1, Sum: sumOf(listed.Docs...),
	}}}
	cases := []struct {
		name     string
		peer     hostilePeer
		wantErrs uint64
		wantHits map[string]int
	}{
		{
			// The doc itself claims a different key than advertised.
			name: "doc for another key",
			peer: hostilePeer{summary: advertised, stamps: listed, doc: &syncDoc{
				Instance: "inst-1", Stamp: evilStamp, Profile: evidence("Other", "x", site("A.a:1", 5)),
			}},
			wantErrs: 1,
			wantHits: map[string]int{"summary": 1, "stamps": 1, "doc": 1},
		},
		{
			name: "doc without a stamp",
			peer: hostilePeer{summary: advertised, stamps: listed, doc: &syncDoc{
				Instance: "inst-1", Profile: evidence("Cassandra", "WI", site("A.a:1", 5)),
			}},
			wantErrs: 1,
			wantHits: map[string]int{"summary": 1, "stamps": 1, "doc": 1},
		},
		{
			// The listed document is gone by the time it is fetched: skipped.
			name:     "listed doc 404s",
			peer:     hostilePeer{summary: advertised, stamps: listed},
			wantHits: map[string]int{"summary": 1, "stamps": 1, "doc": 1},
		},
		{
			name: "key without labels",
			peer: hostilePeer{summary: syncSummary{Daemon: "evil", Keys: []syncKeySummary{{
				Workload: "WI", Docs: 1, Sum: sumOf(listed.Docs...),
			}}}, stamps: listed},
			wantErrs: 1,
			wantHits: map[string]int{"summary": 1},
		},
		{
			// The sum matches the local (empty) one but the count does not:
			// the pair is compared as a whole, so the puller looks — and finds
			// a stamp list with nothing it needs.
			name: "matching sum, wrong count",
			peer: hostilePeer{summary: syncSummary{Daemon: "evil", Keys: []syncKeySummary{{
				App: "Cassandra", Workload: "WI", Docs: 7,
			}}}},
			wantHits: map[string]int{"summary": 1, "stamps": 1},
		},
		{
			name:     "stamp list of zero stamps",
			peer:     hostilePeer{summary: advertised, stamps: syncStamps{Docs: []syncDocStamp{{Instance: "inst-1"}}}},
			wantHits: map[string]int{"summary": 1, "stamps": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.peer.hits = make(map[string]int)
			evil := httptest.NewServer(&tc.peer)
			defer evil.Close()
			srv, _, _ := newPeerServer(t, "daemon-1", evil.URL)
			if n := srv.SyncPeers(); n != 0 {
				t.Fatalf("hostile peer got %d documents applied, want 0", n)
			}
			if v := srv.Metrics().Counter("peer_sync_error_total").Value(); v != tc.wantErrs {
				t.Fatalf("peer_sync_error_total = %d, want %d", v, tc.wantErrs)
			}
			if v := srv.Metrics().Counter("peer_docs_applied_total").Value(); v != 0 {
				t.Fatalf("peer_docs_applied_total = %d, want 0", v)
			}
			if !reflect.DeepEqual(tc.peer.hits, tc.wantHits) {
				t.Fatalf("requests by depth = %v, want %v", tc.peer.hits, tc.wantHits)
			}
		})
	}

	// A summary that is not a summary at all (here: a malformed sum).
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"daemon":"evil","keys":[{"app":"Cassandra","workload":"WI","docs":1,"sum":"beef"}]}`)
	}))
	defer garbage.Close()
	srv, _, _ := newPeerServer(t, "daemon-1", garbage.URL)
	srv.SyncPeers()
	if v := srv.Metrics().Counter("peer_sync_error_total").Value(); v != 1 {
		t.Fatalf("malformed summary: peer_sync_error_total = %d, want 1", v)
	}
}

// An idle round is one request: with equal stamp sets on both sides the
// puller reads the summary and nothing else, and one differing key costs
// exactly that key's stamp list and documents on top.
func TestSyncIdleRoundIsOneRequest(t *testing.T) {
	_, tsA, _ := newPeerServer(t, "daemon-0")
	var paths []string
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.RawQuery)
		resp, err := http.Get(tsA.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer counting.Close()
	srvB, _, _ := newPeerServer(t, "daemon-1", counting.URL)

	for k := 0; k < 3; k++ {
		for i := 0; i < 4; i++ {
			postEvidence(t, tsA.URL, fmt.Sprintf("inst-%d", i), evidence(fmt.Sprintf("App%d", k), "w", site("A.a:1", 5))).Body.Close()
		}
	}
	if n := srvB.SyncPeers(); n != 12 {
		t.Fatalf("catch-up pulled %d, want 12", n)
	}
	if want := 1 + 3 + 12; len(paths) != want {
		t.Fatalf("catch-up made %d requests, want %d (summary + 3 stamp lists + 12 documents)", len(paths), want)
	}

	paths = nil
	if n := srvB.SyncPeers(); n != 0 {
		t.Fatalf("idle round pulled %d, want 0", n)
	}
	if len(paths) != 1 || paths[0] != "" {
		t.Fatalf("idle round requests = %q, want the summary alone", paths)
	}

	paths = nil
	postEvidence(t, tsA.URL, "inst-2", evidence("App1", "w", site("A.a:1", 6))).Body.Close()
	if n := srvB.SyncPeers(); n != 1 {
		t.Fatalf("delta round pulled %d, want 1", n)
	}
	want := []string{"", "app=App1&workload=w", "app=App1&workload=w&instance=inst-2"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("delta round requests = %q, want %q", paths, want)
	}
}

// A peer's quarantine set unions in during sync: a staged local candidate
// matching a quarantined ETag is dropped with a peer_quarantine transition,
// the local rollback counter stays untouched (the decision was counted on
// the peer), and a stale repeat of the same summary changes nothing.
func TestSyncQuarantinePropagates(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollout.Config{CanaryFraction: 0.5, MinReports: 1, RegressionPct: 10, Seed: 42}
	quarantined := ""
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery != "" {
			// The local key holds documents this peer does not: the puller
			// looks at the (empty) stamp list and needs nothing.
			json.NewEncoder(w).Encode(syncStamps{Docs: []syncDocStamp{}})
			return
		}
		json.NewEncoder(w).Encode(syncSummary{Daemon: "daemon-0", Keys: []syncKeySummary{{
			App: "Cassandra", Workload: "WI", Quarantined: []string{quarantined},
		}}})
	}))
	defer peer.Close()

	srv := New(store, Options{Executor: inline, Rollout: &cfg, SelfID: "daemon-1", Peers: []string{peer.URL}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Adopt a stable plan, then stage a candidate canary.
	postEvidence(t, ts.URL, "inst-1", evidence("Cassandra", "WI", site("A.a:1", 5))).Body.Close()
	postEvidence(t, ts.URL, "inst-2", evidence("Cassandra", "WI", site("B.b:2", 9))).Body.Close()
	canary, outside := splitCohort(cfg, "inst-1", "inst-2")
	candidate := planETagFor(t, ts.URL, canary)
	stable := planETagFor(t, ts.URL, outside)
	if candidate == stable {
		t.Fatalf("no candidate staged: canary and outside both see %s", stable)
	}

	// The peer announces the candidate was rolled back elsewhere.
	quarantined = candidate
	srv.SyncPeers()

	snap, ok := srv.RolloutSnapshot("Cassandra", "WI")
	if !ok {
		t.Fatal("no rollout snapshot after sync")
	}
	if snap.State != rollout.StateRolledBack.String() || snap.CandidateETag != "" {
		t.Fatalf("after peer quarantine: state=%v candidate=%q, want rolled_back with no candidate", snap.State, snap.CandidateETag)
	}
	found := false
	for _, q := range snap.Quarantined {
		if q == candidate {
			found = true
		}
	}
	if !found {
		t.Fatalf("candidate %s missing from quarantine set %v", candidate, snap.Quarantined)
	}
	// The cohort member is back on the stable plan.
	if got := planETagFor(t, ts.URL, canary); got != stable {
		t.Fatalf("cohort member still sees %s after quarantine, want stable %s", got, stable)
	}
	// The rollback was decided (and counted) on the peer, not here.
	if v := srv.Metrics().Counter("rollout_rollbacks_total").Value(); v != 0 {
		t.Fatalf("rollout_rollbacks_total = %d, want 0", v)
	}
	trs := srv.RolloutTransitions()
	last := trs[len(trs)-1]
	if last.Kind != "peer_quarantine" || last.ETag != candidate {
		t.Fatalf("last transition = %+v, want peer_quarantine of %s", last, candidate)
	}

	// Idempotent: the same stale summary neither transitions nor resurrects.
	before := len(trs)
	srv.SyncPeers()
	if got := len(srv.RolloutTransitions()); got != before {
		t.Fatalf("stale quarantine summary recorded %d new transitions", got-before)
	}
}

// Peer metrics exist only on a server configured with peers; an
// unreplicated server's exposition stays byte-identical.
func TestPeerMetricsGated(t *testing.T) {
	names := []string{"peer_sync_total", "peer_sync_error_total", "peer_docs_applied_total", "peer_divergence_gauge"}
	plain, _, _ := newTestServer(t)
	out := metricsText(t, plain)
	for _, name := range names {
		if hasMetricLine(out, name) {
			t.Fatalf("unreplicated server exposes %s", name)
		}
	}
	replicated, _, _ := newPeerServer(t, "daemon-0", "http://127.0.0.1:1")
	out = metricsText(t, replicated)
	for _, name := range names {
		if !hasMetricLine(out, name) {
			t.Fatalf("replicated server missing %s in exposition:\n%s", name, out)
		}
	}
}

func metricsText(t *testing.T, srv *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metricsz", nil)
	srv.ServeHTTP(rec, req)
	return rec.Body.String()
}

func hasMetricLine(out, name string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name) {
			return true
		}
	}
	return false
}

// replica is one daemon of the key-sum property test: a store that
// outlives its server, so the server can be restarted under a stable URL.
type replica struct {
	id    string
	store *profilestore.Store
	srv   *Server
	peer  string
	url   string
}

func (r *replica) restart() {
	r.srv = New(r.store, Options{Executor: inline, SelfID: r.id, Peers: []string{r.peer}})
}

// checkSums requires every loaded shard's incrementally maintained sum to
// equal a from-scratch recompute over its stamps.
func (r *replica) checkSums(t *testing.T, step int, what string) {
	t.Helper()
	r.srv.shardMu.RLock()
	defer r.srv.shardMu.RUnlock()
	for k, sh := range r.srv.shards {
		sh.mu.Lock()
		var want profilestore.KeySum
		for inst, st := range sh.stamps {
			want.Toggle(inst, st)
		}
		got := sh.sum
		sh.mu.Unlock()
		if got != want {
			t.Fatalf("step %d (%s): %s key %s maintains sum %s, its stamps hash to %s", step, what, r.id, k, got, want)
		}
	}
}

// TestKeySumMatchesRecompute is the key sum's honesty property: under
// arbitrary interleavings of uploads, replays, client-sequence jumps, peer
// pulls and restarts from the store, each shard's running sum equals a
// recompute over its stamps after every step — and once the pair has
// converged, both replicas advertise identical summaries although every
// document reached them in a different order.
func TestKeySumMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			var pair [2]*replica
			for i := range pair {
				store, err := profilestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				r := &replica{id: fmt.Sprintf("daemon-%d", i), store: store}
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { r.srv.ServeHTTP(w, req) }))
				t.Cleanup(ts.Close)
				r.url = ts.URL
				pair[i] = r
			}
			pair[0].peer, pair[1].peer = pair[1].url, pair[0].url
			// One legacy document: it must stay out of every sum.
			if err := pair[0].store.PutEvidenceStamped("inst-legacy", profilestore.Stamp{}, evidence("App0", "w", site("A.a:1", 1))); err != nil {
				t.Fatal(err)
			}
			pair[0].restart()
			pair[1].restart()

			for step := 0; step < 120; step++ {
				r := pair[rnd.Intn(2)]
				var what string
				switch op := rnd.Intn(10); {
				case op < 6:
					what = "upload"
					app, inst := fmt.Sprintf("App%d", rnd.Intn(3)), fmt.Sprintf("inst-%d", rnd.Intn(5))
					p := evidence(app, "w", site("A.a:1", uint64(1+rnd.Intn(9))))
					if rnd.Intn(3) == 0 {
						what = "upload with client seq"
						body, _ := json.Marshal(p)
						req, _ := http.NewRequest("POST", r.url+"/v1/evidence", bytes.NewReader(body))
						req.Header.Set(InstanceHeader, inst)
						req.Header.Set(EvidenceSeqHeader, fmt.Sprint(rnd.Intn(40)))
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Fatal(err)
						}
						resp.Body.Close()
					} else {
						postEvidence(t, r.url, inst, p).Body.Close()
						if rnd.Intn(4) == 0 {
							what = "upload and replay"
							postEvidence(t, r.url, inst, p).Body.Close()
						}
					}
				case op < 9:
					what = "peer pull"
					r.srv.SyncPeers()
				default:
					what = "restart"
					r.srv.Flush()
					r.restart()
					fetchSummary(t, r.url) // the cold scan reloads every key
				}
				pair[0].checkSums(t, step, what)
				pair[1].checkSums(t, step, what)
			}

			for round := 0; pair[0].srv.SyncPeers()+pair[1].srv.SyncPeers() > 0; round++ {
				if round == 8 {
					t.Fatal("pair never reached a sync fixpoint")
				}
			}
			pair[0].checkSums(t, -1, "fixpoint")
			pair[1].checkSums(t, -1, "fixpoint")
			a, b := fetchSummary(t, pair[0].url).Keys, fetchSummary(t, pair[1].url).Keys
			if len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Fatalf("converged replicas advertise different summaries:\n a: %+v\n b: %+v", a, b)
			}
			for _, r := range pair {
				if v := r.srv.Metrics().Counter("peer_sync_error_total").Value(); v != 0 {
					t.Fatalf("%s counted %d sync errors after its last restart", r.id, v)
				}
			}
		})
	}
}
