package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/fleetclient"
	"polm2/internal/profilestore"
)

// benchWriter is a minimal http.ResponseWriter for handler benchmarks: the
// header map is allocated once and the body is discarded, so the writer
// itself adds nothing to the measured allocations after warmup.
type benchWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *benchWriter) Header() http.Header { return w.h }
func (w *benchWriter) WriteHeader(c int)   { w.code = c }
func (w *benchWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

func (w *benchWriter) reset() { w.code, w.n = 0, 0 }

// benchEvidence builds one instance's upload body: sites sites, the first
// shared across the whole fleet, the rest salted per instance so the
// merged plan has both contended and private evidence.
func benchEvidence(b testing.TB, instance string, sites int, salt int) []byte {
	b.Helper()
	p := &analyzer.Profile{App: "Bench", Workload: "hot"}
	for s := 0; s < sites; s++ {
		trace := fmt.Sprintf("Bench.serve:1;Handler.call:%d", 10+s)
		if s > 0 {
			trace = fmt.Sprintf("%s;Worker.run:%d", trace, 100+salt)
		}
		n := uint64(48 + 7*s)
		p.Sites = append(p.Sites, analyzer.SiteStat{
			Trace:     trace,
			Allocated: n,
			Buckets:   []uint64{n / 3, n - n/3 - n/5, n / 5},
		})
	}
	body, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchUpload drives one evidence upload through the handler.
func benchUpload(b testing.TB, srv *Server, w *benchWriter, instance string, body []byte) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/evidence", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(InstanceHeader, instance)
	w.reset()
	srv.handleEvidence(w, req)
	if w.code != http.StatusOK {
		b.Fatalf("upload status %d", w.code)
	}
}

// BenchmarkEvidenceUploadHot measures the evidence-upload handler in its
// steady state: 16 instances' evidence already cached, each iteration one
// further upload rotating through the fleet (so every upload replaces a
// cached instance's evidence for an already-warm key).
func BenchmarkEvidenceUploadHot(b *testing.B) {
	store, err := profilestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(store, Options{})
	const instances = 16
	const sites = 24
	bodies := make([][]byte, instances)
	names := make([]string, instances)
	w := &benchWriter{h: make(http.Header)}
	for i := range bodies {
		names[i] = fmt.Sprintf("inst-%02d", i)
		bodies[i] = benchEvidence(b, names[i], sites, i)
		benchUpload(b, srv, w, names[i], bodies[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % instances
		benchUpload(b, srv, w, names[k], bodies[k])
	}
	b.StopTimer()
	// Merges coalesce behind the uploads; drain them before the
	// benchmark's TempDir is torn down under the worker's writes.
	srv.Flush()
}

// BenchmarkPlanFetch304 measures the conditional plan fetch fast path: the
// plan is cached and the client's If-None-Match matches, so the handler
// answers 304 from memory.
func BenchmarkPlanFetch304(b *testing.B) {
	store, err := profilestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(store, Options{})
	w := &benchWriter{h: make(http.Header)}
	benchUpload(b, srv, w, "inst-0", benchEvidence(b, "inst-0", 24, 0))
	etag := w.h.Get("ETag")
	if etag == "" {
		// The upload response may not carry the merged ETag in every
		// pipeline mode; fetch once to learn the current version.
		req := httptest.NewRequest("GET", "/v1/plan?app=Bench&workload=hot", nil)
		w.reset()
		srv.handlePlan(w, req)
		etag = w.h.Get("ETag")
		if w.code != http.StatusOK || etag == "" {
			b.Fatalf("warmup fetch = %d, etag %q", w.code, etag)
		}
	}
	req := httptest.NewRequest("GET", "/v1/plan?app=Bench&workload=hot", nil)
	req.Header.Set("If-None-Match", etag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.handlePlan(w, req)
		if w.code != http.StatusNotModified {
			b.Fatalf("fetch status %d, want 304", w.code)
		}
	}
}

// handlerTransport delivers a client's requests straight to a handler, so
// a benchmark measures the daemon and the client, not loopback sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// BenchmarkPlanFetch200 measures an unconditional plan fetch of a 16 × 64
// key (16 instances' evidence, 64 sites each): the handler's answer and
// the instance's decode and validation through fleetclient, each
// iteration a fresh client so no If-None-Match turns it into a 304.
// body_B/op is the served body; plan_B/op is the full plan it projects
// (the store's Get, encoded), whose SHA-256 is the ETag.
func BenchmarkPlanFetch200(b *testing.B) {
	store, err := profilestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(store, Options{Executor: ExecutorFunc(func(w func()) { w() })})
	w := &benchWriter{h: make(http.Header)}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("inst-%02d", i)
		benchUpload(b, srv, w, name, benchEvidence(b, name, 64, i))
	}
	w.reset()
	srv.handlePlan(w, httptest.NewRequest("GET", "/v1/plan?app=Bench&workload=hot", nil))
	if w.code != http.StatusOK {
		b.Fatalf("warmup fetch = %d", w.code)
	}
	body := w.n
	stored, err := store.Get("Bench", "hot")
	if err != nil {
		b.Fatal(err)
	}
	full, err := json.Marshal(stored)
	if err != nil {
		b.Fatal(err)
	}
	hc := &http.Client{Transport: handlerTransport{srv}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := fleetclient.New(fleetclient.Options{BaseURL: "http://polm2d.bench", InstanceID: "reader", HTTPClient: hc})
		if err != nil {
			b.Fatal(err)
		}
		plan, outcome, err := c.FetchPlan("Bench", "hot")
		if err != nil || outcome != fleetclient.OutcomeFresh || plan.InstrumentedSites() != stored.InstrumentedSites() {
			b.Fatalf("fetch = %v, %v", outcome, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(body), "body_B/op")
	b.ReportMetric(float64(len(full)+1), "plan_B/op")
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	base  http.RoundTripper
	bytes int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// BenchmarkSyncIdleRound measures one anti-entropy pass between two
// in-process daemons at fixpoint over 32 keys: the puller's root, the
// peer's answer by root alone, and the empty walk. answer_B/op is the
// peer's answer, which holds no key list.
func BenchmarkSyncIdleRound(b *testing.B) {
	const keys = 32
	newDaemon := func(id string, peers []string, hc *http.Client) *Server {
		store, err := profilestore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return New(store, Options{Executor: ExecutorFunc(func(w func()) { w() }), SelfID: id, Peers: peers, PeerClient: hc})
	}
	a := newDaemon("a", nil, nil)
	w := &benchWriter{h: make(http.Header)}
	for k := 0; k < keys; k++ {
		body, err := json.Marshal(&analyzer.Profile{App: fmt.Sprintf("App%02d", k), Workload: "hot",
			Sites: []analyzer.SiteStat{{Trace: "Bench.serve:1", Allocated: 3, Buckets: []uint64{1, 2}}}})
		if err != nil {
			b.Fatal(err)
		}
		benchUpload(b, a, w, "inst-0", body)
	}
	wire := &countingTransport{base: handlerTransport{a}}
	puller := newDaemon("b", []string{"http://a.bench"}, &http.Client{Transport: wire})
	if n := puller.SyncPeers(); n != keys {
		b.Fatalf("catch-up pulled %d of %d", n, keys)
	}
	puller.Flush()
	wire.bytes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := puller.SyncPeers(); n != 0 {
			b.Fatalf("idle round pulled %d", n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wire.bytes)/float64(b.N), "answer_B/op")
}
