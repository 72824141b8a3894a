package simnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/faultio"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/simclock"
)

// This file is layer one of the simulator: a virtual transport that
// implements the fleetclient HTTP surface by invoking the planserver
// handler directly — no sockets, no goroutines, no real time. Every
// request passes through the network fault plan (faultio.NetPlan) first,
// and every request that reaches the daemon is recorded as a delivery; the
// delivery log is the ground truth the invariant checker replays against,
// independent of anything the daemon believes.

// Simulated network costs. A dropped request costs the client a timeout; a
// partition refusal is fast (connection refused, not a hang). Both advance
// the virtual clock so retry schedules interleave realistically.
const (
	dropTimeout = 150 * time.Millisecond
	refuseCost  = 5 * time.Millisecond
)

// delivery is one request that reached the daemon (faults included:
// duplicate and stale redeliveries are deliveries too, marked as such).
type delivery struct {
	at       time.Duration
	instance string
	op       string // "fetch" | "upload" | "feedback" | "sync"
	key      profilestore.Key
	status   int
	etag     string // response ETag ("" when none)
	dup      bool   // duplicate redelivery of the preceding delivery
	stale    bool   // redelivery of the instance's previous upload body
	// daemon names the target daemon ("polm2d" on a single-daemon fabric).
	// clientSeq is the uploader's own sequence header and stamp the stamp
	// the daemon assigned (seq@origin, "" when unreplicated) — together the
	// replication checker's per-write ground truth.
	daemon    string
	clientSeq uint64
	stamp     string
	// evidence is the parsed uploaded profile for accepted (200) uploads;
	// nil otherwise. It feeds the checker's independent fleet-merge model.
	evidence *analyzer.Profile
	// feedback is the parsed plan-health report for accepted (204)
	// feedback posts; nil otherwise. A feedback delivery naming an ETag is
	// the checker's proof the instance ran that plan version.
	feedback *rollout.Report
	// bodySum is the SHA-256 of a 200 response's body served under an
	// ETag (zero without a body or tag). The ETag addresses the full
	// plan's encoding, not the body, so the checker holds each daemon to one body
	// per ETag and the converged version's body to the projection of the
	// model merge.
	bodySum [32]byte
}

// netStats counts fault firings, for the report.
type netStats struct {
	Refused, Dropped, Dup, Stale, Delayed, Err5xx int
}

// network is the shared fabric between every instance and the daemon (or
// daemons: a replicated simulation routes by the request's virtual host).
// It is driven only from the single-threaded event loop, so it needs no
// lock.
type network struct {
	handler http.Handler
	// handlers routes additional virtual hosts (daemon-0.simnet, ...) to
	// their daemons; hosts not present fall back to handler, which keeps
	// the single-daemon fabric byte-identical.
	handlers map[string]http.Handler
	clock    *simclock.Clock
	plan     *faultio.NetPlan
	// quiet disables every fault (set when the chaos phase ends): the
	// convergence invariant is "the fleet converges once faults clear",
	// so the recovery phase must actually clear them.
	quiet bool

	// decisions numbers each (instance, op) pair's requests so fault
	// draws are stable decision identities, not positions in a global
	// stream another instance's retries could shift.
	decisions  map[string]uint64
	lastUpload map[string][]byte // per instance, for stale redelivery
	deliveries []delivery
	stats      netStats
}

func newNetwork(handler http.Handler, clock *simclock.Clock, plan *faultio.NetPlan) *network {
	return &network{
		handler:    handler,
		handlers:   make(map[string]http.Handler),
		clock:      clock,
		plan:       plan,
		decisions:  make(map[string]uint64),
		lastUpload: make(map[string][]byte),
	}
}

// route registers a virtual host's daemon handler.
func (n *network) route(host string, h http.Handler) { n.handlers[host] = h }

// hostName strips the fabric's ".simnet" suffix: the identity partition
// windows match a daemon under ("daemon-1" for "daemon-1.simnet").
func hostName(host string) string { return strings.TrimSuffix(host, ".simnet") }

// transport returns the RoundTripper carrying one instance's traffic.
func (n *network) transport(instance string) http.RoundTripper {
	return &instanceTransport{net: n, instance: instance}
}

// Fabric is the simulator's in-memory network exposed for reuse outside a
// full simulation: harnesses that want fleetclient traffic delivered by
// direct handler invocation — no sockets, no server goroutines — build a
// Fabric around the daemon's handler and hand each client a Transport.
// The e2e fidelity test runs one convergence scenario over both httptest
// and a Fabric and asserts the merged plans are byte-identical.
//
// Like the simulation it is carved from, a Fabric is meant to be driven
// from one goroutine.
type Fabric struct{ net *network }

// NewFabric builds an in-memory network delivering to handler. plan may be
// nil for a fault-free fabric; clock supplies delivery timestamps and pays
// fault costs (timeouts, delays).
func NewFabric(handler http.Handler, clock *simclock.Clock, plan *faultio.NetPlan) *Fabric {
	return &Fabric{net: newNetwork(handler, clock, plan)}
}

// Transport returns the RoundTripper carrying one named instance's
// traffic.
func (f *Fabric) Transport(instance string) http.RoundTripper { return f.net.transport(instance) }

// Deliveries reports how many requests reached the handler.
func (f *Fabric) Deliveries() int { return len(f.net.deliveries) }

type instanceTransport struct {
	net      *network
	instance string
}

func (t *instanceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.net
	op := "fetch"
	if req.Method == http.MethodPost {
		// Feedback is its own decision stream: a rollout run's health
		// reports draw their own faults without shifting the upload
		// draws, so enabling rollout never perturbs a non-rollout replay.
		if strings.HasSuffix(req.URL.Path, "/feedback") {
			op = "feedback"
		} else {
			op = "upload"
		}
	} else if strings.HasSuffix(req.URL.Path, "/sync") {
		// Anti-entropy pulls between daemons: their own decision stream
		// (the carrier's identity is the pulling daemon), so replication
		// traffic never shifts an instance's fault draws.
		op = "sync"
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}

	if !n.quiet {
		// A partition isolates whoever it names on either side of the
		// request: the carrier (instance or pulling daemon) and the target
		// daemon. The single-daemon host ("polm2d") matches no partition
		// window's <prefix>-<n> pattern, so unreplicated runs are
		// unaffected.
		if n.plan.Partitioned(t.instance, n.clock.Now()) || n.plan.Partitioned(hostName(req.URL.Host), n.clock.Now()) {
			n.stats.Refused++
			n.clock.Advance(refuseCost)
			return nil, fmt.Errorf("simnet: %s partitioned from %s", t.instance, hostName(req.URL.Host))
		}
		id := t.instance + "|" + op
		seq := n.decisions[id]
		n.decisions[id] = seq + 1
		if _, ok := n.plan.Draw(faultio.NetDrop, op, t.instance, seq); ok {
			n.stats.Dropped++
			n.clock.Advance(dropTimeout)
			return nil, fmt.Errorf("simnet: request from %s dropped", t.instance)
		}
		if _, ok := n.plan.Draw(faultio.NetErr5xx, op, t.instance, seq); ok {
			n.stats.Err5xx++
			return synthesize5xx(req), nil
		}
		if f, ok := n.plan.Draw(faultio.NetDelay, op, t.instance, seq); ok {
			n.stats.Delayed++
			n.clock.Advance(f.Delay)
		}
		if op == "upload" {
			if _, ok := n.plan.Draw(faultio.NetStale, op, t.instance, seq); ok {
				if prev := n.lastUpload[t.instance]; prev != nil && !bytes.Equal(prev, body) {
					n.stats.Stale++
					// The old retransmission surfaces first; the fresh
					// request lands after it, so last-write-wins must
					// leave the fresh evidence standing.
					n.deliver(req, prev, t.instance, op, true, false)
				}
			}
		}
		resp := n.deliver(req, body, t.instance, op, false, false)
		if _, ok := n.plan.Draw(faultio.NetDup, op, t.instance, seq); ok {
			n.stats.Dup++
			resp = n.deliver(req, body, t.instance, op, false, true)
		}
		if op == "upload" {
			n.lastUpload[t.instance] = body
		}
		return resp, nil
	}

	resp := n.deliver(req, body, t.instance, op, false, false)
	if op == "upload" {
		n.lastUpload[t.instance] = body
	}
	return resp, nil
}

// deliver hands one request body to the target daemon's handler and
// records the delivery.
func (n *network) deliver(req *http.Request, body []byte, instance, op string, stale, dup bool) *http.Response {
	r := req.Clone(req.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	handler := n.handler
	if h, ok := n.handlers[req.URL.Host]; ok {
		handler = h
	}
	w := newMemWriter()
	handler.ServeHTTP(w, r)
	resp := w.response(req)

	d := delivery{
		at:       n.clock.Now(),
		instance: instance,
		op:       op,
		status:   resp.StatusCode,
		etag:     resp.Header.Get("ETag"),
		stale:    stale,
		dup:      dup,
		daemon:   hostName(req.URL.Host),
		stamp:    resp.Header.Get(planserver.EvidenceStampHeader),
	}
	if op == "upload" {
		if seq, err := strconv.ParseUint(req.Header.Get(planserver.EvidenceSeqHeader), 10, 64); err == nil {
			d.clientSeq = seq
		}
	}
	if op == "fetch" {
		d.key = profilestore.Key{
			App:      req.URL.Query().Get("app"),
			Workload: req.URL.Query().Get("workload"),
		}
	}
	if op == "upload" {
		var p analyzer.Profile
		if json.Unmarshal(body, &p) == nil {
			d.key = profilestore.Key{App: p.App, Workload: p.Workload}
			if d.status == http.StatusOK {
				d.evidence = &p
			}
		}
	}
	if op == "feedback" {
		var rep rollout.Report
		if json.Unmarshal(body, &rep) == nil {
			d.key = profilestore.Key{App: rep.App, Workload: rep.Workload}
			if d.status == http.StatusNoContent {
				d.feedback = &rep
			}
		}
	}
	if d.etag != "" && d.status == http.StatusOK && w.body.Len() > 0 {
		d.bodySum = sha256.Sum256(w.body.Bytes())
	}
	n.deliveries = append(n.deliveries, d)
	return resp
}

// synthesize5xx fabricates the gateway 503 a NetErr5xx fault answers with;
// the request is never delivered.
func synthesize5xx(req *http.Request) *http.Response {
	body := []byte("simnet: synthesized gateway error\n")
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// memWriter is the in-memory http.ResponseWriter behind direct handler
// invocation.
type memWriter struct {
	code   int
	wrote  bool
	header http.Header
	body   bytes.Buffer
}

func newMemWriter() *memWriter {
	return &memWriter{code: http.StatusOK, header: make(http.Header)}
}

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.body.Write(p)
}

// response converts the captured write into the *http.Response a client
// round trip returns. ContentLength is set explicitly: fleetclient sizes
// its decode buffer from it, exactly as it does against the real daemon.
func (w *memWriter) response(req *http.Request) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.code, http.StatusText(w.code)),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(bytes.NewReader(w.body.Bytes())),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}
}
