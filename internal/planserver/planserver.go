// Package planserver implements the fleet-facing side of POLM2's
// deployment model (§3.5) as a network service: a daemon fronts a
// profilestore.Store and serves versioned instrumentation plans to many
// concurrent production instances, while accepting their profiling
// evidence and folding it into one fleet-wide plan per (application,
// workload).
//
// The store's plan file is the full merged profile, per-site evidence
// included; the wire format is that profile's compact JSON without the
// evidence (Sites), which is all an instance installs (§3.5). Plan
// versions are content-addressed ETags — SHA-256 of the plan file, so one
// version names one merge and one served body — and clients poll cheaply
// with If-None-Match: a fleet of N instances converges on one plan without
// the daemon tracking any per-client state.
//
// Endpoints:
//
//	GET  /v1/plan?app=A&workload=W   plan fetch; conditional via ETag
//	POST /v1/evidence                evidence upload (X-Polm2-Instance
//	                                 header required); responds with the
//	                                 current fleet plan (and its ETag)
//	GET  /v1/sync                    replication summary, one entry per key
//	                                 (with app/workload: that key's stamp
//	                                 list; plus instance: one stamped
//	                                 evidence document — sync.go)
//	GET  /healthz                    liveness
//	GET  /metricsz                   metric exposition (internal/metrics)
//	GET  /tracez                     trace ring, newest window (internal/trace)
//
// Aggregation is last-write-wins per instance: the daemon keeps each
// instance's latest evidence (persisted under <store>/evidence — the
// durable log — and mirrored in an in-memory cache) and recomputes the
// fleet plan as the merge of those latest documents. Online re-profiles
// upload *cumulative* evidence, so replacing — never adding to — an
// instance's earlier contribution is what makes n re-profiles count once,
// and makes retried uploads idempotent.
//
// All state is sharded by (app, workload): uploads and fetches for
// distinct keys share nothing and never contend. Within a shard, merging
// is a coalescing pipeline — an upload persists its evidence, bumps the
// shard's dirty generation and returns; a single per-shard worker drains
// the backlog, recomputing the fleet plan once per batch rather than once
// per upload (see shard.go). Merging is commutative and associative, so
// batching changes only how often the plan is republished, never what it
// converges to.
package planserver

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

// Options tunes the server. The zero value is ready.
type Options struct {
	// Tracer, when non-nil, receives one "planserver" event per plan
	// fetch and evidence upload, stamped via Now. Its ring (when it has
	// one) backs GET /tracez. Nil traces nothing at zero cost.
	Tracer *trace.Tracer
	// Now supplies request timestamps for traces and latency histograms.
	// Default: wall-clock elapsed since New. Tests inject a deterministic
	// clock to keep traces byte-stable.
	Now func() time.Duration
	// Executor, when non-nil, runs the shard merge workers instead of one
	// goroutine each. Tests run them inline (an upload then responds with
	// the plan covering it) or gate them to observe coalescing
	// deterministically; the fleet simulator (internal/simnet) defers them
	// into its virtual-time FIFO as a Stepper, so worker execution order
	// is owned by the simulation.
	Executor Executor
	// Rollout, when non-nil, enables the canary rollout controller
	// (DESIGN.md §14): newly merged plans are staged to a deterministic
	// canary cohort and promoted or rolled back on POST /v1/feedback
	// health reports instead of publishing fleet-wide immediately. Nil
	// (the default) preserves immediate publication byte-for-byte.
	Rollout *rollout.Config
	// SelfID is this daemon's replication identity (DESIGN.md §15): the
	// Origin written into evidence stamps and the name answered in sync
	// summaries. Empty (the default) disables stamping's visible surface —
	// no stamp response header — keeping an unreplicated daemon
	// byte-identical to a pre-replication build.
	SelfID string
	// Peers lists the base URLs of the other replicas this daemon pulls
	// from (anti-entropy, sync.go). Empty disables the peer poller and
	// skips registering the peer metrics, so a peerless daemon's
	// /metricsz exposition is unchanged. The caller owns the cadence:
	// call SyncPeers on a ticker (cmd/polm2d) or from a deterministic
	// event queue (internal/simnet).
	Peers []string
	// PeerClient performs the HTTP pulls against Peers. Default
	// http.DefaultClient; the simulator injects its virtual-network
	// transport here.
	PeerClient *http.Client
}

// Executor runs the merge workers a server hands it (Options.Executor).
type Executor interface {
	// Go hands over one worker. It must run exactly once, eventually (a
	// handler waiting on it blocks until it does). Go is never called
	// with a lock held, so it may run work on the calling goroutine.
	Go(work func())
}

// Stepper is an Executor that runs nothing until stepped — a
// single-threaded scheduler such as the fleet simulator's event queue. A
// handler that cannot answer before a worker has run (a key's first
// upload, a plan rebuild, Flush) steps it instead of parking: Step runs
// one handed-over worker on the calling goroutine and reports whether
// there was one. Running dry while the wait is still uncovered is a
// stalled pipeline, reported as an error rather than a hang. Step is
// called with no lock held.
type Stepper interface {
	Executor
	Step() bool
}

// ExecutorFunc adapts a function to an Executor.
// ExecutorFunc(func(w func()) { w() }) runs every worker inline.
type ExecutorFunc func(work func())

// Go calls f(work).
func (f ExecutorFunc) Go(work func()) { f(work) }

// Server is the plan-distribution HTTP service. It is an http.Handler.
type Server struct {
	store   *profilestore.Store
	opts    Options
	stepper Stepper // opts.Executor when it is a Stepper, else nil
	mux     *http.ServeMux

	reg           *metrics.Registry
	fetches       *metrics.Counter          // every GET /v1/plan
	notModified   *metrics.Counter          // ... answered 304
	misses        *metrics.Counter          // ... answered 404
	loads         *metrics.Counter          // plan loads from the store (cold-cache fetches)
	evidenceLoads *metrics.Counter          // scans of the whole evidence log (one per lifetime, plus failed retries)
	uploads       *metrics.Counter          // accepted evidence uploads
	merges        *metrics.Counter          // fleet merges performed (≤ uploads; batching coalesces)
	coalesced     *metrics.Counter          // uploads covered by a batch merge beyond its first
	rejected      *metrics.Counter          // rejected evidence uploads
	storeErrs     *metrics.Counter          // store I/O and merge failures surfaced as 500s
	fetchLatency  *metrics.LatencyHistogram // GET /v1/plan handling time
	uploadLatency *metrics.LatencyHistogram // POST /v1/evidence handling time (a merge only on a key's cold first batch)
	mergeLatency  *metrics.LatencyHistogram // one merge worker pass: fold, synthesize, persist, encode

	// ro is the normalized rollout config; nil when rollout is disabled,
	// and then no shard ever holds a tracker (rollout.go). The rollout
	// counters below are registered only when ro is non-nil, keeping the
	// default /metricsz exposition unchanged.
	ro         *rollout.Config
	canaries   *metrics.Counter // canaries opened
	promotions *metrics.Counter // candidates promoted fleet-wide
	rollbacks  *metrics.Counter // candidates rolled back and quarantined

	rolloutMu   sync.Mutex
	transitions []RolloutTransition

	// Replication (sync.go). The peer metrics are registered only when
	// peers are configured, keeping the default exposition unchanged.
	peers           []string
	peerClient      *http.Client
	peerSyncs       *metrics.Counter // completed anti-entropy passes, per peer
	peerSyncErrs    *metrics.Counter // failed anti-entropy passes, per peer
	peerDocsApplied *metrics.Counter // evidence documents pulled and applied
	peerDivergence  *metrics.Gauge   // documents the last pass had to pull

	// loadMu serializes the one scan of the evidence log (loadEvidence);
	// loaded is set once it has filled the shards.
	loadMu sync.Mutex
	loaded atomic.Bool

	shardMu sync.RWMutex
	shards  map[profilestore.Key]*shard
}

// cachedPlan is one published plan version. The header value slices are
// precomputed so the conditional-fetch fast path can assign them into the
// response header map without allocating.
type cachedPlan struct {
	etag       string   // quoted SHA-256 of file
	file       []byte   // the plan file's bytes; a rollout document embeds them
	body       []byte   // the served projection: file's profile without Sites
	etagHeader []string // {etag}
	lenHeader  []string // {strconv.Itoa(len(body))}
}

// jsonContentType is the shared Content-Type header value for plan
// responses; assigned directly (not via Header.Set) on the fetch path.
var jsonContentType = []string{"application/json"}

// New builds a server fronting the store.
func New(store *profilestore.Store, opts Options) *Server {
	if opts.Now == nil {
		start := time.Now()
		opts.Now = func() time.Duration { return time.Since(start) }
	}
	reg := metrics.NewRegistry()
	s := &Server{
		store:         store,
		opts:          opts,
		mux:           http.NewServeMux(),
		reg:           reg,
		fetches:       reg.Counter("plan_fetch_total"),
		notModified:   reg.Counter("plan_not_modified_total"),
		misses:        reg.Counter("plan_miss_total"),
		loads:         reg.Counter("plan_load_total"),
		evidenceLoads: reg.Counter("evidence_load_total"),
		uploads:       reg.Counter("evidence_upload_total"),
		merges:        reg.Counter("evidence_merge_total"),
		coalesced:     reg.Counter("evidence_coalesced_total"),
		rejected:      reg.Counter("evidence_reject_total"),
		storeErrs:     reg.Counter("store_error_total"),
		fetchLatency:  reg.Histogram("plan_fetch_latency", nil),
		uploadLatency: reg.Histogram("evidence_merge_latency", nil),
		mergeLatency:  reg.Histogram("plan_merge_latency", nil),
		shards:        make(map[profilestore.Key]*shard),
	}
	s.stepper, _ = opts.Executor.(Stepper)
	if opts.Rollout != nil {
		cfg := opts.Rollout.Normalize()
		s.ro = &cfg
		reg.Counter("feedback_reports_total")
		reg.Counter("feedback_reject_total")
		s.canaries = reg.Counter("rollout_canary_total")
		s.promotions = reg.Counter("rollout_promotions_total")
		s.rollbacks = reg.Counter("rollout_rollbacks_total")
	}
	s.peers = append([]string(nil), opts.Peers...)
	s.peerClient = opts.PeerClient
	if s.peerClient == nil {
		s.peerClient = http.DefaultClient
	}
	if len(s.peers) > 0 {
		s.peerSyncs = reg.Counter("peer_sync_total")
		s.peerSyncErrs = reg.Counter("peer_sync_error_total")
		s.peerDocsApplied = reg.Counter("peer_docs_applied_total")
		s.peerDivergence = reg.Gauge("peer_divergence_gauge")
	}
	s.mux.HandleFunc("GET /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/evidence", s.handleEvidence)
	s.mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /v1/sync", s.handleSync)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's counter registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Flush blocks until every accepted upload is covered by a published plan
// (or by a recorded merge failure). The daemon calls it on shutdown so
// the store's plan files reflect the last uploads the fleet delivered;
// tests call it to quiesce the pipeline before asserting.
func (s *Server) Flush() {
	s.eachShard(func(sh *shard) {
		s.awaitCovered(sh, sh.dirty) //nolint:errcheck // merge failures are recorded per shard; Flush is best-effort
	})
}

// newCachedPlan caches profile p, whose plan file bytes are file (nil:
// p's encoding as profilestore.PutBytes writes it). The ETag
// content-addresses the file, and the served body is p without its
// per-site evidence, in the same compact-JSON-and-newline form.
func newCachedPlan(p *analyzer.Profile, file []byte) (*cachedPlan, error) {
	wire := *p
	wire.Sites = nil
	body, err := profilestore.Encode(&wire)
	if err == nil && file == nil {
		file, err = profilestore.Encode(p)
	}
	if err != nil {
		return nil, fmt.Errorf("planserver: encoding plan: %w", err)
	}
	sum := sha256.Sum256(file)
	etag := fmt.Sprintf("%q", fmt.Sprintf("%x", sum))
	return &cachedPlan{
		etag:       etag,
		file:       file,
		body:       body,
		etagHeader: []string{etag},
		lenHeader:  []string{strconv.Itoa(len(body))},
	}, nil
}

// queryParam extracts the first value of key from a raw query string
// without materializing a url.Values map: the plan fetch path runs for
// every poll of every fleet instance, and the generic parser's per-request
// allocations were its dominant cost. Unescaped values (every identifier
// our clients send) are returned as substrings; escaped ones fall back to
// url.QueryUnescape. Escaped *keys* are not matched — the daemon's two
// parameter names are plain ASCII.
func queryParam(raw, key string) string {
	for len(raw) > 0 {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if len(pair) <= len(key) || pair[len(key)] != '=' || pair[:len(key)] != key {
			continue
		}
		v := pair[len(key)+1:]
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if u, err := url.QueryUnescape(v); err == nil {
				return u
			}
			return ""
		}
		return v
	}
	return ""
}

// storeError is the one reply to a request whose store call (or merge)
// failed: counted in store_error_total and answered 500. It returns the
// outcome the caller traces.
func (s *Server) storeError(w http.ResponseWriter, err error) string {
	s.storeErrs.Inc()
	http.Error(w, err.Error(), http.StatusInternalServerError)
	return "store_error"
}

// loadPlanLocked fills the shard's empty plan cache from the store (caller
// holds sh.mu, so concurrent cold fetches share one load and no merge can
// publish between the read and the install). A store with no plan file
// but surviving evidence — the async publish lost a race with a crash, or
// an operator copied only the evidence log — rebuilds the plan instead of
// reporting a miss: a synthetic generation goes through the merge pipeline
// and the load waits for it to publish. The evidence log is authoritative,
// the plan file a convenience copy. ErrNotFound means the key genuinely
// has no plan.
func (s *Server) loadPlanLocked(sh *shard) error {
	s.loads.Inc()
	p, err := s.store.Get(sh.key.App, sh.key.Workload)
	if errors.Is(err, profilestore.ErrNotFound) && len(sh.evidence) > 0 {
		if sh.dirty == sh.mergedGen {
			sh.dirty++
		}
		if werr := s.awaitCovered(sh, sh.dirty); werr != nil || sh.plan != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	c, err := newCachedPlan(p, nil)
	if err != nil {
		return err
	}
	sh.plan = c
	if s.ro != nil && sh.roll.StableETag() == "" {
		// Rollout mode, no prior rollout history: publishing the stored plan
		// adopts it as the stable baseline, so the next merge canaries
		// against it rather than replacing it fleet-wide.
		s.publishLocked(sh, c) //nolint:errcheck // healed by the next merge's persist
	}
	return nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.fetches.Inc()
	start := s.opts.Now()
	app := queryParam(r.URL.RawQuery, "app")
	workload := queryParam(r.URL.RawQuery, "workload")
	outcome := s.servePlan(w, r, app, workload)
	// A plain call, not a deferred closure, so the 304 fast path stays
	// free of per-request heap allocations.
	d := s.opts.Now() - start
	s.fetchLatency.Observe(d)
	if s.opts.Tracer.Enabled() {
		s.opts.Tracer.EventAt(start, "planserver", "plan_fetch",
			trace.String("app", app),
			trace.String("workload", workload),
			trace.String("outcome", outcome),
			trace.Dur("latency", d))
	}
}

// servePlan answers one plan fetch and returns its traced outcome.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, app, workload string) string {
	if app == "" || workload == "" {
		http.Error(w, "planserver: app and workload query parameters are required", http.StatusBadRequest)
		return "bad_request"
	}
	var c *cachedPlan
	err := s.inShard(profilestore.Key{App: app, Workload: workload}, func(sh *shard) error {
		if sh.plan == nil {
			if err := s.loadPlanLocked(sh); err != nil {
				return err
			}
		}
		c = s.planForLocked(sh, r.Header.Get(InstanceHeader))
		return nil
	})
	if errors.Is(err, profilestore.ErrNotFound) {
		s.misses.Inc()
		http.Error(w, err.Error(), http.StatusNotFound)
		return "miss"
	}
	if err != nil {
		return s.storeError(w, err)
	}
	h := w.Header()
	h["Etag"] = c.etagHeader
	if match := r.Header.Get("If-None-Match"); match != "" && match == c.etag {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return "not_modified"
	}
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = c.lenHeader
	w.Write(c.body)
	return "ok"
}

// checkEvidence salvage-checks an uploaded profile beyond Validate: every
// site's evidence must be internally consistent, so a mangled or
// hand-damaged upload cannot poison the fleet merge. This is the full
// upload-side precondition for mergeability — labels present, every trace
// parseable, tainted within allocated, buckets summing to the allocation
// total — which is what lets the merge pipeline classify any later merge
// failure as server-side without re-merging anything: an upload that
// passes here cannot be the profile a fold chokes on.
func checkEvidence(p *analyzer.Profile) error {
	if p.App == "" || p.Workload == "" {
		return fmt.Errorf("evidence must carry app and workload labels")
	}
	for _, site := range p.Sites {
		if _, err := jvm.ParseStackTrace(site.Trace); err != nil {
			return fmt.Errorf("site %q: %w", site.Trace, err)
		}
		if site.Tainted > site.Allocated {
			return fmt.Errorf("site %q: tainted %d exceeds allocated %d", site.Trace, site.Tainted, site.Allocated)
		}
		var sum uint64
		for _, n := range site.Buckets {
			sum += n
		}
		if sum != site.Allocated {
			return fmt.Errorf("site %q: survival buckets sum to %d, allocated %d", site.Trace, sum, site.Allocated)
		}
	}
	return nil
}

// seedInstance is the reserved instance id under which a pre-fleet plan
// (seeded offline by polm2-profile) is adopted as baseline evidence when
// the key's first document is accepted (acceptLocked).
const seedInstance = "__seed__"

// InstanceHeader names the request header carrying the uploader's stable
// instance id. The daemon keeps only each instance's latest evidence, so
// cumulative re-profiles and retried uploads replace rather than add.
const InstanceHeader = "X-Polm2-Instance"

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	outcome := "merged"
	var app, workload string
	defer func() {
		d := s.opts.Now() - start
		s.uploadLatency.Observe(d)
		if s.opts.Tracer.Enabled() {
			s.opts.Tracer.EventAt(start, "planserver", "evidence_upload",
				trace.String("app", app),
				trace.String("workload", workload),
				trace.String("instance", r.Header.Get(InstanceHeader)),
				trace.String("outcome", outcome),
				trace.Dur("latency", d))
		}
	}()
	body := http.MaxBytesReader(w, r.Body, EvidenceBodyLimit)
	var up analyzer.Profile
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&up); err != nil {
		s.rejected.Inc()
		outcome = "rejected"
		http.Error(w, fmt.Sprintf("planserver: decoding evidence: %v", err), http.StatusBadRequest)
		return
	}
	app, workload = up.App, up.Workload
	instance := r.Header.Get(InstanceHeader)
	if instance == "" || len(instance) > 128 {
		s.rejected.Inc()
		outcome = "rejected"
		http.Error(w, fmt.Sprintf("planserver: evidence must carry a non-empty %s header of at most 128 bytes", InstanceHeader), http.StatusBadRequest)
		return
	}
	if err := up.Validate(); err != nil {
		s.rejected.Inc()
		outcome = "rejected"
		http.Error(w, fmt.Sprintf("planserver: invalid evidence: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkEvidence(&up); err != nil {
		s.rejected.Inc()
		outcome = "rejected"
		http.Error(w, fmt.Sprintf("planserver: rejected evidence: %v", err), http.StatusBadRequest)
		return
	}
	var clientSeq uint64
	if v := r.Header.Get(EvidenceSeqHeader); v != "" {
		if n, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			clientSeq = n
		}
	}
	var stamp profilestore.Stamp
	var c *cachedPlan
	err := s.inShard(profilestore.Key{App: up.App, Workload: up.Workload}, func(sh *shard) error {
		// The stamp strictly advances past whatever this daemon holds —
		// even a replayed or reordered upload gets a fresh, winning stamp,
		// so the locally accepted write always replaces locally and
		// replication resolves any cross-daemon race by the (seq, origin)
		// total order. The client's own sequence (when sent) folds in so an
		// upload replayed to a failover daemon is not beaten by an older
		// replicated document.
		stamp = profilestore.Stamp{Seq: max(sh.stamps[instance].Seq+1, clientSeq), Origin: s.opts.SelfID}
		if err := s.acceptLocked(sh, instance, stamp, &up); err != nil {
			return err
		}
		s.uploads.Inc()
		gen := sh.dirty
		s.handOverLocked(sh)
		// Respond with whatever plan is published — at most one merge batch
		// behind — and wait only on the key's cold first batch, when there
		// is no plan at all yet.
		if sh.plan == nil {
			if err := s.awaitCovered(sh, gen); err != nil {
				return fmt.Errorf("planserver: merging fleet evidence: %v", err)
			}
		}
		if c = s.planForLocked(sh, instance); c == nil {
			return errors.New("planserver: no fleet plan published")
		}
		return nil
	})
	if err != nil {
		outcome = s.storeError(w, err)
		return
	}
	h := w.Header()
	if s.opts.SelfID != "" {
		// Report the assigned stamp so harnesses (and curious clients) can
		// audit replication; absent without a SelfID, keeping unreplicated
		// responses byte-identical.
		h.Set(EvidenceStampHeader, stamp.String())
	}
	h["Content-Type"] = jsonContentType
	h["Etag"] = c.etagHeader
	h["Content-Length"] = c.lenHeader
	w.Write(c.body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Tracer.Enabled() {
		if ring := s.opts.Tracer.Ring(); ring != nil {
			s.reg.Gauge("trace_ring_records").Set(int64(ring.Len()))
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteTo(w)
}

// handleTracez serves the tracer's in-memory ring: the newest window of
// trace records as JSONL, oldest first. Without a tracer (or with a
// ringless one) the endpoint reports the feature off rather than
// pretending an empty fleet history.
func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	if !s.opts.Tracer.Enabled() || s.opts.Tracer.Ring() == nil {
		http.Error(w, "planserver: tracing is not enabled", http.StatusNotFound)
		return
	}
	ring := s.opts.Tracer.Ring()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Polm2-Trace-Total", fmt.Sprint(ring.Total()))
	ring.WriteTo(w)
}
