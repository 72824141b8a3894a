// Package fleetclient is the production instance's side of the plan
// distribution subsystem (internal/planserver): it fetches versioned
// instrumentation plans with conditional GETs, uploads locally analyzed
// profiling evidence under a stable instance id (the daemon keeps only
// each instance's latest evidence, so cumulative re-profiles and retried
// uploads replace instead of double-count), and degrades gracefully —
// bounded retries with
// exponential backoff and deterministic jitter, sticky failover across a
// replicated daemon set (Options.BaseURLs), then a fall back to the last
// good plan — when no daemon is reachable at all.
//
// Determinism: no decision path consults the wall clock, a global RNG, or
// map iteration order. Backoff jitter derives from core.DeriveSeed over
// (seed, operation, sequence number, attempt) — the injected seed stream
// and nothing else — so a fixed seed replays the exact retry schedule
// (pinned to golden values in backoff_golden_test.go), and a fleet of
// instances seeded differently spreads its retries instead of thundering
// in lockstep. The operation sequence number is the client's own call
// counter: under a deterministic driver (a test, or internal/simnet's
// single-threaded event loop) the whole jitter stream replays. Only the
// injected Sleep function (time.Sleep by default) touches real time, and
// the fleet simulator replaces it with a virtual-clock advance.
package fleetclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

// InstanceHeader names the evidence-upload header carrying the client's
// stable instance id (mirrors planserver.InstanceHeader; redeclared to
// keep the packages decoupled).
const InstanceHeader = "X-Polm2-Instance"

// EvidenceSeqHeader carries the client's own upload sequence number on
// evidence uploads (mirrors planserver.EvidenceSeqHeader; redeclared to
// keep the packages decoupled). A replicated daemon folds it into the
// stamp it assigns, so an upload replayed to a failover daemon cannot be
// beaten by an older document the first daemon already replicated out.
// Unreplicated daemons ignore it.
const EvidenceSeqHeader = "X-Polm2-Evidence-Seq"

// The retry policy, the same for every client: at most maxAttempts tries
// per operation (the first included), the pre-jitter delay starting at
// baseDelay before the first retry, doubling per retry and capped at
// maxDelay.
const (
	maxAttempts = 4
	baseDelay   = 50 * time.Millisecond
	maxDelay    = 2 * time.Second
)

// Options parameterizes a Client.
type Options struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7468".
	BaseURL string
	// BaseURLs lists failover daemon roots tried after BaseURL. The client
	// is sticky: it keeps using one endpoint until a *transport* error
	// (connection refused, reset, timeout) rotates it to the next, wrapping
	// around. HTTP-level failures — 5xx included — never rotate: the daemon
	// answered, so switching peers would trade a known-alive endpoint for
	// an unknown one mid-backoff. Empty means no failover.
	BaseURLs []string
	// Seed drives the deterministic backoff jitter. Default 1.
	Seed int64
	// InstanceID is this instance's stable identity, sent with every
	// evidence upload so the daemon replaces — rather than adds to — this
	// instance's earlier contribution (uploads carry cumulative evidence,
	// and retries may replay an already-applied one). Default: derived
	// from Seed, which suffices when every instance in the fleet runs a
	// distinct seed; give instances sharing a seed explicit distinct ids.
	InstanceID string
	// HTTPClient is the transport. Default http.DefaultClient.
	HTTPClient *http.Client
	// Sleep waits between retries, for the jittered delays of the fixed
	// retry policy (maxAttempts, baseDelay, maxDelay). Default time.Sleep;
	// tests and simulations inject their own.
	Sleep func(time.Duration)
	// Tracer, when non-nil, receives one "fleetclient" event per
	// fetch/upload attempt, per backoff sleep, and per operation outcome.
	// Timestamps come from the tracer's own clock (trace.Options.Now).
	// Nil traces nothing at zero cost.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.InstanceID == "" {
		o.InstanceID = fmt.Sprintf("i-%016x",
			uint64(core.DeriveSeed(o.Seed, "fleetclient", "instance")))
	}
	return o
}

// Outcome classifies how FetchPlan produced its plan.
type Outcome int

// Outcomes.
const (
	// OutcomeFresh: the daemon served a (new) plan.
	OutcomeFresh Outcome = iota + 1
	// OutcomeNotModified: the cached plan is still current (304).
	OutcomeNotModified
	// OutcomeNoPlan: the daemon answered but holds no plan for the key.
	OutcomeNoPlan
	// OutcomeFallback: the daemon was unreachable; the last good plan
	// was returned instead.
	OutcomeFallback
)

func (o Outcome) String() string {
	switch o {
	case OutcomeFresh:
		return "fresh"
	case OutcomeNotModified:
		return "not-modified"
	case OutcomeNoPlan:
		return "no-plan"
	case OutcomeFallback:
		return "fallback"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Client talks to one plan daemon (or a replicated set of them). It is
// safe for concurrent use.
type Client struct {
	opts Options
	// endpoints is BaseURL followed by BaseURLs: the failover rotation.
	endpoints []string

	mu sync.Mutex
	// cur indexes the endpoint in use; transport errors advance it.
	cur int
	// etag versions lastGood; sent as If-None-Match on fetches.
	etag     string
	lastGood *analyzer.Profile
	// ops counts operations, salting each one's jitter derivation so two
	// retry rounds of the same operation kind do not share a schedule.
	ops uint64
	// evSeq counts evidence uploads; sent as EvidenceSeqHeader so the
	// client's write order survives daemon failover. Advanced once per
	// UploadEvidence call — retries of one upload replay the same number.
	evSeq uint64
}

// New builds a client. BaseURL must be set.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("fleetclient: BaseURL is required")
	}
	return &Client{
		opts:      opts.withDefaults(),
		endpoints: append([]string{opts.BaseURL}, opts.BaseURLs...),
	}, nil
}

// endpoint returns the sticky current endpoint and its rotation index.
func (c *Client) endpoint() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur], c.cur
}

// failover rotates to the next endpoint after a transport error on
// endpoint index from. The guard keeps concurrent failures of the same
// endpoint from skipping past a healthy one: only the first rotates.
func (c *Client) failover(from int) {
	if len(c.endpoints) == 1 {
		return
	}
	c.mu.Lock()
	if c.cur == from {
		c.cur = (c.cur + 1) % len(c.endpoints)
	}
	c.mu.Unlock()
}

// InstanceID returns the stable identity sent with evidence uploads.
func (c *Client) InstanceID() string { return c.opts.InstanceID }

// LastGood returns the most recent plan the daemon served (fetched or
// merged), or nil.
func (c *Client) LastGood() *analyzer.Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastGood
}

// LastETag returns the content-addressed version of the last good plan, or
// "" when no plan has been served yet. It identifies exactly which plan
// this instance runs — the fleet simulator's convergence invariant
// compares it against the daemon's published version.
func (c *Client) LastETag() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.etag
}

// backoff returns the post-jitter delay before retry number attempt
// (attempt 0 = delay before the second try) of operation op/seq. Jitter is
// the deterministic "equal jitter" scheme: half the exponential delay is
// kept, the other half scales by a seed-derived fraction.
func (c *Client) backoff(op string, seq uint64, attempt int) time.Duration {
	d := baseDelay << attempt
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	h := uint64(core.DeriveSeed(c.opts.Seed, "fleetclient", op,
		strconv.FormatUint(seq, 10), strconv.Itoa(attempt)))
	frac := float64(h%(1<<20)) / float64(1<<20)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// RetrySchedule previews the full backoff schedule (every delay slept if
// all attempts fail) for the n-th operation of kind op. Exposed so tests
// — and capacity planning — can inspect determinism without a server.
func (c *Client) RetrySchedule(op string, seq uint64) []time.Duration {
	out := make([]time.Duration, 0, maxAttempts-1)
	for a := 0; a < maxAttempts-1; a++ {
		out = append(out, c.backoff(op, seq, a))
	}
	return out
}

// nextSeq reserves the next operation sequence number.
func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.ops
	c.ops++
	return seq
}

// request is what every attempt of one operation sends: the method and
// path on the sticky endpoint, a JSON body (nil for none) and any headers
// beyond the instance id. doing names the operation in transport errors.
type request struct {
	op, doing    string
	method, path string
	body         []byte
	header       http.Header
}

// retry runs the request up to maxAttempts times with backoff between
// failures; status handles each answer the daemon gives (roundTrip). A
// permanent failure ends the retries; otherwise the last error is
// returned.
func (c *Client) retry(rq *request, status func(*http.Response) error) error {
	seq := c.nextSeq()
	for attempt := 0; ; attempt++ {
		stop, err := c.roundTrip(rq, status)
		if c.opts.Tracer.Enabled() {
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			c.opts.Tracer.Event("fleetclient", "attempt",
				trace.String("op", rq.op),
				trace.Uint64("seq", seq),
				trace.Int64("attempt", int64(attempt)),
				trace.String("outcome", outcome))
		}
		if err == nil || stop || attempt == maxAttempts-1 {
			return err
		}
		d := c.backoff(rq.op, seq, attempt)
		if c.opts.Tracer.Enabled() {
			c.opts.Tracer.Event("fleetclient", "backoff",
				trace.String("op", rq.op),
				trace.Uint64("seq", seq),
				trace.Int64("attempt", int64(attempt)),
				trace.Dur("delay", d))
		}
		c.opts.Sleep(d)
	}
}

// roundTrip is one attempt: it sends rq, carrying the instance id, to the
// sticky endpoint and rotates to the next one on a transport error. A
// daemon's answer goes to status, whose error a 4xx makes permanent —
// retrying an identical bad request cannot succeed; an answer status
// accepts (nil) ends the operation whatever its code. The body is drained
// for connection reuse.
func (c *Client) roundTrip(rq *request, status func(*http.Response) error) (stop bool, err error) {
	base, idx := c.endpoint()
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return true, err
	}
	for k, v := range rq.header {
		req.Header[k] = v
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(InstanceHeader, c.opts.InstanceID)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		c.failover(idx)
		return false, fmt.Errorf("fleetclient: %s: %w", rq.doing, err)
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) //nolint:errcheck
	err = status(resp)
	return err != nil && resp.StatusCode >= 400 && resp.StatusCode < 500, err
}

// statusError reports an answer the operation does not accept, with the
// head of the daemon's message.
func statusError(what string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("fleetclient: %s status %d: %s", what, resp.StatusCode, bytes.TrimSpace(msg))
}

// FetchPlan fetches the plan for (app, workload). When the daemon is
// unreachable after all retries and a last good plan exists, that plan is
// returned with OutcomeFallback and a nil error — mirroring the online
// runner's keep-the-previous-plan salvage behaviour.
func (c *Client) FetchPlan(app, workload string) (*analyzer.Profile, Outcome, error) {
	c.mu.Lock()
	etag := c.etag
	c.mu.Unlock()

	var plan *analyzer.Profile
	var outcome Outcome
	// Keys are arbitrary strings (the store hashes raw keys for exactly
	// that reason), so the query must be escaped, not spliced.
	q := url.Values{}
	q.Set("app", app)
	q.Set("workload", workload)
	// The instance id lets a rollout-enabled daemon route this instance to
	// its canary cohort's plan; a daemon without rollout ignores it.
	rq := &request{op: "fetch", doing: "fetching plan", method: "GET", path: "/v1/plan?" + q.Encode()}
	if etag != "" {
		rq.header = http.Header{"If-None-Match": {etag}}
	}
	err := c.retry(rq, func(resp *http.Response) error {
		switch resp.StatusCode {
		case http.StatusOK:
			p, newTag, err := decodePlan(resp)
			if err != nil {
				return err
			}
			c.remember(p, newTag)
			plan, outcome = p, OutcomeFresh
		case http.StatusNotModified:
			plan, outcome = c.LastGood(), OutcomeNotModified
		case http.StatusNotFound:
			plan, outcome = nil, OutcomeNoPlan
		default:
			return statusError("plan fetch", resp)
		}
		return nil
	})
	if err != nil {
		if last := c.LastGood(); last != nil {
			c.traceResult("fetch", OutcomeFallback.String())
			return last, OutcomeFallback, nil
		}
		c.traceResult("fetch", "error")
		return nil, 0, err
	}
	c.traceResult("fetch", outcome.String())
	return plan, outcome, nil
}

// traceResult emits one operation-outcome event.
func (c *Client) traceResult(op, outcome string) {
	if c.opts.Tracer.Enabled() {
		c.opts.Tracer.Event("fleetclient", op+"_result",
			trace.String("outcome", outcome))
	}
}

// UploadEvidence posts locally analyzed profiling evidence and returns the
// daemon's merged fleet plan. Unreachable daemons and rejected uploads
// surface as errors; SyncEvidence layers the fallback policy on top.
func (c *Client) UploadEvidence(p *analyzer.Profile) (*analyzer.Profile, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("fleetclient: encoding evidence: %w", err)
	}
	c.mu.Lock()
	c.evSeq++
	seq := c.evSeq
	c.mu.Unlock()
	var merged *analyzer.Profile
	// The instance id makes the upload idempotent: the daemon replaces this
	// instance's evidence, so a retry after a lost response cannot
	// double-count what the first attempt already applied. The sequence
	// number orders this client's uploads across daemons — constant over
	// retries, so a replayed upload keeps its place.
	rq := &request{op: "upload", doing: "uploading evidence", method: "POST", path: "/v1/evidence", body: body,
		header: http.Header{EvidenceSeqHeader: {strconv.FormatUint(seq, 10)}}}
	err = c.retry(rq, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return statusError("evidence upload", resp)
		}
		m, tag, err := decodePlan(resp)
		if err != nil {
			return err
		}
		c.remember(m, tag)
		merged = m
		return nil
	})
	if err != nil {
		c.traceResult("upload", "error")
		return nil, err
	}
	c.traceResult("upload", "merged")
	return merged, nil
}

// SyncEvidence uploads evidence and returns the fleet's merged plan. When
// the daemon is unreachable it falls back to the last good plan; fresh
// reports whether the returned plan came from the daemon on this call.
// The error is non-nil only when no plan can be offered at all.
func (c *Client) SyncEvidence(p *analyzer.Profile) (plan *analyzer.Profile, fresh bool, err error) {
	merged, err := c.UploadEvidence(p)
	if err == nil {
		return merged, true, nil
	}
	if last := c.LastGood(); last != nil {
		return last, false, nil
	}
	return nil, false, err
}

// ReportFeedback posts one plan-health report (rollout.Report) to the
// daemon's POST /v1/feedback endpoint, stamping the client's instance id
// and — when the report does not already carry one — the ETag of the plan
// this instance currently runs. Reporting requires a known plan version:
// with no ETag at all the report is skipped (sent == false, nil error),
// because a report that cannot be attributed to a plan version cannot
// enter a canary decision. Daemons predating the endpoint answer 404,
// surfaced as an error the caller may ignore.
func (c *Client) ReportFeedback(r *rollout.Report) (sent bool, err error) {
	rep := *r
	if rep.ETag == "" {
		rep.ETag = c.LastETag()
	}
	if rep.ETag == "" {
		c.traceResult("feedback", "skipped")
		return false, nil
	}
	if err := rep.Validate(); err != nil {
		return false, fmt.Errorf("fleetclient: %w", err)
	}
	body, err := json.Marshal(&rep)
	if err != nil {
		return false, fmt.Errorf("fleetclient: encoding feedback: %w", err)
	}
	rq := &request{op: "feedback", doing: "reporting feedback", method: "POST", path: "/v1/feedback", body: body}
	err = c.retry(rq, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fleetclient: feedback status %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		c.traceResult("feedback", "error")
		return false, err
	}
	c.traceResult("feedback", "reported")
	return true, nil
}

// remember records the newest daemon-served plan and its version.
func (c *Client) remember(p *analyzer.Profile, etag string) {
	c.mu.Lock()
	c.lastGood, c.etag = p, etag
	c.mu.Unlock()
}

// decodePlan reads, validates and versions a plan response. The daemon
// sends Content-Length (plans are served from a fully encoded in-memory
// copy), so the body buffer is sized up front instead of growing through
// io.ReadAll's doubling.
func decodePlan(resp *http.Response) (*analyzer.Profile, string, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n < 1<<30 {
		buf.Grow(int(n))
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", fmt.Errorf("fleetclient: reading plan: %w", err)
	}
	data := buf.Bytes()
	var p analyzer.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, "", fmt.Errorf("fleetclient: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, "", fmt.Errorf("fleetclient: served plan invalid: %w", err)
	}
	return &p, resp.Header.Get("ETag"), nil
}
