// Package e2e holds the end-to-end integration test of the fleet
// subsystem: a real planserver over httptest, two fleet-enabled online
// instances uploading evidence through real fleetclient HTTP calls, and
// the observability layer (metrics exposition, trace ring) checked at the
// same endpoints an operator would hit. It lives outside the component
// packages because it exists precisely to cross their seams.
package e2e

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/fleetclient"
	"polm2/internal/heap"
	"polm2/internal/online"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/trace"
	"polm2/internal/workload"
)

// churnApp allocates a steady mix of transient garbage and middle-lived
// objects from two fixed sites, one of which holds the survivors in each
// half of the run — the same allocation shape as the online package's
// shifting app, so every re-profile finds instrumentable evidence. This
// test is about the fleet plumbing, not adaptation.
type churnApp struct{}

var _ core.App = (*churnApp)(nil)

func (*churnApp) Name() string        { return "churn" }
func (*churnApp) Workloads() []string { return []string{"w"} }

func (*churnApp) ManualProfile(string) (*analyzer.Profile, error) {
	return nil, fmt.Errorf("churn: no manual profile")
}

func (*churnApp) Run(env *core.Env, workloadName string) error {
	if workloadName != "w" {
		return fmt.Errorf("churn: unknown workload %q", workloadName)
	}
	th := env.VM().NewThread("churn")
	th.Enter("Main", "loop")
	pacer, err := workload.NewPacer(env.Clock(), 160)
	if err != nil {
		return err
	}
	h := env.Heap()
	type entry struct {
		obj    *heap.Object
		expiry time.Duration
	}
	var retained []entry
	half := env.Deadline() / 2
	for !env.Done() {
		pacer.Await()
		if _, err := th.Alloc(5, 16384); err != nil { // transient churn
			return err
		}
		th.Call(10, "Buffer", "fill")
		buffer, err := th.Alloc(3, 768)
		th.Return()
		if err != nil {
			return err
		}
		th.Call(20, "Cache", "put")
		cache, err := th.Alloc(3, 768)
		th.Return()
		if err != nil {
			return err
		}
		keep := buffer
		if env.Now() >= half {
			keep = cache
		}
		if err := h.AddRoot(keep.ID); err != nil {
			return err
		}
		retained = append(retained, entry{obj: keep, expiry: env.Now() + 90*time.Second})
		for len(retained) > 0 && retained[0].expiry <= env.Now() {
			if err := h.RemoveRoot(retained[0].obj.ID); err != nil {
				return err
			}
			retained = retained[1:]
		}
		th.ReleaseLocals()
		env.CountOps(1)
	}
	return nil
}

// fixture is one traced plan daemon over real HTTP.
type fixture struct {
	store  *profilestore.Store
	srv    *planserver.Server
	ts     *httptest.Server
	tracer *trace.Tracer
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The injected clock ticks once per reading: timestamps are
	// deterministic without being meaningful, which is all the assertions
	// here need (byte-level trace determinism is pinned in internal/trace
	// and internal/bench).
	var tick atomic.Int64
	now := func() time.Duration { return time.Duration(tick.Add(1)) * time.Millisecond }
	tracer := trace.New(trace.Options{Ring: trace.NewRing(256), Now: now})
	// Inline merge workers keep the end-to-end metrics and trace
	// assertions exact: every upload's merge lands before its response, so
	// counters and the trace ring are byte-stable run to run.
	srv := planserver.New(store, planserver.Options{Tracer: tracer, Now: now, Executor: planserver.ExecutorFunc(func(w func()) { w() })})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &fixture{store: store, srv: srv, ts: ts, tracer: tracer}
}

func (f *fixture) client(t *testing.T, seed int64) *fleetclient.Client {
	t.Helper()
	c, err := fleetclient.New(fleetclient.Options{
		BaseURL: f.ts.URL,
		Seed:    seed,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (f *fixture) get(t *testing.T, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func (f *fixture) storedTotal(t *testing.T) uint64 {
	t.Helper()
	stored, err := f.store.Get("churn", "w")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, s := range stored.Sites {
		total += s.Allocated
	}
	return total
}

// TestFleetEndToEnd drives the whole stack: two traced online instances
// sync evidence with a traced daemon over HTTP, the fleet converges on one
// plan, re-uploads stay idempotent, and /metricsz and /tracez report it
// all. Run under -race in CI: the daemon handles the instances' requests
// on real server goroutines.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("online runs skipped in -short mode")
	}
	f := newFixture(t)

	runInstance := func(i int, seed int64) *trace.Record {
		t.Helper()
		var sb strings.Builder
		tracer := trace.New(trace.Options{Writer: &sb})
		res, err := online.Run(&churnApp{}, "w", online.Options{
			Duration:  16 * time.Minute,
			Warmup:    2 * time.Minute,
			Reprofile: 4 * time.Minute,
			Seed:      seed,
			Fleet:     f.client(t, seed),
			Tracer:    tracer,
		})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if len(res.Updates) == 0 {
			t.Fatalf("instance %d installed no plans", i)
		}
		if len(res.FleetEvents) != 0 {
			t.Fatalf("instance %d met fleet trouble against a healthy daemon: %+v", i, res.FleetEvents)
		}
		recs, err := trace.Decode(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("instance %d trace: %v", i, err)
		}
		counts := map[string]int{}
		var runSpan *trace.Record
		for j := range recs {
			counts[recs[j].Comp+"/"+recs[j].Name]++
			if recs[j].Comp == "online" && recs[j].Name == "run" {
				runSpan = &recs[j]
			}
		}
		for _, want := range []string{"online/reprofile", "online/plan_swap", "online/fleet_sync", "gc/cycle", "gc/phase"} {
			if counts[want] == 0 {
				t.Errorf("instance %d trace has no %s records (got %v)", i, want, counts)
			}
		}
		if runSpan == nil {
			t.Fatalf("instance %d trace has no online/run span", i)
		}
		if got := runSpan.Int("updates"); got != int64(len(res.Updates)) {
			t.Errorf("instance %d run span reports %d updates, result has %d", i, got, len(res.Updates))
		}
		return runSpan
	}

	runInstance(1, 1)
	runInstance(2, 2)
	totalAfterBoth := f.storedTotal(t)
	if totalAfterBoth == 0 {
		t.Fatal("fleet profile carries no evidence after two instances")
	}
	mergesAfterBoth := f.srv.Metrics().Counter("evidence_merge_total").Value()
	if mergesAfterBoth < 2 {
		t.Fatalf("evidence_merge_total = %d, want at least one merge per instance", mergesAfterBoth)
	}

	// Idempotent re-upload: the same instance re-running (same seed, same
	// derived instance id) replays cumulative evidence; merges increment
	// but the fleet totals and the contributing-instance gauge must not.
	runInstance(2, 2)
	if total := f.storedTotal(t); total != totalAfterBoth {
		t.Fatalf("re-running instance 2 moved fleet evidence %d -> %d (double-counted)", totalAfterBoth, total)
	}
	if got := f.srv.Metrics().Counter("evidence_merge_total").Value(); got <= mergesAfterBoth {
		t.Fatalf("re-run produced no merges (%d then %d)", mergesAfterBoth, got)
	}

	// Convergence: any client now fetches the one fleet plan, and the
	// conditional re-fetch confirms the version is stable.
	c := f.client(t, 3)
	plan, outcome, err := c.FetchPlan("churn", "w")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != fleetclient.OutcomeFresh || plan == nil {
		t.Fatalf("fetch = (%v, %v), want fresh plan", plan, outcome)
	}
	if plan.InstrumentedSites() == 0 {
		t.Fatal("converged fleet plan instruments nothing")
	}
	again, outcome, err := c.FetchPlan("churn", "w")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != fleetclient.OutcomeNotModified {
		t.Fatalf("re-fetch outcome = %v, want not-modified (plan still churning?)", outcome)
	}
	if again.InstrumentedSites() != plan.InstrumentedSites() {
		t.Fatal("re-fetch returned a different plan")
	}

	// /metricsz: the exposition must carry the counters the run implied,
	// the histograms' rendered families, and the per-key instance gauge
	// holding exactly two contributing instances.
	resp, body := f.get(t, "/metricsz")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("/metricsz Content-Type = %q", ct)
	}
	for _, want := range []string{
		"evidence_merge_total ",
		"plan_fetch_total ",
		"plan_fetch_latency_bucket{le=\"+Inf\"} ",
		"evidence_merge_latency_count ",
		"plan_merge_latency_bucket{le=\"+Inf\"} ",
		"plan_merge_latency_count ",
		"trace_ring_records ",
		`evidence_instances{app="churn",workload="w"} 2` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %q:\n%s", want, body)
		}
	}

	// /tracez: the ring serves the daemon-side records as decodable JSONL
	// covering both request kinds.
	resp, body = f.get(t, "/tracez")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/tracez Content-Type = %q", ct)
	}
	recs, err := trace.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/tracez body does not decode: %v", err)
	}
	kinds := map[string]int{}
	for _, r := range recs {
		if r.Comp != "planserver" {
			t.Fatalf("daemon ring carries foreign record %+v", r)
		}
		kinds[r.Name]++
	}
	if kinds["plan_fetch"] == 0 || kinds["evidence_upload"] == 0 {
		t.Fatalf("daemon ring misses request kinds: %v", kinds)
	}
}
