package online

import (
	"net/http/httptest"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// feedbackFleet is a PlanService that also captures feedback reports, the
// shape fleetclient.Client presents to the runner.
type feedbackFleet struct {
	reports []rollout.Report
}

func (f *feedbackFleet) SyncEvidence(p *analyzer.Profile) (*analyzer.Profile, bool, error) {
	return p, true, nil
}

func (f *feedbackFleet) ReportFeedback(r *rollout.Report) (bool, error) {
	f.reports = append(f.reports, *r)
	return true, nil
}

// TestOnlineFeedbackWindows checks the runner's health reports: one per
// re-profile round plus the tail flush, covering non-overlapping windows,
// each internally consistent (p50 ≤ p99, rates in [0, 1]) and valid once
// the transport stamps a plan version.
func TestOnlineFeedbackWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	fleet := &feedbackFleet{}
	res, err := Run(&shiftApp{}, "w", Options{
		Duration:  16 * time.Minute,
		Warmup:    2 * time.Minute,
		Reprofile: 4 * time.Minute,
		Fleet:     fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.reports) == 0 {
		t.Fatal("no feedback reports delivered")
	}
	if res.FeedbackReports != len(fleet.reports) {
		t.Fatalf("Result.FeedbackReports = %d, fleet saw %d", res.FeedbackReports, len(fleet.reports))
	}
	if res.FeedbackErrors != 0 {
		t.Fatalf("FeedbackErrors = %d against a healthy fleet", res.FeedbackErrors)
	}
	var prevEnd time.Duration
	for i, r := range fleet.reports {
		if r.App != "shift" || r.Workload != "w" {
			t.Fatalf("report %d labeled %s/%s", i, r.App, r.Workload)
		}
		if r.WindowStart < prevEnd {
			t.Fatalf("report %d window [%v, %v] overlaps previous end %v", i, r.WindowStart, r.WindowEnd, prevEnd)
		}
		prevEnd = r.WindowEnd
		if r.Pauses == 0 {
			t.Fatalf("report %d sent with an empty window", i)
		}
		r.ETag = `"test"` // the transport stamps the plan version
		if err := r.Validate(); err != nil {
			t.Fatalf("report %d invalid: %v", i, err)
		}
	}
}

// TestOnlineFeedbackReachesDaemon runs one instance against a
// rollout-enabled daemon: the very first merged plan is adopted straight to
// Stable, and every delivered report lands in feedback_reports_total.
func TestOnlineFeedbackReachesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &fleetFixture{store: store}
	f.srv = planserver.New(store, planserver.Options{
		Executor: planserver.ExecutorFunc(func(w func()) { w() }),
		Rollout:  &rollout.Config{},
	})
	f.ts = httptest.NewServer(f.srv)
	t.Cleanup(f.ts.Close)

	res, err := Run(&shiftApp{}, "w", Options{
		Duration:  16 * time.Minute,
		Warmup:    2 * time.Minute,
		Reprofile: 4 * time.Minute,
		Fleet:     f.client(t, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FeedbackReports == 0 {
		t.Fatal("no feedback reports delivered")
	}
	if res.FeedbackErrors != 0 {
		t.Fatalf("FeedbackErrors = %d against a healthy daemon", res.FeedbackErrors)
	}
	got := f.srv.Metrics().Counter("feedback_reports_total").Value()
	if got != uint64(res.FeedbackReports) {
		t.Fatalf("daemon feedback_reports_total = %d, instance sent %d", got, res.FeedbackReports)
	}
	// A single-instance fleet adopts its first plan, then parks any later
	// candidate in canary: the sole instance is the whole cohort, so the
	// baseline side can never meet the min-sample gate — and without
	// baseline evidence nothing may be promoted or rolled back.
	snap, ok := f.srv.RolloutSnapshot("shift", "w")
	if !ok {
		t.Fatal("daemon has no rollout state for shift/w")
	}
	if snap.State != rollout.StateStable.String() && snap.State != rollout.StateCanary.String() {
		t.Fatalf("rollout state = %v, want stable or canary", snap.State)
	}
	if snap.StableETag == "" {
		t.Fatal("no stable plan adopted")
	}
	if snap.Rollbacks != 0 || snap.Promotions != 0 {
		t.Fatalf("promotions=%d rollbacks=%d decided without baseline evidence", snap.Promotions, snap.Rollbacks)
	}
}
