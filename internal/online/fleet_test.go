package online

import (
	"net/http/httptest"
	"testing"
	"time"

	"polm2/internal/fleetclient"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
)

// fleetFixture is one plan daemon shared by the simulated fleet.
type fleetFixture struct {
	store *profilestore.Store
	srv   *planserver.Server
	ts    *httptest.Server
}

func newFleetFixture(t *testing.T) *fleetFixture {
	t.Helper()
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := planserver.New(store, planserver.Options{Executor: planserver.ExecutorFunc(func(w func()) { w() })})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &fleetFixture{store: store, srv: srv, ts: ts}
}

func (f *fleetFixture) client(t *testing.T, seed int64) *fleetclient.Client {
	t.Helper()
	c, err := fleetclient.New(fleetclient.Options{
		BaseURL: f.ts.URL,
		Seed:    seed,
		Sleep:   func(time.Duration) {}, // simulated runs never really sleep
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOnlineFleetInstallsMergedPlan runs two instances of the same
// workload against one plan daemon: each uploads its evidence on every
// clean re-profile and installs the daemon's merged plan, and the daemon
// ends up holding a fleet profile whose evidence covers both instances.
func TestOnlineFleetInstallsMergedPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	f := newFleetFixture(t)

	storedTotal := func(i int) uint64 {
		t.Helper()
		stored, err := f.store.Get("shift", "w")
		if err != nil {
			t.Fatalf("daemon store after instance %d: %v", i, err)
		}
		var total uint64
		for _, s := range stored.Sites {
			total += s.Allocated
		}
		return total
	}
	runInstance := func(i int, seed int64) {
		t.Helper()
		res, err := Run(&shiftApp{}, "w", Options{
			Duration:  16 * time.Minute,
			Warmup:    2 * time.Minute,
			Reprofile: 4 * time.Minute,
			Seed:      seed,
			Fleet:     f.client(t, seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Updates) == 0 {
			t.Fatalf("instance %d installed no plans", i)
		}
		if len(res.FleetEvents) != 0 {
			t.Fatalf("instance %d met fleet trouble against a healthy daemon: %+v", i, res.FleetEvents)
		}
	}

	var evidenceAfterFirst, evidenceAfterSecond uint64
	for i, seed := range []int64{1, 2} {
		runInstance(i, seed)
		total := storedTotal(i)
		if total == 0 {
			t.Fatalf("fleet profile after instance %d carries no evidence", i)
		}
		if i == 0 {
			evidenceAfterFirst = total
		} else if total <= evidenceAfterFirst {
			t.Fatalf("second instance's evidence did not merge: %d then %d", evidenceAfterFirst, total)
		} else {
			evidenceAfterSecond = total
		}
	}
	// Re-running an instance (same seed, hence the same derived instance
	// id) replays the identical cumulative evidence; the daemon replaces
	// that instance's contribution, so the fleet totals must not inflate —
	// within a run, each instance's n cumulative re-profiles already
	// counted once, and across runs the replay counts the same once.
	runInstance(1, 2)
	if total := storedTotal(1); total != evidenceAfterSecond {
		t.Fatalf("re-running instance 2 moved the fleet evidence %d -> %d (double-counted)", evidenceAfterSecond, total)
	}
	if got := f.srv.Metrics().Counter("evidence_merge_total").Value(); got < 2 {
		t.Fatalf("evidence_merge_total = %d, want at least one merge per instance", got)
	}
}

// TestOnlineFleetUnreachableKeepsPlan points the instance at a dead
// daemon: every sync records a FleetEvent, no plan is ever installed, and
// the run itself completes — the networked path must never turn daemon
// downtime into an outage.
func TestOnlineFleetUnreachableKeepsPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	dead, err := fleetclient.New(fleetclient.Options{
		BaseURL: "http://127.0.0.1:1", // nothing listens on port 1
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&shiftApp{}, "w", Options{
		Duration:  12 * time.Minute,
		Warmup:    2 * time.Minute,
		Reprofile: 4 * time.Minute,
		Fleet:     dead,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 0 {
		t.Fatalf("plans installed with an unreachable daemon: %+v", res.Updates)
	}
	if len(res.FleetEvents) == 0 {
		t.Fatal("no FleetEvents recorded against a dead daemon")
	}
	for _, ev := range res.FleetEvents {
		if ev.Err == "" || ev.Fallback {
			t.Fatalf("dead-daemon event should be a hard error: %+v", ev)
		}
	}
	if res.WarmOps == 0 {
		t.Fatal("run made no progress")
	}
}
