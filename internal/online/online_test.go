package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/core"
	"polm2/internal/heap"
	"polm2/internal/snapshot"
	"polm2/internal/workload"
)

// shiftApp changes its allocation behaviour halfway through the run: in the
// first phase objects allocated at Ingest.buffer:3 are middle-lived and
// Serve.cache:3 objects are transient; in the second phase the roles swap.
// A static profile is wrong for one of the phases; the online runner should
// adapt.
type shiftApp struct{}

var _ core.App = (*shiftApp)(nil)

func (*shiftApp) Name() string        { return "shift" }
func (*shiftApp) Workloads() []string { return []string{"w"} }

func (*shiftApp) ManualProfile(string) (*analyzer.Profile, error) {
	return nil, fmt.Errorf("shift: no manual profile")
}

func (*shiftApp) Run(env *core.Env, workloadName string) error {
	if workloadName != "w" {
		return fmt.Errorf("shift: unknown workload %q", workloadName)
	}
	th := env.VM().NewThread("shift")
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
		// Transient garbage keeps the GC cadence up.
		if _, err := th.Alloc(5, 16384); err != nil {
			return err
		}
		ingestLives := env.Now() < half

		th.Call(10, "Ingest", "write")
		ingest, err := th.Alloc(3, 768)
		th.Return()
		if err != nil {
			return err
		}
		th.Call(20, "Serve", "cache")
		serve, err := th.Alloc(3, 768)
		th.Return()
		if err != nil {
			return err
		}

		keep, drop := ingest, serve
		if !ingestLives {
			keep, drop = serve, ingest
		}
		_ = drop // dies when the frame's locals are released
		h.PinRoot(keep)
		retained = append(retained, entry{obj: keep, expiry: env.Now() + 90*time.Second})
		for len(retained) > 0 && retained[0].expiry <= env.Now() {
			h.UnpinRoot(retained[0].obj)
			retained = retained[1:]
		}
		th.ReleaseLocals()
		env.CountOps(1)
	}
	return nil
}

// A records directory that does not exist yet is created, as
// core.ProfileApp creates its own.
func TestOnlineCreatesRecordsDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run", "records")
	if _, err := Run(&shiftApp{}, "w", Options{
		Duration:   3 * time.Minute,
		Warmup:     time.Minute,
		Reprofile:  2 * time.Minute,
		RecordsDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("records dir %s is empty", dir)
	}
}

// foldChecker is a PlanService that installs each round's local profile
// unchanged, after holding it to AnalyzeSalvage over the same records and
// the images the run's tap collected so far: the replay a run finishes at
// each round must equal a fresh analysis of that round's window.
type foldChecker struct {
	t          *testing.T
	recordsDir string
	images     []*snapshot.Snapshot
	rounds     int
}

func (c *foldChecker) SyncEvidence(p *analyzer.Profile) (*analyzer.Profile, bool, error) {
	c.rounds++
	want, rep, err := analyzer.AnalyzeSalvage(c.recordsDir, c.images, analyzer.Options{App: p.App, Workload: p.Workload})
	if err != nil {
		c.t.Fatalf("round %d: AnalyzeSalvage over %d images: %v", c.rounds, len(c.images), err)
	}
	if !rep.Clean() {
		c.t.Fatalf("round %d: AnalyzeSalvage met damage in a clean run: %s", c.rounds, rep)
	}
	got, _ := json.Marshal(p)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		c.t.Fatalf("round %d over %d images: replay profile\n%s\ndiffers from AnalyzeSalvage\n%s", c.rounds, len(c.images), got, wantJSON)
	}
	return p, true, nil
}

func TestOnlineRunProducesUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	check := &foldChecker{t: t, recordsDir: t.TempDir()}
	res, err := Run(&shiftApp{}, "w", Options{
		Duration:   20 * time.Minute,
		Warmup:     2 * time.Minute,
		Reprofile:  4 * time.Minute,
		RecordsDir: check.recordsDir,
		Fleet:      check,
		tap:        func(s *snapshot.Snapshot) { check.images = append(check.images, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) < 3 {
		t.Fatalf("expected at least 3 plan updates, got %d", len(res.Updates))
	}
	if check.rounds != len(res.Updates) {
		t.Fatalf("%d rounds checked against AnalyzeSalvage, %d plan updates", check.rounds, len(res.Updates))
	}
	for i := 1; i < len(res.Updates); i++ {
		if res.Updates[i].At <= res.Updates[i-1].At {
			t.Fatal("plan updates not time-ordered")
		}
	}
	if res.WarmOps == 0 {
		t.Fatal("no operations completed")
	}
	// After the shift both sites have been middle-lived at some point:
	// the final profile instruments at least one of them, and the plan
	// history shows the analyzer reacting (site counts may change).
	last := res.Updates[len(res.Updates)-1]
	if last.Instrumented == 0 {
		t.Fatal("final plan instruments nothing")
	}
	t.Logf("updates: %+v", res.Updates)
	t.Logf("warm pauses: %d, p99=%v, worst=%v, ops=%d",
		res.WarmPauses.Len(), res.WarmPauses.Percentile(99), res.WarmPauses.Max(), res.WarmOps)
}

// TestOnlineAdaptsAfterShift compares the online runner against a static
// profile captured before the behaviour shift: after the shift the static
// plan mispretenures (its middle-lived site went transient and vice versa),
// so the online runner must end with at least as good pause times.
func TestOnlineAdaptsAfterShift(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	app := &shiftApp{}
	online, err := Run(app, "w", Options{
		Duration:  24 * time.Minute,
		Warmup:    4 * time.Minute,
		Reprofile: 4 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Static baseline: profile only the first (ingest) phase, then run
	// the full shifting workload with that stale plan.
	prof, err := core.ProfileApp(app, "w", core.ProfileOptions{Duration: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	static, err := core.RunApp(app, "w", core.CollectorNG2C, core.PlanPOLM2, prof.Profile, core.RunOptions{
		Duration: 24 * time.Minute,
		Warmup:   4 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("online p99=%v static(stale) p99=%v", online.WarmPauses.Percentile(99), static.WarmPauses.Percentile(99))
	// The stale profile pretenures a now-transient site for the whole
	// second half; the online runner corrects itself. Allow slack: the
	// online runner pays recording overhead.
	if online.WarmPauses.Percentile(99) > static.WarmPauses.Percentile(99)*3/2 {
		t.Fatalf("online p99 %v much worse than stale static %v",
			online.WarmPauses.Percentile(99), static.WarmPauses.Percentile(99))
	}
}

func TestOnlineOnCassandra(t *testing.T) {
	if testing.Short() {
		t.Skip("online run skipped in -short mode")
	}
	res, err := Run(cassandra.New(), cassandra.WorkloadWI, Options{
		Duration:  16 * time.Minute,
		Warmup:    4 * time.Minute,
		Reprofile: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) == 0 {
		t.Fatal("no plan updates on Cassandra")
	}
	last := res.Updates[len(res.Updates)-1]
	if last.Instrumented < 8 {
		t.Fatalf("final online plan instruments only %d sites", last.Instrumented)
	}
	t.Logf("cassandra online: updates=%d final=%+v p99=%v",
		len(res.Updates), last, res.WarmPauses.Percentile(99))
}
