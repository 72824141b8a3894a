package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
)

// tinyConfig is small enough to run the whole experiment matrix in a few
// seconds while still exercising every collector, plan and ablation path.
func tinyConfig() Config {
	return Config{
		Scale:           128,
		ProfileDuration: 2 * time.Minute,
		RunDuration:     2 * time.Minute,
		Warmup:          30 * time.Second,
		Seed:            7,
	}
}

// zeroTimings strips the wall-clock fields, leaving only the deterministic
// part of a report.
func zeroTimings(r *Report) {
	r.TotalWallMS = 0
	r.Workers = 0
	for i := range r.Experiments {
		r.Experiments[i].WallMS = 0
	}
	for i := range r.Units {
		r.Units[i].WallMS = 0
	}
}

func runMatrix(t *testing.T, workers int) (string, *Report) {
	t.Helper()
	s := NewSession(tinyConfig())
	var buf bytes.Buffer
	report, err := s.RunExperiments(ExperimentNames(), &buf, ParallelOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	zeroTimings(report)
	return buf.String(), report
}

// tinyMatrixSHA256 pins the rendered output of the tiny-config experiment
// matrix. It locks simulated behaviour across host-side refactors of the
// simulation core (the memory-layout work of DESIGN.md §8 must never change
// a byte of output); an intentional change to experiments, workloads or
// collector policy is expected to update it.
const tinyMatrixSHA256 = "f5ac0995a7edafab4d6a46dd69316b9abf37054e4f93a129392903c377965376"

// TestRunExperimentsDeterministic is the golden determinism test: the full
// experiment matrix, same seed, run serially twice and once on eight
// workers, must render byte-identical output and produce identical JSON
// reports (timings aside) — and that output must match the pinned golden
// hash.
func TestRunExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	serial, serialReport := runMatrix(t, 1)
	again, _ := runMatrix(t, 1)
	parallel, parallelReport := runMatrix(t, 8)

	if serial != again {
		t.Fatal("two serial runs with the same seed rendered different output")
	}
	if serial != parallel {
		t.Fatal("workers=8 rendered different output than workers=1")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial))); got != tinyMatrixSHA256 {
		t.Fatalf("matrix output hash = %s, want pinned %s — simulated behaviour changed", got, tinyMatrixSHA256)
	}
	sj, err := json.Marshal(serialReport)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallelReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("reports differ after zeroing timings:\n%s\nvs\n%s", sj, pj)
	}
	if len(serialReport.Experiments) != len(ExperimentNames()) {
		t.Fatalf("report covers %d experiments, want %d", len(serialReport.Experiments), len(ExperimentNames()))
	}
	// The dump ablation prices the default profile's page counts, so the
	// only profiling simulations are one per target and the cadence
	// ablation's two; units are sorted by wave, then key.
	var profiles, want []string
	for _, u := range serialReport.Units {
		if u.Wave == "profile" {
			profiles = append(profiles, u.Key)
		}
	}
	for _, tg := range Targets() {
		want = append(want, "profile:"+tg.Key())
	}
	want = append(want, "profile:"+ablationTarget+"|cadence-2", "profile:"+ablationTarget+"|cadence-4")
	slices.Sort(want)
	if !slices.Equal(profiles, want) {
		t.Fatalf("report lists profile units %v, want %v", profiles, want)
	}
}

// TestSessionStressAllSetupsInFlight fetches every (target, collector,
// plan) setup plus every default profile from one session concurrently —
// far more than a RunExperiments call's worker slots would run at once —
// to give the race detector something to chew on and to check that
// single-flight caching returns one canonical result per key.
func TestSessionStressAllSetupsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	s := NewSession(tinyConfig())
	type fetch struct {
		key string
		do  func() (any, error)
	}
	var fetches []fetch
	for _, t2 := range Targets() {
		t2 := t2
		fetches = append(fetches, fetch{"profile:" + t2.Key(), func() (any, error) { return s.Profile(t2) }})
		setups := []struct {
			collector string
			plan      core.PlanKind
		}{
			{core.CollectorG1, core.PlanNone},
			{core.CollectorNG2C, core.PlanManual},
			{core.CollectorNG2C, core.PlanPOLM2},
			{core.CollectorC4, core.PlanNone},
		}
		for _, su := range setups {
			su := su
			fetches = append(fetches, fetch{
				fmt.Sprintf("run:%s/%s/%s", t2.Key(), su.collector, su.plan),
				func() (any, error) { return s.Run(t2, su.collector, su.plan) },
			})
		}
	}

	// Fetch everything twice, concurrently, so every cache key sees
	// contention both on first compute and on hit.
	results := make([][2]any, len(fetches))
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(fetches))
	for round := 0; round < 2; round++ {
		for i, f := range fetches {
			wg.Add(1)
			go func(round, i int, f fetch) {
				defer wg.Done()
				v, err := f.do()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", f.key, err)
					return
				}
				results[i][round] = v
			}(round, i, f)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, f := range fetches {
		if results[i][0] == nil || results[i][0] != results[i][1] {
			t.Fatalf("%s: concurrent fetches returned distinct results", f.key)
		}
	}
}

// failNth swaps the session simulators for ones that count the
// simulations started and make the n-th fail with the returned error
// instead of running it (n = 0 fails none). The others run as usual.
func failNth(t *testing.T, n int64) (started *atomic.Int64, boom error) {
	t.Helper()
	started = new(atomic.Int64)
	boom = errors.New("boom")
	origProfile, origRun := profileApp, runApp
	t.Cleanup(func() { profileApp, runApp = origProfile, origRun })
	profileApp = func(app core.App, workload string, opts core.ProfileOptions) (*core.ProfileResult, error) {
		if started.Add(1) == n {
			return nil, boom
		}
		return origProfile(app, workload, opts)
	}
	runApp = func(app core.App, workload, collectorName string, plan core.PlanKind, profile *analyzer.Profile, opts core.RunOptions) (*core.RunResult, error) {
		if started.Add(1) == n {
			return nil, boom
		}
		return origRun(app, workload, collectorName, plan, profile, opts)
	}
	return started, boom
}

// runFailing runs fig5 (6 profiles, 18 runs) with the third simulation
// failing, requires the call to return that failure, and returns the
// number of simulations started and the unit keys reported through
// Progress, each at most once.
func runFailing(t *testing.T, workers int) (started int64, units []string) {
	t.Helper()
	count, boom := failNth(t, 3)
	opts := ParallelOptions{Workers: workers, Progress: func(line string) {
		if _, key, ok := strings.Cut(line, "] "); ok {
			units = append(units, strings.Fields(key)[0])
		}
	}}
	returned := make(chan error, 1)
	go func() {
		_, err := NewSession(tinyConfig()).RunExperiments([]string{"fig5"}, io.Discard, opts)
		returned <- err
	}()
	var err error
	select {
	case err = <-returned:
	case <-time.After(2 * time.Minute):
		t.Fatalf("workers=%d: RunExperiments did not return after a failure", workers)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("workers=%d: err = %v, want the injected failure", workers, err)
	}
	seen := make(map[string]bool)
	for _, k := range units {
		if seen[k] {
			t.Fatalf("workers=%d: unit %s reported twice", workers, k)
		}
		seen[k] = true
	}
	return count.Load(), units
}

// TestRunExperimentsFailureStopsSerial checks the failure contract on one
// worker slot: the failing simulation holds the only slot until its
// failure is recorded, so exactly the two simulations before it succeed
// and are reported, and nothing starts after it.
func TestRunExperimentsFailureStopsSerial(t *testing.T) {
	started, units := runFailing(t, 1)
	if started != 3 {
		t.Fatalf("%d simulations started, want 3: none may start after the failure", started)
	}
	if len(units) != 2 {
		t.Fatalf("reported units %v, want the two that succeeded", units)
	}
}

// TestRunExperimentsFailureStopsConcurrent checks the same contract with
// four slots: besides the failing simulation, at most the three holding
// the other slots may have started, every one of them is reported once,
// and the call returns with no goroutine left waiting for a slot.
func TestRunExperimentsFailureStopsConcurrent(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()
	started, units := runFailing(t, workers)
	if started > 3+workers-1 {
		t.Fatalf("%d simulations started, want at most %d", started, 3+workers-1)
	}
	if int64(len(units)) != started-1 {
		t.Fatalf("reported %d units of %d started, one of which failed: every other one succeeds", len(units), started)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after RunExperiments returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunExperimentsUnknownName rejects unknown experiments before any
// simulation starts, even when a known one precedes them.
func TestRunExperimentsUnknownName(t *testing.T) {
	started, _ := failNth(t, 0)
	s := NewSession(tinyConfig())
	if _, err := s.RunExperiments([]string{"table1", "fig99"}, &bytes.Buffer{}, ParallelOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d simulations started before the unknown name was refused", n)
	}
}
