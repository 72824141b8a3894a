package simnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
)

// runOnce executes one simulation into fresh temp storage, capturing the
// trace, and fails the test on a build error (not on violations — callers
// assert on the report).
func runOnce(t *testing.T, cfg Config) (*Report, *bytes.Buffer) {
	t.Helper()
	var trace bytes.Buffer
	cfg.StoreDir = t.TempDir()
	cfg.TraceWriter = &trace
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("simnet.Run: %v", err)
	}
	return rep, &trace
}

func requireOK(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep.Log())
	}
}

// TestReplayByteIdentical is the acceptance bar for the simulator's
// determinism: a 64-instance fleet under three partition windows plus
// percentage faults, run twice from one seed, must produce byte-identical
// traces and byte-identical invariant logs. Any wall-clock read, map
// iteration, or goroutine race on a decision path breaks this test before
// it breaks a production fleet.
func TestReplayByteIdentical(t *testing.T) {
	cfg := Config{
		Seed:      42,
		Instances: 64,
		Keys:      2,
		Rounds:    3,
		FaultSpec: "partition:inst-3..7@t=40s/20s;partition:inst-20..30@t=60s/35s;partition:inst-40..45@t=30s/50s;drop:upload%5;dup:upload%6;err5xx%3",
	}
	first, firstTrace := runOnce(t, cfg)
	requireOK(t, first)
	if first.Net.Refused == 0 {
		t.Fatal("three partition windows refused no traffic — the scenario did not exercise partitions")
	}
	if first.Net.Dropped == 0 || first.Net.Dup == 0 {
		t.Fatalf("percentage faults did not fire (dropped=%d dup=%d)", first.Net.Dropped, first.Net.Dup)
	}
	if first.TaintedDelivered == 0 {
		t.Fatal("no tainted evidence was delivered — the degradation invariant was vacuous")
	}

	second, secondTrace := runOnce(t, cfg)
	requireOK(t, second)
	if !bytes.Equal(firstTrace.Bytes(), secondTrace.Bytes()) {
		t.Errorf("traces diverge between runs of seed %d: %d vs %d bytes",
			cfg.Seed, firstTrace.Len(), secondTrace.Len())
		a, b := firstTrace.String(), secondTrace.String()
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < len(al) && i < len(bl); i++ {
			if al[i] != bl[i] {
				t.Fatalf("first divergence at trace line %d:\n  run1: %s\n  run2: %s", i, al[i], bl[i])
			}
		}
		t.FailNow()
	}
	if first.Log() != second.Log() {
		t.Fatalf("invariant logs diverge:\n--- run1\n%s--- run2\n%s", first.Log(), second.Log())
	}
}

// TestSeedsDiverge guards the other half of determinism: different seeds
// must explore different schedules, or the sweep is 32 copies of one run.
func TestSeedsDiverge(t *testing.T) {
	cfg := Config{Instances: 8, FaultSpec: "drop:upload%10"}
	cfg.Seed = 7
	_, traceA := runOnce(t, cfg)
	cfg.Seed = 8
	_, traceB := runOnce(t, cfg)
	if bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		t.Fatal("seeds 7 and 8 produced identical traces")
	}
}

// TestCleanNetworkConverges: with no faults at all, every invariant holds,
// every instance converges, and the coalescing accounting closes exactly.
func TestCleanNetworkConverges(t *testing.T) {
	rep, _ := runOnce(t, Config{Seed: 3, Instances: 12, Keys: 3})
	requireOK(t, rep)
	if len(rep.PerKey) != 3 {
		t.Fatalf("%d keys reported, want 3", len(rep.PerKey))
	}
	for _, k := range rep.PerKey {
		if k.Converged != k.Members {
			t.Errorf("key %s: %d/%d instances converged", k.Key, k.Converged, k.Members)
		}
		if k.DistinctInstances != k.Members {
			t.Errorf("key %s: %d distinct uploaders, want %d", k.Key, k.DistinctInstances, k.Members)
		}
	}
	if rep.Uploads != rep.Merges+rep.Coalesced {
		t.Errorf("uploads=%d != merges=%d + coalesced=%d", rep.Uploads, rep.Merges, rep.Coalesced)
	}
	if rep.Net != (netStats{}) {
		t.Errorf("clean network recorded faults: %+v", rep.Net)
	}
}

// TestFaultScenarios runs each fault class on its own and requires both
// that it actually fired and that every invariant survived it.
func TestFaultScenarios(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		fired func(n netStats) int
	}{
		{"drop", "drop%15", func(n netStats) int { return n.Dropped }},
		{"dup", "dup:upload%20", func(n netStats) int { return n.Dup }},
		{"stale", "stale:upload%30", func(n netStats) int { return n.Stale }},
		{"delay", "delay%25@250ms", func(n netStats) int { return n.Delayed }},
		{"err5xx", "err5xx%10", func(n netStats) int { return n.Err5xx }},
		{"partition", "partition:inst-2..5@t=35s/40s", func(n netStats) int { return n.Refused }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, _ := runOnce(t, Config{Seed: 11, Instances: 10, Rounds: 3, FaultSpec: tc.spec})
			requireOK(t, rep)
			if tc.fired(rep.Net) == 0 {
				t.Fatalf("fault %q never fired: %+v", tc.spec, rep.Net)
			}
		})
	}
}

// TestSweep is the in-process miniature of CI's seed sweep: several seeds
// over a mixed fault plan, every one of which must hold every invariant.
// The reproduction recipe on failure is the report's own log.
func TestSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rep, _ := runOnce(t, Config{
				Seed:      seed,
				Instances: 14,
				Keys:      2,
				FaultSpec: "partition:inst-4..9@t=45s/25s;drop:upload%4;dup:upload%5;stale:upload%5;err5xx%2",
			})
			requireOK(t, rep)
		})
	}
}

// TestReportLogShape pins the log's load-bearing lines: the seed sweep's
// failure output is an operator's only reproduction recipe, so the seed,
// the effective fault spec, and the invariant verdict must all be in it.
func TestReportLogShape(t *testing.T) {
	rep, _ := runOnce(t, Config{Seed: 5, Instances: 4, FaultSpec: "drop%10"})
	log := rep.Log()
	for _, want := range []string{"seed=5", `faults="seed=5;drop%10"`, "invariants: ok", "key App0/w:"} {
		if !strings.Contains(log, want) {
			t.Errorf("log is missing %q:\n%s", want, log)
		}
	}
}

// TestConfigErrors: a broken fault spec or a missing store dir fail the
// build of the simulation, not the invariants.
func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{StoreDir: t.TempDir(), FaultSpec: "detonate%50"}); err == nil {
		t.Error("unknown fault kind built a simulation")
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("missing StoreDir built a simulation")
	}
}

// TestVirtualTimeOnly: a full run's simulated horizon is minutes of
// virtual time; if it also took minutes of wall time, something inside is
// sleeping for real.
func TestVirtualTimeOnly(t *testing.T) {
	start := time.Now()
	rep, _ := runOnce(t, Config{Seed: 9, Instances: 24, FaultSpec: "drop%8"})
	requireOK(t, rep)
	if rep.SimTime < time.Minute {
		t.Errorf("simulated only %v, want minutes of virtual time", rep.SimTime)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Errorf("run took %v of wall time for %v of simulated time", wall, rep.SimTime)
	}
}

// TestCheckerCatchesOutOfBandUpload keeps the invariant checker honest:
// the pinned hashes cover clean runs only, so a checker gone vacuous would
// still pass them. After the fleet quiesces, one upload is handed straight
// to daemon-0's handler — past the fabric, so the delivery log never sees
// it — and merged. The per-key checker must flag daemon-0's plan as no
// longer the merge of delivered evidence, and the counter checker its
// upload count as more than the fabric delivered, on one daemon and on
// two alike.
func TestCheckerCatchesOutOfBandUpload(t *testing.T) {
	for _, daemons := range []int{1, 2} {
		t.Run(fmt.Sprintf("daemons=%d", daemons), func(t *testing.T) {
			s, err := build(Config{Seed: 3, Instances: 6, Daemons: daemons, StoreDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			s.run()
			body, err := json.Marshal(&analyzer.Profile{App: "App0", Workload: "w", Sites: []analyzer.SiteStat{
				{Trace: "App0.serve:1;Intruder.run:9", Allocated: 8, Buckets: []uint64{2, 6}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, "/v1/evidence", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(planserver.InstanceHeader, "intruder")
			w := newMemWriter()
			s.srvs[0].ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("out-of-band upload = %d: %s", w.code, w.body.String())
			}
			s.flushAll()
			rep := s.report()
			if rep.OK() {
				t.Fatalf("checker accepted a plan built from evidence the fabric never delivered:\n%s", rep.Log())
			}
			for _, want := range []string{
				"plan identity: " + s.daemonLabel(0) + " serves",
				"counter accounting: " + s.daemonLabel(0) + " counted",
			} {
				if !strings.Contains(rep.Log(), want) {
					t.Fatalf("no %q violation:\n%s", want, rep.Log())
				}
			}
		})
	}
}

// rewriteBodies wraps a daemon so every 200 it answers under an ETag
// carries the body rewrite returns in place of the daemon's own.
type rewriteBodies struct {
	srv     http.Handler
	rewrite func(body []byte) []byte
}

func (h rewriteBodies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := newMemWriter()
	h.srv.ServeHTTP(rec, r)
	body := rec.body.Bytes()
	if rec.code == http.StatusOK && rec.header.Get("ETag") != "" {
		body = h.rewrite(body)
	}
	for k, v := range rec.header {
		w.Header()[k] = v
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.code)
	w.Write(body)
}

// TestCheckerCatchesWrongServedBody keeps the served-body invariants from
// going vacuous: the ETag addresses the full plan's encoding, so nothing
// on the wire ties a body to its tag. A daemon that ships its whole plan
// (per-site evidence included) under the right ETags, or two different
// bodies under one ETag, must be flagged on one daemon and on two alike.
func TestCheckerCatchesWrongServedBody(t *testing.T) {
	fullPlan := func(t *testing.T, store *profilestore.Store) func([]byte) []byte {
		return func(body []byte) []byte {
			var p analyzer.Profile
			if err := json.Unmarshal(body, &p); err != nil {
				t.Errorf("served body does not decode: %v", err)
				return body
			}
			full, err := store.Get(p.App, p.Workload)
			if err != nil {
				t.Errorf("stored plan: %v", err)
				return body
			}
			out, err := json.Marshal(full)
			if err != nil {
				t.Errorf("encoding the stored plan: %v", err)
				return body
			}
			return append(out, '\n')
		}
	}
	alternating := func(*testing.T, *profilestore.Store) func([]byte) []byte {
		n := 0
		return func(body []byte) []byte {
			if n++; n%2 == 0 {
				return append(bytes.TrimSuffix(body, []byte("\n")), " \n"...)
			}
			return body
		}
	}
	cases := []struct {
		name    string
		rewrite func(*testing.T, *profilestore.Store) func([]byte) []byte
		want    string
	}{
		{"plan-file", fullPlan, "served projection: "},
		{"two-bodies", alternating, "serves a second body under"},
	}
	for _, tc := range cases {
		for _, daemons := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/daemons=%d", tc.name, daemons), func(t *testing.T) {
				s, err := build(Config{Seed: 3, Instances: 6, Daemons: daemons, StoreDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				for i, srv := range s.srvs {
					host := "polm2d.simnet"
					if daemons > 1 {
						host = daemonName(i) + ".simnet"
					}
					s.net.route(host, rewriteBodies{srv: srv, rewrite: tc.rewrite(t, s.stores[i])})
				}
				s.run()
				rep := s.report()
				if rep.OK() {
					t.Fatalf("checker accepted a daemon serving the wrong bodies:\n%s", rep.Log())
				}
				if !strings.Contains(rep.Log(), tc.want) {
					t.Fatalf("no %q violation:\n%s", tc.want, rep.Log())
				}
			})
		}
	}
}
