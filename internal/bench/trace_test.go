package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"polm2/internal/trace"
)

// runTraced runs one experiment with tracing on and returns the collected
// trace bytes.
func runTraced(t *testing.T, workers int) string {
	t.Helper()
	cfg := tinyConfig()
	cfg.Trace = true
	s := NewSession(cfg)
	if _, err := s.RunExperiments([]string{"fig5"}, io.Discard, ParallelOptions{Workers: workers}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("workers=%d: writing trace: %v", workers, err)
	}
	return buf.String()
}

// TestTraceDeterministic pins the acceptance contract for bench tracing:
// the concatenated per-unit trace is byte-identical across repeated serial
// runs and across worker counts. Per-unit tracers plus a sorted merge make
// the schedule invisible in the output.
func TestTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("traced experiment runs in -short mode")
	}
	serial := runTraced(t, 1)
	again := runTraced(t, 1)
	parallel := runTraced(t, 8)

	if serial == "" {
		t.Fatal("traced run produced no trace output")
	}
	if serial != again {
		t.Fatal("two serial traced runs with the same seed differ")
	}
	if serial != parallel {
		t.Fatal("workers=8 trace differs from workers=1")
	}

	recs, err := trace.Decode(strings.NewReader(serial))
	if err != nil {
		t.Fatalf("bench trace does not decode: %v", err)
	}
	var units, gcSpans int
	for _, r := range recs {
		if r.Comp == "bench" && r.Name == "unit" {
			units++
		}
		if r.Comp == "gc" && r.Kind == trace.KindSpan {
			gcSpans++
		}
	}
	if units == 0 {
		t.Fatal("trace carries no bench/unit markers")
	}
	if gcSpans == 0 {
		t.Fatal("trace carries no gc spans from the simulated runs")
	}
}

// TestTraceOffByDefault checks that an untraced session writes nothing:
// tracing must stay pay-for-what-you-use.
func TestTraceOffByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	s := NewSession(tinyConfig())
	if _, err := s.RunExperiments([]string{"fig5"}, io.Discard, ParallelOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("untraced session wrote %d trace bytes", buf.Len())
	}
}

// TestFigure3ProfilesAreTracedAndFaulted renders fig3 alone under a traced,
// fault-injected session. Figures 3 and 4 read the targets' default
// profiles, so each of the six profiling runs must be a traced unit and
// must have analyzed its damaged artifacts in salvage mode.
func TestFigure3ProfilesAreTracedAndFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("traced experiment run in -short mode")
	}
	cfg := tinyConfig()
	cfg.Trace = true
	cfg.FaultSpec = "seed=7;torn:site-*.bin"
	s := NewSession(cfg)
	if _, err := s.RunExperiments([]string{"fig3"}, io.Discard, ParallelOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	traced := make(map[string]bool)
	for _, r := range recs {
		if r.Comp == "bench" && r.Name == "unit" {
			traced[r.Str("kind")+":"+r.Str("key")] = true
		}
	}
	for _, target := range Targets() {
		if key := "profile:" + target.Key(); !traced[key] {
			t.Errorf("fig3's trace has no unit %s (traced: %v)", key, traced)
		}
		res, err := s.Profile(target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Salvage == nil {
			t.Errorf("%s: fig3's profile ran without the session's faults", target.Key())
		}
	}
}
