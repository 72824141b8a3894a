package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestEveryWorkloadEmitsEveryMetric is the smoke test that keeps the
// benchmark building and honest under `go test ./...` without paying for
// it: every workload runs at a tiny scale, traced and untraced, and must
// emit every declared name exactly once with a finite value, fail no
// operation, measure the names it is the home of and print the not-measured
// placeholder under every other.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, workload := range allWorkloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: workload, Seed: 7, Seconds: referenceSeconds, Trace: traced, Tiny: true, WorkDir: t.TempDir()}
			res, _, _, err := execute(cfg, time.Now())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", workload, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", workload, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", workload, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", workload, traced, m.Name)
					continue
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", workload, traced, m.Name, v.Value, v.Unit, m.Unit)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", workload, m.Name)
				}
				if placeholder := v.Value == notMeasured(cfg.Seed); placeholder == m.measuredBy(workload) {
					t.Errorf("%s traced=%v: %s = %v, placeholder=%v but measuredBy=%v", workload, traced, m.Name, v.Value, placeholder, !placeholder)
				}
			}
		}
	}
}

// TestMetricTableMatchesBenchmarkJSON pins the Go metric table to the
// contract file at the repository root: same workloads, same end-to-end
// names with unit, direction and bound, same per-layer names.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(contract.Workloads), len(allWorkloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, w.Name, allWorkloads[i])
		}
	}
	compare := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, table %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json %v, table %v", m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	compare("end_to_end", contract.EndToEnd, endToEnd, true)
	compare("per_layer", contract.PerLayer, perLayer, false)
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSpanSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	l := &spanLog{}
	at := func(ns int64) time.Time { return l.origin.Add(time.Duration(ns)) }
	l.add(noParent, "a", "root", 0, at(0), at(100))
	root := spanRef{log: l, id: 0}
	l.add(root, "b", "kid", 0, at(10), at(40))
	l.add(root, "b", "kid", 1, at(30), at(60)) // overlaps the first: concurrent clients
	l.add(root, "b", "kid", warmupOp, at(70), at(80))
	l.finish()
	if got := l.spans[0].SelfNS; got != 40 {
		t.Errorf("root self time %d, want 100 - (10..60) - (70..80) = 40", got)
	}
	if got := l.selfSum("b", "kid"); got != 60 {
		t.Errorf("timed kid self sum %d, want 60 (warm-up span left out)", got)
	}
}
