// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one testing.B benchmark per artifact, plus micro-benchmarks of the
// simulation substrate. Each figure benchmark performs the full set of
// profiling and production runs behind that figure; b.N iterations repeat
// the whole experiment with fresh sessions.
//
//	go test -bench=. -benchmem
package polm2

import (
	"io"
	"testing"
	"time"

	"polm2/internal/bench"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/simclock"
)

// benchConfig shortens the production runs so a full -bench=. pass stays in
// the minutes range; EXPERIMENTS.md records full-length (30-simulated-
// minute) numbers produced by cmd/polm2-bench.
func benchConfig() bench.Config {
	return bench.Config{
		RunDuration: 10 * time.Minute,
		Warmup:      2 * time.Minute,
	}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		session := bench.NewSession(benchConfig())
		if err := session.RunExperiment(name, io.Discard); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (application profiling metrics).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure3 regenerates Figure 3 (snapshot time, Dumper vs jmap).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates Figure 4 (snapshot size, Dumper vs jmap).
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates Figure 5 (pause-time percentiles).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (pause counts per interval).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7 (throughput normalized to G1).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8 (Cassandra throughput series).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates Figure 9 (max memory normalized to G1).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkAblationDump measures the Dumper-optimization ablation
// (DESIGN.md §5.1).
func BenchmarkAblationDump(b *testing.B) { runExperiment(b, "ablation-dump") }

// BenchmarkAblationConflict measures the conflict-resolution ablation
// (DESIGN.md §5.2).
func BenchmarkAblationConflict(b *testing.B) { runExperiment(b, "ablation-conflict") }

// BenchmarkAblationHoist measures the generation-hoisting ablation
// (DESIGN.md §5.3).
func BenchmarkAblationHoist(b *testing.B) { runExperiment(b, "ablation-hoist") }

// Substrate micro-benchmarks.

func newBenchEngine(b *testing.B) *jvm.VM {
	b.Helper()
	col, err := ng2c.NewG1(simclock.New(), ng2c.Config{
		Heap: heap.Config{
			RegionSize: 256 << 10,
			PageSize:   4096,
			MaxBytes:   192 << 20,
		},
		YoungBytes: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return jvm.New(col)
}

// BenchmarkEngineAlloc measures the engine's allocation fast path
// (site interning + pinning + collector bump allocation), including the
// young collections it triggers.
func BenchmarkEngineAlloc(b *testing.B) {
	vm := newBenchEngine(b)
	th := vm.NewThread("bench")
	th.Enter("Bench", "run")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Alloc(1, 512); err != nil {
			b.Fatal(err)
		}
		if i%64 == 0 {
			th.ReleaseLocals()
		}
	}
}

// BenchmarkHeapTrace measures a full heap trace over a linked live set.
func BenchmarkHeapTrace(b *testing.B) {
	h, err := heap.New(heap.Config{RegionSize: 256 << 10, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		b.Fatal(err)
	}
	var prev *heap.Object
	for i := 0; i < 50000; i++ {
		if r.Used()+64 > 256<<10 {
			r, err = h.NewRegion(heap.Young)
			if err != nil {
				b.Fatal(err)
			}
		}
		obj, err := h.Allocate(r, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i%100 == 0 {
			if err := h.AddRoot(obj.ID); err != nil {
				b.Fatal(err)
			}
			prev = obj
		} else if prev != nil {
			if err := h.Link(prev.ID, obj.ID); err != nil {
				b.Fatal(err)
			}
			prev = obj
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := h.Trace()
		if ls.Objects == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkYoungCollection measures one young collection over a mostly-dead
// eden, the collector's hottest path.
func BenchmarkYoungCollection(b *testing.B) {
	vm := newBenchEngine(b)
	th := vm.NewThread("bench")
	th.Enter("Bench", "run")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 4096; j++ {
			if _, err := th.Alloc(1, 512); err != nil {
				b.Fatal(err)
			}
			th.ReleaseLocals()
		}
		b.StartTimer()
		if err := vm.Collector().ForceCollect(); err != nil {
			b.Fatal(err)
		}
	}
}
