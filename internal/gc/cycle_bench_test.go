package gc

import (
	"testing"
	"time"

	"polm2/internal/heap"
	"polm2/internal/trace"
)

// benchCostModel prices the synthetic pauses the tracing guards use.
func benchCostModel() CostModel {
	return CostModel{
		Base:            500 * time.Microsecond,
		PerRegion:       50 * time.Microsecond,
		PerRemsetEntry:  100 * time.Nanosecond,
		PerCopiedByte:   2 * time.Nanosecond,
		PerCopiedObject: 300 * time.Nanosecond,
	}
}

// benchPause is a representative young-collection pause record.
func benchPause(cycle uint64) Pause {
	return Pause{
		Start:            time.Duration(cycle) * 12 * time.Second,
		Duration:         18 * time.Millisecond,
		Kind:             PauseYoung,
		Cycle:            cycle,
		BytesCopied:      2 << 20,
		ObjectsCopied:    700,
		RegionsCollected: 128,
		RegionsFreed:     120,
	}
}

// benchHeap builds a heap with a long-lived rooted population in an old
// region, simulating the retained working set a steady-state cycle scans
// past.
func benchHeap(b *testing.B) (*heap.Heap, []*heap.Object) {
	b.Helper()
	h, err := heap.New(heap.Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	old, err := h.NewRegion(heap.GenID(1))
	if err != nil {
		b.Fatal(err)
	}
	retained := make([]*heap.Object, 0, 512)
	for i := 0; i < 512; i++ {
		obj, err := h.Allocate(old, 512, 1)
		if err != nil {
			b.Fatal(err)
		}
		h.PinRoot(obj)
		retained = append(retained, obj)
	}
	return h, retained
}

// fillEden allocates count transient objects into fresh young regions,
// linking every fourth one to a retained holder so a deterministic quarter
// of them survive the next trace.
func fillEden(b *testing.B, h *heap.Heap, retained []*heap.Object, count int) []*heap.Region {
	b.Helper()
	var eden []*heap.Region
	var cur *heap.Region
	for i := 0; i < count; i++ {
		if cur == nil || cur.Used()+256 > h.Config().RegionSize {
			r, err := h.NewRegion(heap.Young)
			if err != nil {
				b.Fatal(err)
			}
			eden = append(eden, r)
			cur = r
		}
		obj, err := h.Allocate(cur, 256, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			holder := retained[i%len(retained)]
			if err := h.Link(holder.ID, obj.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	return eden
}

// BenchmarkSweepRegion measures sweeping mostly-dead regions (the young
// collection fast path): per iteration fresh regions are filled with 1k
// objects of which a quarter survive, traced, swept, and freed; the
// unlink/reclaim of survivors is excluded from the timing.
func BenchmarkSweepRegion(b *testing.B) {
	h, retained := benchHeap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eden := fillEden(b, h, retained, 1024)
		live := h.Trace()
		b.StartTimer()
		for _, r := range eden {
			SweepRegion(h, r, live)
		}
		b.StopTimer()
		unlinkSurvivors(b, h, retained)
		reclaimYoungGarbage(b, h, eden)
		b.StartTimer()
	}
}

// unlinkSurvivors clears every retained holder's outgoing edges.
func unlinkSurvivors(b *testing.B, h *heap.Heap, retained []*heap.Object) {
	b.Helper()
	type edge struct {
		child *heap.Object
		n     int
	}
	var edges []edge
	for _, holder := range retained {
		edges = edges[:0]
		holder.EachRef(func(child *heap.Object, n int) {
			edges = append(edges, edge{child, n})
		})
		for _, e := range edges {
			for k := 0; k < e.n; k++ {
				if err := h.Unlink(holder.ID, e.child.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// reclaimYoungGarbage sweeps and frees the given regions.
func reclaimYoungGarbage(b *testing.B, h *heap.Heap, regions []*heap.Region) {
	b.Helper()
	live := h.Trace()
	for _, r := range regions {
		SweepRegion(h, r, live)
		if r.ResidentCount() == 0 {
			h.FreeRegion(r)
		}
	}
}

// BenchmarkSteadyStateGCCycle is the headline benchmark: one complete
// steady-state young collection — mutator allocation churn, full-heap
// trace, evacuation of survivors, sweep of garbage, region reclamation —
// against a fixed retained working set. allocs/op here is what the host Go
// runtime pays per simulated GC cycle. The cycle also passes through the
// disabled trace hook every iteration: with tracing off the hook must be
// invisible in both ns/op and allocs/op (the zero-alloc contract is pinned
// hard by TestDisabledTracerZeroAllocs).
func BenchmarkSteadyStateGCCycle(b *testing.B) {
	h, retained := benchHeap(b)
	var tracer *trace.Tracer // nil: tracing disabled
	model := benchCostModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eden := fillEden(b, h, retained, 2048)
		live := h.Trace()
		cursor := NewCursor(h, heap.GenID(1))
		for _, r := range eden {
			if _, _, err := EvacuateAndFree(h, r, live, cursor.Place); err != nil {
				b.Fatal(err)
			}
		}
		unlinkSurvivors(b, h, retained)
		reclaimYoungGarbage(b, h, cursor.Regions())
		TraceCycle(tracer, model, benchPause(uint64(i)))
	}
}

// BenchmarkTraceCycleDisabled isolates the disabled hook: the whole
// per-cycle tracing surface (cycle span plus four phase spans) reduced to
// its guard. Expect ~1ns and 0 allocs/op.
func BenchmarkTraceCycleDisabled(b *testing.B) {
	var tracer *trace.Tracer
	model := benchCostModel()
	p := benchPause(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TraceCycle(tracer, model, p)
	}
}

// TestDisabledTracerZeroAllocs pins the cost contract the hot paths rely
// on: a nil tracer's per-cycle hook allocates nothing. (The benchmark
// above shows it; this fails the build the moment it regresses.)
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tracer *trace.Tracer
	model := benchCostModel()
	p := benchPause(1)
	if got := testing.AllocsPerRun(1000, func() {
		TraceCycle(tracer, model, p)
		TracePauses(tracer, model, nil)
	}); got != 0 {
		t.Fatalf("disabled tracer allocates %v per GC cycle, want 0", got)
	}
}

// BenchmarkEvacuateRegion measures region-to-region evacuation of a live
// population: the copying work of mixed and full collections. From the
// second iteration on, the residents lie in evacuation order already, as
// they do in a region a previous collection filled.
func BenchmarkEvacuateRegion(b *testing.B) {
	h, err := heap.New(heap.Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	src, err := h.NewRegion(heap.Young)
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*heap.Object, 0, 1024)
	for i := 0; i < 1024; i++ {
		obj, err := h.Allocate(src, 512, 1)
		if err != nil {
			b.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	for i := 0; i+1 < len(objs); i += 2 {
		if err := h.Link(objs[i].ID, objs[i+1].ID); err != nil {
			b.Fatal(err)
		}
	}
	live := h.Trace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err := h.NewRegion(heap.Young)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := EvacuateAndFree(h, src, live, func(obj *heap.Object) error { return h.Evacuate(obj, dst) }); err != nil {
			b.Fatal(err)
		}
		src = dst
	}
}

// BenchmarkEvacuateRegionUnsorted evacuates 1024 live residents that lie
// in allocation order, so their evacuation keys come in random order, as
// in an eden region. Filling the source region and reclaiming the
// destination are not timed.
func BenchmarkEvacuateRegionUnsorted(b *testing.B) {
	h, err := heap.New(heap.Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*heap.Object, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src, err := h.NewRegion(heap.Young)
		if err != nil {
			b.Fatal(err)
		}
		objs = objs[:0]
		for k := 0; k < 1024; k++ {
			obj, err := h.Allocate(src, 512, 1)
			if err != nil {
				b.Fatal(err)
			}
			h.PinRoot(obj)
			objs = append(objs, obj)
		}
		for k := 0; k+1 < len(objs); k += 2 {
			if err := h.Link(objs[k].ID, objs[k+1].ID); err != nil {
				b.Fatal(err)
			}
		}
		live := h.Trace()
		dst, err := h.NewRegion(heap.Young)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := EvacuateAndFree(h, src, live, func(obj *heap.Object) error { return h.Evacuate(obj, dst) }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, obj := range objs {
			h.UnpinRoot(obj)
			h.Remove(obj)
		}
		h.FreeRegion(dst)
		b.StartTimer()
	}
}
