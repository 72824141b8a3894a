package heap

import "testing"

// benchGraph builds a heap populated with n rooted objects in as many
// regions as they need, each linked to its two successors — a fanout that
// matches what the simulated apps produce (holder objects referencing a
// handful of children).
func benchGraph(b *testing.B, n int) (*Heap, []*Object) {
	b.Helper()
	h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*Object, 0, n)
	r, err := h.NewRegion(Young)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if r.Used()+256 > h.Config().RegionSize {
			if r, err = h.NewRegion(Young); err != nil {
				b.Fatal(err)
			}
		}
		obj, err := h.Allocate(r, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	for i, obj := range objs {
		for k := 1; k <= 2; k++ {
			if i+k < len(objs) {
				if err := h.Link(obj.ID, objs[i+k].ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return h, objs
}

// BenchmarkTrace measures a full-heap trace over a 10k-object graph — the
// operation every simulated GC cycle starts with.
func BenchmarkTrace(b *testing.B) {
	h, _ := benchGraph(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := h.Trace()
		if ls.Objects != 10_000 {
			b.Fatalf("live = %d", ls.Objects)
		}
	}
}

// BenchmarkMarkNoNeedPages measures the §4.2 madvise pass the Recorder runs
// before every snapshot.
func BenchmarkMarkNoNeedPages(b *testing.B) {
	h, _ := benchGraph(b, 10_000)
	live := h.Trace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MarkNoNeedPages(live)
	}
}

// BenchmarkMarkNoNeedPagesWithGarbage runs the same pass over a heap where
// two residents in five are dead, about Cassandra-WI's share at its
// snapshots (0.82 M live of 1.35 M residents). The dead keep their edges
// to live objects but nothing reaches them.
func BenchmarkMarkNoNeedPagesWithGarbage(b *testing.B) {
	h, objs := benchGraph(b, 10_000)
	dead := func(i int) bool { return i%5 < 2 }
	for i, obj := range objs {
		if dead(i) {
			h.UnpinRoot(obj)
		}
		for k := 1; k <= 2; k++ {
			if i+k < len(objs) && dead(i+k) {
				if err := h.Unlink(obj.ID, objs[i+k].ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	live := h.Trace()
	if live.Objects != 6_000 {
		b.Fatalf("live = %d", live.Objects)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MarkNoNeedPages(live)
	}
}

// BenchmarkLinkUnlink measures reference-field store churn: the mutator-side
// hot path of every simulated workload.
func BenchmarkLinkUnlink(b *testing.B) {
	h, objs := benchGraph(b, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := objs[i%len(objs)]
		c := objs[(i*7+3)%len(objs)]
		if err := h.Link(a.ID, c.ID); err != nil {
			b.Fatal(err)
		}
		if err := h.Unlink(a.ID, c.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRemoveChurn measures steady-state object turnover: short-
// lived objects are allocated, linked into a rooted holder, unlinked and
// removed, with the backing region freed and recommitted as it fills —
// exactly the young-generation churn a GC cycle performs.
func BenchmarkAllocRemoveChurn(b *testing.B) {
	h, roots := benchGraph(b, 64)
	holder := roots[0]
	r, err := h.NewRegion(Young)
	if err != nil {
		b.Fatal(err)
	}
	const size = 256
	batch := make([]*Object, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = batch[:0]
		for k := 0; k < 64; k++ {
			if r.Used()+size > h.Config().RegionSize {
				b.StopTimer()
				for _, obj := range batch {
					if err := h.Unlink(holder.ID, obj.ID); err != nil {
						b.Fatal(err)
					}
					h.Remove(obj)
				}
				batch = batch[:0]
				h.FreeRegion(r)
				if r, err = h.NewRegion(Young); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			obj, err := h.Allocate(r, size, 2)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Link(holder.ID, obj.ID); err != nil {
				b.Fatal(err)
			}
			batch = append(batch, obj)
		}
		for _, obj := range batch {
			if err := h.Unlink(holder.ID, obj.ID); err != nil {
				b.Fatal(err)
			}
			h.Remove(obj)
		}
	}
}
