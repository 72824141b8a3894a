package dumper

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"polm2/internal/gc"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

// variantPages is the page selection of the dumper modes the dump ablation
// used to simulate, kept as the model of PageCounts. It walks every active
// region's resident list for the pages some resident's storage overlaps
// (occupied), reads each page's dirty and no-need bits off Pages, and
// counts per mode the pages that mode copied:
//
//   - both optimizations: dirty pages without the no-need bit;
//   - no-need elision off: dirty pages;
//   - incrementality off: occupied pages without the no-need bit;
//   - neither: occupied pages.
func variantPages(h *heap.Heap) heap.PageCounts {
	pageSize := h.Config().PageSize
	occupied := make(map[heap.PageKey]bool)
	for _, r := range h.ActiveRegions() {
		for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
			for i := obj.Offset / pageSize; i <= (obj.Offset+obj.Size-1)/pageSize; i++ {
				occupied[heap.PageKey{Region: r.ID(), Index: i}] = true
			}
		}
	}
	var c heap.PageCounts
	h.Pages(func(ps heap.PageState) {
		occ := occupied[ps.Key]
		for _, m := range []struct {
			n    *int
			copy bool
		}{
			{&c.DirtyNeeded, ps.Dirty && !ps.NoNeed},
			{&c.Dirty, ps.Dirty},
			{&c.UsedNeeded, occ && !ps.NoNeed},
			{&c.Used, occ},
		} {
			if m.copy {
				*m.n++
			}
		}
	})
	return c
}

// TestPageCountsPriceTheAblationModes runs NG2C over seeded
// alloc/link/unlink/collect scripts, with pretenured and humongous
// objects, and snapshots the heap after every collection in the
// Recorder's order (no-need marking, then the dump). Each snapshot's
// PageCounts must equal what the former ablation modes copied of the same
// heap (variantPages): the "used" counts rest on NG2C leaving no hole below
// a bump pointer. Pricing the default count with CRIUDump must give the
// snapshot's own size and duration.
func TestPageCountsPriceTheAblationModes(t *testing.T) {
	kinds := make(map[gc.PauseKind]int)
	for _, geom := range scriptGeoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("pages=%d/seed=%d", geom.RegionSize/geom.PageSize, seed), func(t *testing.T) {
				checkPageCounts(t, geom, seed, kinds)
			})
		}
	}
	// Every kind of NG2C pause must have preceded some snapshot: the
	// no-hole argument differs between them.
	if kinds[gc.PauseYoung] == 0 || kinds[gc.PauseMixed] == 0 || kinds[gc.PauseFull] == 0 {
		t.Fatalf("scripts collected with %v, want young, mixed and full pauses", kinds)
	}
}

// scriptGeoms are the heap geometries the seeded scripts run on: 8 pages
// of 4 KiB and 70 pages of 512 B per region.
var scriptGeoms = []heap.Config{
	{RegionSize: 32 * 1024, PageSize: 4096, MaxBytes: 64 * 32 * 1024},
	{RegionSize: 70 * 512, PageSize: 512, MaxBytes: 64 * 70 * 512},
}

// newScriptCollector builds the NG2C collector a seeded script runs on.
func newScriptCollector(t *testing.T, geom heap.Config) *ng2c.Collector {
	t.Helper()
	col, err := ng2c.New(simclock.New(), ng2c.Config{Heap: geom, YoungBytes: 8 * uint64(geom.RegionSize)})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// checkPageCounts runs one seeded script until its step budget or the
// heap runs out, adding its pause kinds to kinds.
func checkPageCounts(t *testing.T, geom heap.Config, seed int64, kinds map[gc.PauseKind]int) {
	col := newScriptCollector(t, geom)
	h := col.Heap()
	d := New(h, col.Clock(), Config{})
	var want []heap.PageCounts
	col.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
		h.MarkNoNeedPages(live)
		want = append(want, variantPages(h))
		if err := d.Snapshot(cycle); err != nil {
			t.Fatal(err)
		}
	})
	runScript(t, col, geom, seed)

	for _, p := range col.Pauses() {
		kinds[p.Kind]++
	}
	got, snaps := d.PageCounts(), d.Snapshots()
	if len(got) != len(want) || len(snaps) != len(want) || len(want) < 8 {
		t.Fatalf("%d counts and %d snapshots for %d collections (%v)", len(got), len(snaps), len(want), kinds)
	}
	var dirtyOnly, clean int
	for i, c := range got {
		if c != want[i] {
			t.Fatalf("snapshot %d: PageCounts %+v, the ablation modes copy %+v", i+1, c, want[i])
		}
		size, dur := d.cfg.Cost.CRIUDump(c.DirtyNeeded, geom.PageSize)
		if size != snaps[i].SizeBytes || dur != snaps[i].Duration {
			t.Fatalf("snapshot %d: CRIUDump(%d pages) = %d B in %v, the snapshot took %d B in %v",
				i+1, c.DirtyNeeded, size, dur, snaps[i].SizeBytes, snaps[i].Duration)
		}
		if c.Dirty > c.DirtyNeeded {
			dirtyOnly++
		}
		if c.UsedNeeded > c.DirtyNeeded {
			clean++
		}
	}
	// The four modes must actually differ on this heap, or the equalities
	// above test nothing.
	if dirtyOnly == 0 || clean == 0 {
		t.Fatalf("degenerate script: %d snapshots with dirty no-need pages, %d with clean needed pages (%v)", dirtyOnly, clean, kinds)
	}
}

// runScript drives col through one seeded alloc/link/unlink/collect
// script, with pretenured and humongous objects, until its step budget or
// the heap runs out. The caller's OnCycleEnd hooks see every collection.
func runScript(t *testing.T, col *ng2c.Collector, geom heap.Config, seed int64) {
	t.Helper()
	h := col.Heap()
	gen := col.NewGeneration()
	rng := rand.New(rand.NewSource(seed))
	type tracked struct {
		obj *heap.Object
		ttl int
	}
	var roots []tracked
	for step := 1; step <= 6000; step++ {
		target := heap.Young
		if rng.Intn(4) == 0 {
			target = gen
		}
		size := uint32(32 + rng.Intn(int(geom.RegionSize/8)))
		if rng.Intn(150) == 0 {
			size = geom.RegionSize/2 + uint32(rng.Intn(int(geom.RegionSize/2))) // humongous
		}
		obj, err := col.Allocate(size, heap.SiteID(rng.Intn(8)+1), target)
		if errors.Is(err, heap.ErrOutOfMemory) {
			break // full collections did all they could
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rng.Intn(4) == 0 {
			h.PinRoot(obj)
			roots = append(roots, tracked{obj, 100 + rng.Intn(1500)})
		}
		if len(roots) > 1 && rng.Intn(2) == 0 {
			a, b := roots[rng.Intn(len(roots))].obj, roots[rng.Intn(len(roots))].obj
			if rng.Intn(3) == 0 {
				_ = h.Unlink(a.ID, b.ID) // absent edges are fine
			} else if err := h.Link(a.ID, obj.ID); err != nil {
				t.Fatal(err)
			}
		}
		if step%32 == 0 {
			kept := roots[:0]
			for _, tr := range roots {
				if tr.ttl -= 32; tr.ttl > 0 {
					kept = append(kept, tr)
				} else {
					h.UnpinRoot(tr.obj)
				}
			}
			roots = kept
		}
		if step%700 == 0 {
			if err := col.ForceCollect(); errors.Is(err, heap.ErrOutOfMemory) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkDumperSnapshot snapshots a fixed heap of 64 regions with a
// quarter of them dirty: one reference store and its removal in each of 16
// regions per dump, so the graph is the same at every iteration. The top
// quarter of every region holds only dead objects, so its 16 pages stay
// no-need. It prices the page counts beside the walk of the dirty regions,
// and reports the no-need keys each dump lists (noneed/op).
func BenchmarkDumperSnapshot(b *testing.B) {
	h, err := heap.New(heap.Config{RegionSize: 256 * 1024, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	var firsts []*heap.Object
	for i := 0; i < 64; i++ {
		r, err := h.NewRegion(heap.Young)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; r.Used()+2048 <= 256*1024; j++ {
			obj, err := h.Allocate(r, uint32(512+j%7*256), 1)
			if err != nil {
				b.Fatal(err)
			}
			if j%3 != 0 && obj.Offset < 192*1024 {
				h.PinRoot(obj)
			}
			if j == 0 {
				firsts = append(firsts, obj)
			}
		}
	}
	h.MarkNoNeedPages(h.Trace())
	var listed noNeedCount
	d := New(h, simclock.New(), Config{Images: &listed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < len(firsts); r += 4 {
			a, c := firsts[r], firsts[(r+1)%len(firsts)]
			if err := h.Link(a.ID, c.ID); err != nil {
				b.Fatal(err)
			}
			if err := h.Unlink(a.ID, c.ID); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Snapshot(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(listed)/float64(b.N), "noneed/op")
}

// noNeedCount is an ImageSink counting the no-need keys the images list.
type noNeedCount int

func (c *noNeedCount) Add(s *snapshot.Snapshot) error {
	*c += noNeedCount(len(s.NoNeed))
	return nil
}
