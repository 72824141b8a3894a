package ng2c

import (
	"math/rand"
	"slices"
	"testing"

	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

func testConfig() Config {
	return Config{
		Heap: heap.Config{
			RegionSize: 16 * 1024,
			PageSize:   4096,
			MaxBytes:   64 * 16 * 1024,
		},
		YoungBytes:        8 * 16 * 1024,
		SurvivorFraction:  0.25,
		TenuringThreshold: 2,
		IHOP:              0.45,
		MaxMixedRegions:   4,
	}
}

func newCollector(t *testing.T) *Collector {
	t.Helper()
	c, err := New(simclock.New(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewGeneration(t *testing.T) {
	c := newCollector(t)
	if got := c.Generations(); got != 2 {
		t.Fatalf("initial generations = %d, want 2 (young+old)", got)
	}
	g1 := c.NewGeneration()
	g2 := c.NewGeneration()
	if g1 == g2 || g1 < firstDynamicGen || g2 < firstDynamicGen {
		t.Fatalf("dynamic generation ids wrong: %d, %d", g1, g2)
	}
	if got := c.Generations(); got != 4 {
		t.Fatalf("generations after two NewGeneration = %d, want 4", got)
	}
}

func TestPretenuredAllocationBypassesYoung(t *testing.T) {
	c := newCollector(t)
	gen := c.NewGeneration()
	obj, err := c.Allocate(512, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != gen {
		t.Fatalf("pretenured object in gen %d, want %d", obj.Gen(), gen)
	}
	c.Heap().PinRoot(obj)
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Age != 0 {
		t.Fatal("pretenured object was aged by a young collection")
	}
	if obj.Gen() != gen {
		t.Fatal("pretenured object moved by a young collection")
	}
}

func TestAllocateIntoUnknownGenerationFails(t *testing.T) {
	c := newCollector(t)
	if _, err := c.Allocate(512, 1, heap.GenID(7)); err == nil {
		t.Fatal("allocation into never-created generation should fail")
	}
}

// TestPretenuredRegionsDieCheap is the core NG2C mechanism (§2.2): a batch
// of same-lifetime objects pretenured together is reclaimed with no copying,
// whereas the same batch allocated young under the same collector gets
// copied to survivor space and promoted.
func TestPretenuredRegionsDieCheap(t *testing.T) {
	run := func(pretenure bool) (copied uint64) {
		c := newCollector(t)
		h := c.Heap()
		target := heap.Young
		if pretenure {
			target = c.NewGeneration()
		}
		var batch []*heap.Object
		for i := 0; i < 100; i++ {
			obj, err := c.Allocate(512, 1, target)
			if err != nil {
				t.Fatal(err)
			}
			h.PinRoot(obj)
			batch = append(batch, obj)
		}
		// Two collections while the batch lives (copying pressure).
		for i := 0; i < 2; i++ {
			if err := c.ForceCollect(); err != nil {
				t.Fatal(err)
			}
		}
		// Batch dies together; one more collection reclaims.
		for _, obj := range batch {
			h.UnpinRoot(obj)
		}
		if err := c.ForceCollect(); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Pauses() {
			copied += p.BytesCopied
		}
		return copied
	}
	young := run(false)
	pretenured := run(true)
	if pretenured >= young {
		t.Fatalf("pretenuring did not reduce copying: pretenured=%d young=%d", pretenured, young)
	}
	if pretenured != 0 {
		t.Fatalf("same-lifetime pretenured batch should copy nothing, copied %d", pretenured)
	}
}

func TestEmptyMatureRegionsFreedAtCleanup(t *testing.T) {
	c := newCollector(t)
	h := c.Heap()
	gen := c.NewGeneration()
	var batch []*heap.Object
	for i := 0; i < 100; i++ {
		obj, err := c.Allocate(512, 1, gen)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		batch = append(batch, obj)
	}
	before := c.MatureRegions()
	if before == 0 {
		t.Fatal("pretenured allocations committed no mature regions")
	}
	for _, obj := range batch {
		h.UnpinRoot(obj)
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if got := c.MatureRegions(); got != 0 {
		t.Fatalf("dead mature regions not reclaimed: %d remain (was %d)", got, before)
	}
	if h.Stats().Objects != 0 {
		t.Fatalf("dead pretenured objects not removed: %d remain", h.Stats().Objects)
	}
}

func TestMixedCollectionCompactsWithinGeneration(t *testing.T) {
	cfg := testConfig()
	cfg.IHOP = 0.05
	c, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Heap()
	gen := c.NewGeneration()
	var objs []*heap.Object
	for i := 0; i < 120; i++ {
		obj, err := c.Allocate(512, 1, gen)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	// Kill most of each region's objects so regions are garbage-rich but
	// not empty.
	for i, obj := range objs {
		if i%8 != 0 {
			h.UnpinRoot(obj)
		}
	}
	sawMixed := false
	for i := 0; i < 10 && !sawMixed; i++ {
		if err := c.ForceCollect(); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Pauses() {
			if p.Kind == gc.PauseMixed {
				sawMixed = true
			}
		}
	}
	if !sawMixed {
		t.Fatal("mixed collection never ran")
	}
	// Survivors of mixed compaction stay in their generation.
	for _, obj := range objs {
		if obj.Region() != nil && obj.Gen() != gen {
			t.Fatalf("mixed compaction changed generation: %v", obj)
		}
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken: %v", bad)
	}
}

// checkHeap runs the heap's checkers after a collection.
func checkHeap(t *testing.T, h *heap.Heap) {
	t.Helper()
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in %v", bad)
	}
	if bad := h.CheckPageInvariant(); len(bad) != 0 {
		t.Fatalf("page invariant broken in %v", bad)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// fullPauses counts the collector's full collections.
func fullPauses(c *Collector) int {
	n := 0
	for _, p := range c.Pauses() {
		if p.Kind == gc.PauseFull {
			n++
		}
	}
	return n
}

// A full collection keeps each surviving object's dynamic generation and
// tenures young survivors to Old. Pretenured garbage fills the heap
// without a young collection to reclaim it, which forces the full
// collections; a rooted chain links the young survivor to the pretenured
// one across regions.
func TestFullCollectPreservesGenerations(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 12 * 16 * 1024
	cfg.YoungBytes = 4 * 16 * 1024
	c, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Heap()
	gen, garbage := c.NewGeneration(), c.NewGeneration()
	pre, err := c.Allocate(512, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	young, err := c.Allocate(256, 2, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(young)
	if err := h.Link(young.ID, pre.ID); err != nil {
		t.Fatal(err)
	}
	c.OnCycleEnd(func(uint64, *heap.LiveSet) { checkHeap(t, h) })
	for i := 0; i < 1000; i++ {
		if _, err := c.Allocate(512, 1, garbage); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if fullPauses(c) == 0 {
		t.Fatal("heap pressure did not force a full collection")
	}
	if pre.Region() == nil || young.Region() == nil {
		t.Fatal("full GC lost a live object")
	}
	if pre.Gen() != gen {
		t.Fatalf("full GC moved pretenured object to gen %d, want %d", pre.Gen(), gen)
	}
	if young.Gen() != Old {
		t.Fatalf("full GC left young survivor in gen %d, want Old", young.Gen())
	}
	if young.RefCount(pre) != 1 {
		t.Fatal("full GC lost the survivors' edge")
	}
}

// A full collection copies into regions it must first make free: with one
// small pretenured object live in the first region and pretenured garbage
// filling every other one, evacuating region by region before sweeping
// ran out of memory at the first full collection (allocation 383).
func TestFullCollectFreesRoomBeforeEvacuating(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 12 * 16 * 1024
	cfg.YoungBytes = 4 * 16 * 1024
	c, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Heap()
	gen := c.NewGeneration()
	pinned, err := c.Allocate(512, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(pinned)
	first := pinned.Region()
	c.OnCycleEnd(func(uint64, *heap.LiveSet) { checkHeap(t, h) })
	for i := 0; i < 2000; i++ {
		if _, err := c.Allocate(512, 1, gen); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if n := fullPauses(c); n < 2 {
		t.Fatalf("%d full collections, want at least 2", n)
	}
	if !first.Freed() || pinned.Region() == nil || pinned.Gen() != gen {
		t.Fatalf("pinned object not evacuated within its generation: %v", pinned)
	}
	checkHeap(t, h)
}

// A full collection's pause records the live totals its trace counted and
// the regions it freed: all but the kept humongous one. Pretenured garbage fills the heap without a young collection to reclaim
// it, which forces the full collection; the one live object is humongous,
// so the collection sweeps it in place and needs no free region to copy
// into.
func TestFullCollectRecordsLiveTotals(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 12 * 16 * 1024
	cfg.YoungBytes = 4 * 16 * 1024
	c, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.NewGeneration()
	big, err := c.Allocate(10*1024, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	c.Heap().PinRoot(big)
	for i := 0; i < 1000; i++ {
		if _, err := c.Allocate(512, 1, gen); err != nil {
			t.Fatal(err)
		}
	}
	fulls := 0
	for _, p := range c.Pauses() {
		if p.Kind != gc.PauseFull {
			continue
		}
		fulls++
		if p.LiveObjects != 1 || p.LiveBytes != 10*1024 {
			t.Fatalf("full pause of cycle %d records %d live objects (%d B), want 1 (10240 B)", p.Cycle, p.LiveObjects, p.LiveBytes)
		}
		// Every region but the live humongous one ends empty and is
		// freed; that one is kept.
		if p.RegionsFreed != p.RegionsCollected-1 {
			t.Fatalf("full pause of cycle %d collected %d regions and freed %d, want all but the humongous one",
				p.Cycle, p.RegionsCollected, p.RegionsFreed)
		}
	}
	if big.Region() == nil {
		t.Fatal("the rooted humongous object was collected")
	}
	if fulls == 0 {
		t.Fatal("heap pressure did not force a full collection")
	}
}

func TestYoungPathMatchesG1Semantics(t *testing.T) {
	c := newCollector(t)
	h := c.Heap()
	obj, err := c.Allocate(256, 1, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(obj)
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Age != 1 || obj.Gen() != heap.Young {
		t.Fatalf("young object after 1 GC: %v", obj)
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != Old {
		t.Fatalf("young object not promoted at threshold: %v", obj)
	}
}

func TestHumongousAllocationYoungAndPretenured(t *testing.T) {
	c := newCollector(t)
	h := c.Heap()
	// Young-path humongous goes to Old.
	a, err := c.Allocate(10*1024, 1, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gen() != Old {
		t.Fatalf("young-path humongous in gen %d, want old", a.Gen())
	}
	aStamp := a.Stamp()
	// Pretenured humongous goes to its target generation.
	gen := c.NewGeneration()
	b, err := c.Allocate(10*1024, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gen() != gen {
		t.Fatalf("pretenured humongous in gen %d, want %d", b.Gen(), gen)
	}
	h.PinRoot(b)
	offset := b.Offset
	for i := 0; i < 3; i++ {
		if err := c.ForceCollect(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Offset != offset || b.Gen() != gen {
		t.Fatalf("humongous object was moved: %v", b)
	}
	// a was unrooted: its region must be reclaimed whole.
	if a.Stamp() == aStamp {
		t.Fatal("dead humongous object not reclaimed")
	}
}

// TestMixedCollectionMatureOrderDeterministic pins the order in which a
// mixed collection that compacts several dynamic generations appends their
// regions to the mature list: generation order, the same on every run.
func TestMixedCollectionMatureOrderDeterministic(t *testing.T) {
	run := func() []heap.RegionID {
		cfg := testConfig()
		cfg.IHOP = 0.01 // the first collection is mixed
		c, err := New(simclock.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := c.Heap()
		gens := []heap.GenID{c.NewGeneration(), c.NewGeneration(), c.NewGeneration()}
		// One region per generation, each mostly garbage but not empty.
		var kept []*heap.Object
		for i := 0; i < 30*len(gens); i++ {
			obj, err := c.Allocate(512, 1, gens[i%len(gens)])
			if err != nil {
				t.Fatal(err)
			}
			if i%8 == 0 {
				h.PinRoot(obj)
				kept = append(kept, obj)
			}
		}
		before := make([]*heap.Region, len(kept))
		for i, obj := range kept {
			before[i] = obj.Region()
		}
		if err := c.ForceCollect(); err != nil {
			t.Fatal(err)
		}
		if k := c.Pauses()[0].Kind; k != gc.PauseMixed {
			t.Fatalf("first collection is %s, want mixed", k)
		}
		compacted := map[heap.GenID]bool{}
		for i, obj := range kept {
			if obj.Region() != before[i] {
				compacted[obj.Gen()] = true
			}
		}
		if len(compacted) < 2 {
			t.Fatalf("mixed collection compacted %d dynamic generations, want >= 2", len(compacted))
		}
		ids := make([]heap.RegionID, len(c.mature))
		for i, r := range c.mature {
			ids[i] = r.ID()
		}
		return ids
	}
	want := run()
	for i := 1; i < 32; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d: mature regions %v, run 0 %v", i, got, want)
		}
	}
}

// TestG1IsNG2CWithoutGenerations: with mixed collections disabled (IHOP
// 1.0), the G1 baseline and NG2C without dynamic generations produce the
// same pauses — the mixed-collection cursor set-up is the only place the
// two differ.
func TestG1IsNG2CWithoutGenerations(t *testing.T) {
	cfg := testConfig()
	cfg.IHOP = 1.0
	pauses := func(c gc.Collector) []gc.Pause {
		rng := rand.New(rand.NewSource(3))
		h := c.Heap()
		var roots []*heap.Object
		for i := 0; i < 6000; i++ {
			size := uint32(32 + rng.Intn(1024))
			if rng.Intn(300) == 0 {
				size = 10 * 1024 // humongous
			}
			obj, err := c.Allocate(size, heap.SiteID(rng.Intn(8)+1), heap.Young)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(6) == 0 {
				h.PinRoot(obj)
				roots = append(roots, obj)
			}
			if len(roots) > 150 {
				j := rng.Intn(len(roots))
				h.UnpinRoot(roots[j])
				roots = append(roots[:j], roots[j+1:]...)
			}
		}
		return c.Pauses()
	}
	g1, err := NewG1(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := pauses(g1), pauses(ng)
	var promoted uint64
	for _, p := range want {
		promoted += p.PromotedBytes
		if p.Kind == gc.PauseMixed {
			t.Fatal("mixed collection at IHOP 1.0")
		}
	}
	if promoted == 0 {
		t.Fatal("script never promoted: nothing reaches the mature space")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("NG2C without generations paused differently from G1: %d vs %d pauses", len(got), len(want))
	}
}
