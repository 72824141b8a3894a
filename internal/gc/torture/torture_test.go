// Package torture stress-tests every collector with a randomized mutator:
// objects of random sizes and lifetimes, random reference graphs, forced
// and allocation-triggered collections — asserting after every phase that
// no live object is lost, no dead object survives forever, and the heap's
// incremental bookkeeping invariants hold.
package torture

import (
	"math/rand"
	"testing"

	"polm2/internal/gc"
	"polm2/internal/gc/c4"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

func collectors(t *testing.T) map[string]gc.Collector {
	t.Helper()
	heapCfg := heap.Config{
		RegionSize: 32 * 1024,
		PageSize:   4096,
		MaxBytes:   256 * 32 * 1024,
	}
	c4Col, err := c4.New(simclock.New(), c4.Config{Heap: heapCfg})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]gc.Collector{
		"G1":   ng2cCollector(t, heapCfg, 8, false),
		"NG2C": ng2cCollector(t, heapCfg, 8, true),
		"C4":   c4Col,
	}
}

// ng2cCollector builds NG2C, or G1 without pretenuring, over heapCfg with a
// young generation of youngRegions regions.
func ng2cCollector(t *testing.T, heapCfg heap.Config, youngRegions uint64, pretenuring bool) gc.Collector {
	t.Helper()
	cfg := ng2c.Config{Heap: heapCfg, YoungBytes: youngRegions * uint64(heapCfg.RegionSize)}
	var col gc.Collector
	var err error
	if pretenuring {
		col, err = ng2c.New(simclock.New(), cfg)
	} else {
		col, err = ng2c.NewG1(simclock.New(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// checkEveryCycle runs the heap's remembered-set and page-table checkers
// and heap.Verify after every collection of col, checks that the cycle's
// pause records the live totals its trace counted and the regions the heap
// released since the previous cycle, and that every object of its live set
// is still resident (heap.VerifyLive), and returns the number of
// collections checked so far.
func checkEveryCycle(t *testing.T, name string, col gc.Collector) *int {
	t.Helper()
	h := col.Heap()
	checked := new(int)
	freed := h.Stats().FreedRegions
	col.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
		pauses := col.Pauses()
		p := pauses[len(pauses)-1]
		if p.Cycle != cycle || p.LiveObjects != live.Objects || p.LiveBytes != live.Bytes {
			t.Fatalf("%s: cycle %d: %s pause of cycle %d records %d live objects (%d B), the trace counted %d (%d B)",
				name, cycle, p.Kind, p.Cycle, p.LiveObjects, p.LiveBytes, live.Objects, live.Bytes)
		}
		// Only collections free regions, one pause per cycle.
		now := h.Stats().FreedRegions
		if p.RegionsFreed != now-freed {
			t.Fatalf("%s: cycle %d: %s pause records %d regions freed, the heap released %d",
				name, cycle, p.Kind, p.RegionsFreed, now-freed)
		}
		freed = now
		if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
			t.Fatalf("%s: cycle %d: remset invariant broken in %v", name, cycle, bad)
		}
		if bad := h.CheckPageInvariant(); len(bad) != 0 {
			t.Fatalf("%s: cycle %d: page invariant broken in %v", name, cycle, bad)
		}
		if err := h.Verify(); err != nil {
			t.Fatalf("%s: cycle %d: %v", name, cycle, err)
		}
		if err := h.VerifyLive(live); err != nil {
			t.Fatalf("%s: cycle %d: %v", name, cycle, err)
		}
		*checked++
	})
	return checked
}

// checkHeap runs the same checkers outside a collection.
func checkHeap(t *testing.T, name string, h *heap.Heap) {
	t.Helper()
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("%s: remset invariant broken in %v", name, bad)
	}
	if bad := h.CheckPageInvariant(); len(bad) != 0 {
		t.Fatalf("%s: page invariant broken in %v", name, bad)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// tracked is a rooted object and the recycling stamp it had when pinned:
// while it stays pinned it must keep both its stamp and a region.
type tracked struct {
	obj   *heap.Object
	stamp uint32
	ttl   int  // steps until unrooted
	hub   bool // also referenced by the run's hub while rooted
}

// lost reports whether the tracked object was collected or its struct
// recycled.
func (tr tracked) lost() bool {
	return tr.obj.Stamp() != tr.stamp || tr.obj.Region() == nil
}

// torture runs the randomized mutator against one collector. A pretenuring
// collector gets one allocation in pretenureOneIn into a dynamic
// generation.
func torture(t *testing.T, name string, col gc.Collector, seed int64, pretenureOneIn int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := col.Heap()
	checked := checkEveryCycle(t, name, col)

	var live []tracked
	var dynamicGens []heap.GenID
	if pret, ok := col.(gc.Pretenuring); ok {
		for i := 0; i < 3; i++ {
			dynamicGens = append(dynamicGens, pret.NewGeneration())
		}
	}
	// A rooted hub references about half the retained objects while they
	// stay rooted: its fan-out of a few hundred keeps an edge position
	// index under constant insertion and deletion across collections.
	hub, err := col.Allocate(64, heap.SiteID(21), heap.Young)
	if err != nil {
		t.Fatalf("%s: hub: %v", name, err)
	}
	h.PinRoot(hub)
	peakFanout := 0
	unroot := func(tr tracked) {
		if tr.hub {
			if err := h.Unlink(hub.ID, tr.obj.ID); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		h.UnpinRoot(tr.obj)
	}

	const steps = 30000
	for step := 0; step < steps; step++ {
		target := heap.Young
		if len(dynamicGens) > 0 && rng.Intn(pretenureOneIn) == 0 {
			target = dynamicGens[rng.Intn(len(dynamicGens))]
		}
		size := uint32(32 + rng.Intn(2048))
		if rng.Intn(200) == 0 {
			size = uint32(17*1024 + rng.Intn(8*1024)) // humongous
		}
		obj, err := col.Allocate(size, heap.SiteID(rng.Intn(20)+1), target)
		if err != nil {
			t.Fatalf("%s: step %d: %v", name, step, err)
		}
		// ~20% of objects are retained for a random while; the rest
		// die immediately.
		if rng.Intn(5) == 0 {
			h.PinRoot(obj)
			tr := tracked{obj: obj, stamp: obj.Stamp(), ttl: 10 + rng.Intn(4000), hub: rng.Intn(2) == 0}
			if tr.hub {
				if err := h.Link(hub.ID, obj.ID); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			live = append(live, tr)
			// Random edges between retained (so pinned) objects.
			if len(live) > 1 && rng.Intn(2) == 0 {
				other := live[rng.Intn(len(live))]
				if err := h.Link(obj.ID, other.obj.ID); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if d := hub.OutDegree(); d > peakFanout {
			peakFanout = d
		}
		// Age the retained set.
		if step%64 == 0 {
			kept := live[:0]
			for _, tr := range live {
				tr.ttl -= 64
				if tr.ttl <= 0 {
					unroot(tr)
					continue
				}
				kept = append(kept, tr)
			}
			live = kept
		}
		if rng.Intn(5000) == 0 {
			if err := col.ForceCollect(); err != nil {
				t.Fatalf("%s: forced collection: %v", name, err)
			}
		}
	}

	// Every rooted object must have survived.
	for _, tr := range live {
		if tr.lost() {
			t.Fatalf("%s: live object %v lost", name, tr.obj)
		}
	}
	if *checked == 0 {
		t.Fatalf("%s: no collection ran", name)
	}
	// The heap indexes a spill past 32 edges and grows the index past 64.
	if peakFanout < 128 {
		t.Fatalf("%s: hub fan-out peaked at %d, too low to exercise a grown position index", name, peakFanout)
	}
	// The mutations since the last collection kept the invariants too.
	checkHeap(t, name, h)
	// After unrooting everything and collecting, the heap drains.
	for _, tr := range live {
		unroot(tr)
	}
	h.UnpinRoot(hub)
	for i := 0; i < 4; i++ {
		if err := col.ForceCollect(); err != nil {
			t.Fatalf("%s: drain collection: %v", name, err)
		}
	}
	if got := h.Stats().Objects; got != 0 {
		t.Fatalf("%s: %d objects survived a full drain", name, got)
	}
	if got := h.RootCount(); got != 0 {
		t.Fatalf("%s: %d roots leaked", name, got)
	}
}

func TestTortureAllCollectors(t *testing.T) {
	if testing.Short() {
		t.Skip("torture skipped in -short mode")
	}
	for _, seed := range []int64{1, 42} {
		for name, col := range collectors(t) {
			name, col, seed := name, col, seed
			t.Run(name, func(t *testing.T) {
				torture(t, name, col, seed, 4)
			})
		}
	}
}

// TestTortureFullCollections caps the heap so that allocation exhausts it
// and NG2C and G1 fall back to full collections; every check of
// checkEveryCycle then runs after fullCollect too. The caps are the ones
// where both seeds reach a full collection without exhausting the heap
// during an evacuation.
func TestTortureFullCollections(t *testing.T) {
	if testing.Short() {
		t.Skip("torture skipped in -short mode")
	}
	for _, tc := range []struct {
		name                  string
		regions, youngRegions uint64
	}{
		{"G1", 64, 40},
		{"NG2C", 80, 32},
	} {
		for _, seed := range []int64{1, 42} {
			heapCfg := heap.Config{RegionSize: 32 * 1024, PageSize: 4096, MaxBytes: tc.regions * 32 * 1024}
			col := ng2cCollector(t, heapCfg, tc.youngRegions, tc.name == "NG2C")
			name, seed := tc.name, seed
			t.Run(name, func(t *testing.T) {
				torture(t, name, col, seed, 16)
				full := 0
				for _, p := range col.Pauses() {
					if p.Kind == gc.PauseFull {
						full++
					}
				}
				if full == 0 {
					t.Fatalf("%s: seed %d: no full collection in %d pauses", name, seed, len(col.Pauses()))
				}
				t.Logf("%s: seed %d: %d full collections in %d pauses", name, seed, full, len(col.Pauses()))
			})
		}
	}
}
