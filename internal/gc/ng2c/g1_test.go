package ng2c

import (
	"testing"
	"time"

	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

// The G1 baseline's tests, run against this collector with pretenuring off
// (NewG1): G1 is NG2C with zero dynamic generations.

// newG1 builds the G1 baseline unwrapped, so tests can read its regions.
func newG1(t *testing.T, cfg Config) *Collector {
	t.Helper()
	c, err := build(simclock.New(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	clk := simclock.New()
	if _, err := NewG1(clk, Config{Heap: heap.Config{RegionSize: 16 * 1024, PageSize: 4096}}); err == nil {
		t.Fatal("missing YoungBytes should fail")
	}
	cfg := testConfig()
	cfg.YoungBytes = 100
	if _, err := NewG1(clk, cfg); err == nil {
		t.Fatal("tiny YoungBytes should fail")
	}
}

func TestAllocationFillsEdenThenCollects(t *testing.T) {
	c := newG1(t, testConfig())
	// Fill the young generation with garbage: no roots, everything dies.
	for i := 0; i < 2000; i++ {
		if _, err := c.Allocate(512, 1, heap.Young); err != nil {
			t.Fatal(err)
		}
	}
	if c.Cycles() == 0 {
		t.Fatal("filling young gen never triggered a collection")
	}
	for _, p := range c.Pauses() {
		if p.Kind == gc.PauseYoung && p.BytesCopied != 0 {
			t.Fatalf("young GC over pure garbage copied %d bytes", p.BytesCopied)
		}
	}
	if got := c.Heap().Stats().Objects; got >= 2000 {
		t.Fatalf("garbage not collected: %d objects resident", got)
	}
}

func TestHumongousAllocationRejected(t *testing.T) {
	c := newG1(t, testConfig())
	if _, err := c.Allocate(32*1024, 1, heap.Young); err == nil {
		t.Fatal("humongous allocation should fail")
	}
}

func TestSurvivorAgingAndPromotion(t *testing.T) {
	c := newG1(t, testConfig())
	obj, err := c.Allocate(256, 1, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	c.Heap().PinRoot(obj)

	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != heap.Young || obj.Age != 1 {
		t.Fatalf("after 1 GC: gen=%d age=%d, want young/1", obj.Gen(), obj.Age)
	}
	if len(c.survivors) == 0 {
		t.Fatal("survivor space empty after collection of live object")
	}

	// Second collection reaches the tenuring threshold (2): promotion.
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != Old {
		t.Fatalf("after 2 GCs: gen=%d, want old", obj.Gen())
	}
	if c.MatureRegions() == 0 {
		t.Fatal("no old regions after promotion")
	}
}

func TestSurvivorOverflowPromotesEnMasse(t *testing.T) {
	cfg := testConfig()
	cfg.SurvivorFraction = 0.05 // survivor cap < 1 region: overflow fast
	cfg.TenuringThreshold = 10
	c := newG1(t, cfg)
	// Keep ~6 regions of objects alive; survivor cap is ~0.4 regions.
	for i := 0; i < 180; i++ {
		obj, err := c.Allocate(512, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		c.Heap().PinRoot(obj)
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	var promoted uint64
	for _, p := range c.Pauses() {
		promoted += p.PromotedBytes
	}
	if promoted == 0 {
		t.Fatal("survivor overflow did not promote en masse")
	}
}

func TestMixedCollectionCompactsOld(t *testing.T) {
	cfg := testConfig()
	cfg.IHOP = 0.05 // arm mixed collections early
	cfg.TenuringThreshold = 1
	c := newG1(t, cfg)
	h := c.Heap()
	// Promote a batch of objects, then kill half of them so old regions
	// hold garbage worth compacting.
	var objs []*heap.Object
	for i := 0; i < 120; i++ {
		obj, err := c.Allocate(512, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	if err := c.ForceCollect(); err != nil { // promotes everything (threshold 1)
		t.Fatal(err)
	}
	for i, obj := range objs {
		if i%2 == 0 {
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
		t.Fatal("mixed collection never ran despite IHOP pressure")
	}
	for _, obj := range objs {
		if obj.Region() != nil && obj.Gen() != Old && obj.Age < 1 {
			t.Fatalf("object in unexpected state: %v", obj)
		}
	}
}

func TestFullGCOnExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 12 * 16 * 1024 // tight: 12 regions
	cfg.YoungBytes = 4 * 16 * 1024
	c := newG1(t, cfg)
	h := c.Heap()
	// Keep ~7 regions alive, then keep allocating garbage: the heap must
	// survive via full GCs rather than erroring out.
	var keep []*heap.Object
	for i := 0; i < 200; i++ {
		obj, err := c.Allocate(512, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		keep = append(keep, obj)
	}
	for i := 0; i < 600; i++ {
		if _, err := c.Allocate(512, 1, heap.Young); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	for _, obj := range keep {
		if obj.Region() == nil {
			t.Fatal("full GC lost a live object")
		}
	}
}

func TestPausesAdvanceClockAndAreOrdered(t *testing.T) {
	c := newG1(t, testConfig())
	clk := c.Clock()
	for i := 0; i < 3000; i++ {
		if _, err := c.Allocate(512, 1, heap.Young); err != nil {
			t.Fatal(err)
		}
	}
	pauses := c.Pauses()
	if len(pauses) == 0 {
		t.Fatal("no pauses recorded")
	}
	var total time.Duration
	var prevEnd time.Duration
	for i, p := range pauses {
		if p.Duration <= 0 {
			t.Fatalf("pause %d has non-positive duration", i)
		}
		if p.Start < prevEnd {
			t.Fatalf("pause %d overlaps previous pause", i)
		}
		prevEnd = p.Start + p.Duration
		total += p.Duration
		if p.Cycle != uint64(i+1) {
			t.Fatalf("pause %d has cycle %d", i, p.Cycle)
		}
	}
	if clk.Now() < total {
		t.Fatalf("clock %v behind accumulated pause time %v", clk.Now(), total)
	}
}

func TestOnCycleEndFires(t *testing.T) {
	c := newG1(t, testConfig())
	var cycles []uint64
	c.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
		if live == nil {
			t.Error("cycle listener got nil live set")
		}
		cycles = append(cycles, cycle)
	})
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 || cycles[0] != 1 || cycles[1] != 2 {
		t.Fatalf("cycle notifications = %v, want [1 2]", cycles)
	}
}

func TestRemsetInvariantAfterCollections(t *testing.T) {
	c := newG1(t, testConfig())
	h := c.Heap()
	var prev *heap.Object
	for i := 0; i < 500; i++ {
		obj, err := c.Allocate(256, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			h.PinRoot(obj)
			if prev != nil {
				if err := h.Link(obj.ID, prev.ID); err != nil {
					t.Fatal(err)
				}
			}
			prev = obj
		}
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken after collections: %v", bad)
	}
}

func TestHumongousAllocation(t *testing.T) {
	c := newG1(t, testConfig())
	h := c.Heap()
	// More than half a 16 KiB region: humongous.
	obj, err := c.Allocate(10*1024, 1, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Gen() != Old {
		t.Fatalf("humongous object in gen %d, want old", obj.Gen())
	}
	region := obj.Region()
	if region.ResidentCount() != 1 {
		t.Fatalf("humongous region holds %d objects, want 1", region.ResidentCount())
	}
	h.PinRoot(obj)
	offset := obj.Offset
	// Collections must never move it.
	for i := 0; i < 3; i++ {
		if err := c.ForceCollect(); err != nil {
			t.Fatal(err)
		}
	}
	if obj.Offset != offset || obj.Gen() != Old {
		t.Fatalf("humongous object was moved: %v", obj)
	}
	var copied uint64
	for _, p := range c.Pauses() {
		copied += p.BytesCopied
	}
	if copied != 0 {
		t.Fatalf("humongous object was copied (%d bytes)", copied)
	}
	// Death reclaims the whole region at cleanup.
	stamp := obj.Stamp()
	h.UnpinRoot(obj)
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if obj.Stamp() == stamp {
		t.Fatal("dead humongous object not reclaimed")
	}
	if !region.Freed() {
		t.Fatalf("humongous region not freed: %v", region)
	}
}

func TestHumongousSurvivesFullGC(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 12 * 16 * 1024
	cfg.YoungBytes = 4 * 16 * 1024
	c := newG1(t, cfg)
	h := c.Heap()
	obj, err := c.Allocate(10*1024, 1, heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(obj)
	for i := 0; i < 800; i++ {
		if _, err := c.Allocate(512, 1, heap.Young); err != nil {
			t.Fatal(err)
		}
	}
	if obj.Region() == nil {
		t.Fatal("humongous object lost under pressure")
	}
	if obj.Gen() != Old {
		t.Fatalf("humongous object moved to gen %d", obj.Gen())
	}
}
