// Package ng2c implements the pretenuring, multi-generational collector the
// paper builds on (Bruno et al., "NG2C: Pretenuring Garbage Collection with
// Dynamic Generations", ISMM '17 — §2.2 of the POLM2 paper).
//
// NG2C extends the two-generation heap with an arbitrary number of
// dynamically created generations and an API for allocating ("pretenuring")
// objects directly into any of them:
//
//   - NewGeneration creates a generation at runtime;
//   - Allocate with a non-zero target places the object straight into that
//     generation, bypassing eden, survivor copying and promotion entirely.
//
// Objects with similar lifetimes pretenured into the same generation die
// together; their regions become fully dead and are reclaimed during the
// cleanup phase without any copying. That is the entire mechanism behind
// the paper's pause-time reductions, and it emerges here from the cost
// model rather than being scripted.
//
// The G1 baseline the paper compares against (Detlefs et al., ISMM '04) is
// this collector with pretenuring off (NewG1): no dynamic generations and
// every allocation young, so both sides of the comparison run the same
// young, promotion, mixed and full-GC code. One placement difference stays:
// a G1 mixed collection compacts the Old objects it evacuates into the
// promotion cursor, as two-generation G1 does, while NG2C compacts each
// generation apart from promotion to keep lifetimes segregated. Each side's
// pinned outputs depend on its choice: sharing the cursor in both modes
// changes NG2C's numbers, splitting it in both changes G1's.
package ng2c

import (
	"fmt"
	"slices"
	"time"

	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

// Old is the promotion target for objects that tenure out of the young
// generation without having been pretenured.
const Old heap.GenID = 1

// firstDynamicGen is the id of the first generation NewGeneration hands out.
const firstDynamicGen heap.GenID = 2

// Config parameterizes the collector, in both modes.
type Config struct {
	// Heap sizes the underlying simulated heap.
	Heap heap.Config
	// Cost converts collection work into pause time. Zero value means
	// gc.DefaultCostModel.
	Cost gc.CostModel
	// YoungBytes caps the young generation (eden + survivor).
	YoungBytes uint64
	// SurvivorFraction is the share of YoungBytes reserved for survivor
	// space. Default 0.15.
	SurvivorFraction float64
	// TenuringThreshold is the promotion age for non-pretenured objects.
	// Default 4.
	TenuringThreshold uint8
	// IHOP is the occupancy fraction that arms mixed collections.
	// Default 0.45.
	IHOP float64
	// MaxMixedRegions caps old/dynamic regions evacuated per mixed
	// collection. Default 8.
	MaxMixedRegions int
}

const (
	// minMixedGarbage is the minimum garbage fraction a region must have
	// to be evacuated by a mixed collection (G1's liveness threshold:
	// mostly-live regions are not worth copying).
	minMixedGarbage = 0.25
	// pressureFraction triggers a collection when committing a mature
	// region pushes heap occupancy past this fraction. Pretenured
	// allocation bypasses eden and would otherwise never trigger the
	// cleanup that reclaims dead pretenured regions.
	pressureFraction = 0.45
)

func (c Config) withDefaults() Config {
	if c.Cost == (gc.CostModel{}) {
		c.Cost = gc.DefaultCostModel()
	}
	if c.SurvivorFraction == 0 {
		c.SurvivorFraction = 0.15
	}
	if c.TenuringThreshold == 0 {
		c.TenuringThreshold = 4
	}
	if c.IHOP == 0 {
		c.IHOP = 0.45
	}
	if c.MaxMixedRegions == 0 {
		c.MaxMixedRegions = 8
	}
	return c
}

// Collector is the NG2C-like pretenuring collector, or with pretenuring
// off the G1 baseline.
type Collector struct {
	gc.CycleLog
	h   *heap.Heap
	cfg Config
	// pretenuring is false for the G1 baseline: allocation targets are
	// ignored and mixed collections compact Old into the promotion cursor.
	pretenuring bool

	edenCur   *heap.Region
	eden      []*heap.Region
	survivors []*heap.Region
	// mature holds the regions of every generation >= Old, including the
	// dynamic pretenuring generations.
	mature []*heap.Region
	// allocCur is the current allocation region per pretenuring
	// generation (Old is only filled by promotion, never direct
	// allocation without a plan).
	allocCur map[heap.GenID]*heap.Region

	nextGen heap.GenID

	mixedPending bool
	// pressureArmed allows one pressure-triggered collection per
	// threshold crossing.
	pressureArmed bool

	// Per-collection scratch, reused across cycles so steady-state
	// collections stay allocation-free on the host.
	csScratch    []*heap.Region
	emptyScratch []*heap.Region
	candScratch  []*heap.Region
}

var (
	_ gc.Collector   = (*Collector)(nil)
	_ gc.Pretenuring = (*Collector)(nil)
)

// New builds an NG2C-like collector over a fresh heap.
func New(clock *simclock.Clock, cfg Config) (*Collector, error) {
	return build(clock, cfg, true)
}

// NewG1 builds the G1 baseline: this collector with pretenuring off. The
// result does not implement gc.Pretenuring, which is how callers tell the
// collectors that can take a pretenuring plan.
func NewG1(clock *simclock.Clock, cfg Config) (gc.Collector, error) {
	c, err := build(clock, cfg, false)
	if err != nil {
		return nil, err
	}
	return struct{ gc.Collector }{c}, nil
}

func build(clock *simclock.Clock, cfg Config, pretenuring bool) (*Collector, error) {
	cfg = cfg.withDefaults()
	h, err := heap.New(cfg.Heap)
	if err != nil {
		return nil, fmt.Errorf("ng2c: %w", err)
	}
	if cfg.YoungBytes == 0 {
		return nil, fmt.Errorf("ng2c: YoungBytes must be set")
	}
	if cfg.YoungBytes < uint64(h.Config().RegionSize)*2 {
		return nil, fmt.Errorf("ng2c: YoungBytes %d must hold at least two regions", cfg.YoungBytes)
	}
	return &Collector{
		CycleLog:    gc.NewCycleLog(clock),
		h:           h,
		cfg:         cfg,
		pretenuring: pretenuring,
		allocCur:    make(map[heap.GenID]*heap.Region),
		nextGen:     firstDynamicGen,
	}, nil
}

// Name implements gc.Collector.
func (c *Collector) Name() string {
	if !c.pretenuring {
		return "G1"
	}
	return "NG2C"
}

// Heap implements gc.Collector.
func (c *Collector) Heap() *heap.Heap { return c.h }

// MutatorFactor implements gc.Collector. NG2C's barriers match G1's
// (§5.5 of the NG2C paper reports no throughput cost).
func (c *Collector) MutatorFactor() float64 { return 1.0 }

// NewGeneration implements gc.Pretenuring: it creates a fresh dynamic
// generation and returns its id (System.newGeneration in the paper's API).
func (c *Collector) NewGeneration() heap.GenID {
	id := c.nextGen
	c.nextGen++
	return id
}

// Generations implements gc.Pretenuring: young + old + dynamic generations
// created so far.
func (c *Collector) Generations() int {
	return 2 + int(c.nextGen-firstDynamicGen)
}

func (c *Collector) youngBytes() uint64 {
	return uint64(len(c.eden)+len(c.survivors)) * uint64(c.h.Config().RegionSize)
}

// Allocate implements gc.Collector. A zero target allocates young; a
// non-zero target pretenures the object directly into that generation (the
// @Gen + setGeneration path of §3.4). The G1 baseline ignores the target:
// it has no pretenuring, which is precisely why the paper needs NG2C.
func (c *Collector) Allocate(size uint32, site heap.SiteID, target heap.GenID) (*heap.Object, error) {
	if !c.pretenuring {
		target = heap.Young
	}
	regionSize := c.h.Config().RegionSize
	if uint64(size) > uint64(regionSize) {
		return nil, fmt.Errorf("ng2c: allocation of %d bytes exceeds the region size (%d)", size, regionSize)
	}
	if target != heap.Young && (target >= c.nextGen || target < Old) {
		return nil, fmt.Errorf("ng2c: allocation into nonexistent generation %d", target)
	}
	if size > regionSize/2 {
		// Humongous allocation: a dedicated mature region (in the
		// target generation, or Old for young-path humongous objects,
		// as in G1). Never copied; reclaimed whole at cleanup.
		gen := target
		if gen == heap.Young {
			gen = Old
		}
		r, err := c.newMatureRegion(gen)
		if err != nil {
			return nil, err
		}
		obj, err := c.h.Allocate(r, size, site)
		if err != nil {
			return nil, fmt.Errorf("ng2c: %w", err)
		}
		return obj, nil
	}
	if target == heap.Young {
		return c.allocateYoung(size, site)
	}
	cur := c.allocCur[target]
	if cur == nil || cur.Used()+size > regionSize {
		r, err := c.newMatureRegion(target)
		if err != nil {
			return nil, err
		}
		c.allocCur[target] = r
		cur = r
	}
	obj, err := c.h.Allocate(cur, size, site)
	if err != nil {
		return nil, fmt.Errorf("ng2c: %w", err)
	}
	return obj, nil
}

// newMatureRegion commits a region for a generation >= Old, falling back to
// a full collection on exhaustion. Crossing the pressure threshold triggers
// one collection so that dead pretenured regions are reclaimed even when
// eden sees little traffic.
func (c *Collector) newMatureRegion(gen heap.GenID) (*heap.Region, error) {
	max := c.h.Config().MaxBytes
	if max != 0 && c.pressureArmed &&
		float64(c.h.Stats().CommittedBytes) > pressureFraction*float64(max) {
		c.pressureArmed = false
		if err := c.collect(); err != nil {
			return nil, err
		}
	}
	r, err := c.h.NewRegion(gen)
	if err != nil {
		if err := c.fullCollect(); err != nil {
			return nil, err
		}
		r, err = c.h.NewRegion(gen)
		if err != nil {
			return nil, fmt.Errorf("ng2c: heap exhausted after full GC: %w", err)
		}
	}
	c.mature = append(c.mature, r)
	return r, nil
}

func (c *Collector) allocateYoung(size uint32, site heap.SiteID) (*heap.Object, error) {
	regionSize := c.h.Config().RegionSize
	if c.edenCur == nil || c.edenCur.Used()+size > regionSize {
		if c.youngBytes()+uint64(regionSize) > c.cfg.YoungBytes {
			if err := c.collect(); err != nil {
				return nil, err
			}
		}
		r, err := c.h.NewRegion(heap.Young)
		if err != nil {
			if err := c.fullCollect(); err != nil {
				return nil, err
			}
			r, err = c.h.NewRegion(heap.Young)
			if err != nil {
				return nil, fmt.Errorf("ng2c: heap exhausted after full GC: %w", err)
			}
		}
		c.eden = append(c.eden, r)
		c.edenCur = r
	}
	obj, err := c.h.Allocate(c.edenCur, size, site)
	if err != nil {
		return nil, fmt.Errorf("ng2c: %w", err)
	}
	return obj, nil
}

// ForceCollect implements gc.Collector.
func (c *Collector) ForceCollect() error { return c.collect() }

// collect runs a young collection, extended into a mixed collection when
// armed. Fully dead mature regions are reclaimed in the cleanup phase at
// per-region cost and no copying — the payoff of pretenuring.
func (c *Collector) collect() error {
	c.armMixedIfNeeded() // occupancy check at collection start, like G1's IHOP
	start := c.Clock().Now()
	live := c.h.Trace()

	cs := c.csScratch[:0]
	cs = append(cs, c.eden...)
	cs = append(cs, c.survivors...)
	kind := gc.PauseYoung

	// Cleanup phase: fully dead mature regions are freed without
	// evacuation.
	emptyCS := c.emptyScratch[:0]
	keptMature := c.mature[:0]
	for _, r := range c.mature {
		if live.Region(r).Objects == 0 {
			emptyCS = append(emptyCS, r)
		} else {
			keptMature = append(keptMature, r)
		}
	}
	c.mature = keptMature

	// Mixed extension: evacuate the most garbage-rich surviving mature
	// regions.
	var oldCS []*heap.Region
	if c.mixedPending && len(c.mature) > 0 {
		kind = gc.PauseMixed
		source := c.mature
		candidates := c.candScratch[:0]
		regionSize := float64(c.h.Config().RegionSize)
		for _, r := range source {
			if c.humongous(r) {
				continue // humongous objects are never copied
			}
			garbage := float64(r.Used()) - float64(live.Region(r).Bytes)
			if garbage >= minMixedGarbage*regionSize {
				candidates = append(candidates, r)
			}
		}
		gc.SortRegionsByGarbage(candidates, live)
		n := c.cfg.MaxMixedRegions
		if n > len(candidates) {
			n = len(candidates)
		}
		oldCS = candidates[:n]
		cs = append(cs, oldCS...)
	}

	remset := 0
	for _, r := range cs {
		remset += r.RemsetEntries()
	}

	survivorCap := uint64(float64(c.cfg.YoungBytes) * c.cfg.SurvivorFraction)
	survivorCursor := gc.NewCursor(c.h, heap.Young)
	promoCursor := gc.NewCursor(c.h, Old)
	// compact[gen] receives what a mixed collection evacuates from
	// generation gen: each generation compacts within itself, preserving
	// lifetime segregation. G1 has none to preserve and compacts Old into
	// the promotion cursor (see the package comment).
	compact := make([]*gc.Cursor, c.nextGen)
	if !c.pretenuring {
		compact[Old] = promoCursor
	}

	var promotedBytes uint64
	place := func(obj *heap.Object) error {
		// The collection set is young (eden and survivors) but for
		// oldCS, so a mature object comes from a mixed region.
		if gen := obj.Gen(); gen != heap.Young {
			cur := compact[gen]
			if cur == nil {
				cur = gc.NewCursor(c.h, gen)
				compact[gen] = cur
			}
			return cur.Place(obj)
		}
		obj.Age++
		if obj.Age >= c.cfg.TenuringThreshold ||
			survivorCursor.Bytes()+uint64(obj.Size) > survivorCap {
			promotedBytes += uint64(obj.Size)
			return promoCursor.Place(obj)
		}
		return survivorCursor.Place(obj)
	}

	freed := 0
	for _, r := range cs {
		if _, _, err := gc.EvacuateAndFree(c.h, r, live, place); err != nil {
			return fmt.Errorf("ng2c: %s collection: %w", kind, err)
		}
		freed++
	}
	for _, r := range emptyCS {
		gc.FreeDeadRegion(c.h, r, live)
		freed++
	}
	// Dropped allocation cursors for freed/evacuated regions.
	for gen, cur := range c.allocCur {
		if cur.Freed() {
			delete(c.allocCur, gen)
		}
	}

	c.eden = nil
	c.edenCur = nil
	c.survivors = survivorCursor.Regions()
	if len(oldCS) > 0 {
		kept := c.mature[:0]
		for _, r := range c.mature {
			if !slices.Contains(oldCS, r) {
				kept = append(kept, r)
			}
		}
		c.mature = kept
		c.mixedPending = false
	}
	c.mature = append(c.mature, promoCursor.Regions()...)
	copiedBytes := survivorCursor.Bytes() + promoCursor.Bytes()
	copiedObjects := survivorCursor.Objects() + promoCursor.Objects()
	for _, cur := range compact {
		if cur == nil || cur == promoCursor {
			continue
		}
		c.mature = append(c.mature, cur.Regions()...)
		copiedBytes += cur.Bytes()
		copiedObjects += cur.Objects()
	}

	// Return the grown scratch backings for the next cycle.
	c.csScratch = cs[:0]
	c.emptyScratch = emptyCS[:0]
	if cap(oldCS) > cap(c.candScratch) {
		c.candScratch = oldCS[:0]
	}

	c.armMixedIfNeeded()
	c.pressureArmed = true
	c.EndCycle(gc.Pause{
		Start:            start,
		Duration:         c.cfg.Cost.EvacuationCost(len(cs)+len(emptyCS), remset, copiedBytes, copiedObjects),
		Kind:             kind,
		BytesCopied:      copiedBytes,
		ObjectsCopied:    copiedObjects,
		RegionsCollected: len(cs) + len(emptyCS),
		RegionsFreed:     freed,
		PromotedBytes:    promotedBytes,
		LiveObjects:      live.Objects,
		LiveBytes:        live.Bytes,
	}, live)
	return nil
}

// fullCollect compacts the whole heap, preserving each object's generation.
func (c *Collector) fullCollect() error {
	start := c.Clock().Now()
	live := c.h.Trace()
	regions := c.h.ActiveRegions()
	remset := 0
	for _, r := range regions {
		remset += r.RemsetEntries()
	}
	cursors := make([]*gc.Cursor, c.nextGen)
	var copiedBytes uint64
	var copiedObjects int
	place := func(obj *heap.Object) error {
		gen := obj.Gen()
		if gen == heap.Young {
			gen = Old // full GC tenures everything, as in HotSpot
		}
		cur := cursors[gen]
		if cur == nil {
			cur = gc.NewCursor(c.h, gen)
			cursors[gen] = cur
		}
		return cur.Place(obj)
	}
	// A full collection runs when no region is left to commit, so the
	// copying needs room first: sweep every region and free the ones left
	// empty, then evacuate the rest. The sweep removes the dead in the
	// order evacuating region by region would have.
	var keptHumongous []*heap.Region
	freed := 0
	evacuate := regions[:0]
	for _, r := range regions {
		if live.Region(r).Objects == 0 {
			gc.FreeDeadRegion(c.h, r, live)
			freed++
			continue
		}
		gc.SweepRegion(c.h, r, live)
		if c.humongous(r) {
			keptHumongous = append(keptHumongous, r)
		} else {
			evacuate = append(evacuate, r)
		}
	}
	for _, r := range evacuate {
		if _, _, err := gc.EvacuateAndFree(c.h, r, live, place); err != nil {
			return fmt.Errorf("ng2c: full collection: %w", err)
		}
		freed++
	}
	c.eden = nil
	c.edenCur = nil
	c.survivors = nil
	c.mature = keptHumongous
	c.allocCur = make(map[heap.GenID]*heap.Region)
	for _, cur := range cursors {
		if cur == nil {
			continue
		}
		c.mature = append(c.mature, cur.Regions()...)
		copiedBytes += cur.Bytes()
		copiedObjects += cur.Objects()
	}
	c.mixedPending = false

	c.armMixedIfNeeded()
	c.EndCycle(gc.Pause{
		Start: start,
		Duration: c.cfg.Cost.EvacuationCost(len(regions), remset, copiedBytes, copiedObjects) +
			time.Duration(live.Objects)*c.cfg.Cost.PerTracedObject,
		Kind:             gc.PauseFull,
		BytesCopied:      copiedBytes,
		ObjectsCopied:    copiedObjects,
		RegionsCollected: len(regions),
		RegionsFreed:     freed,
		LiveObjects:      live.Objects,
		LiveBytes:        live.Bytes,
	}, live)
	return nil
}

func (c *Collector) armMixedIfNeeded() {
	max := c.h.Config().MaxBytes
	if max == 0 {
		return
	}
	if float64(c.h.Stats().CommittedBytes) > c.cfg.IHOP*float64(max) {
		c.mixedPending = true
	}
}

// humongous reports whether r is a dedicated single-object region. Only
// Allocate places an object larger than half a region, alone in a fresh
// region, and no collection moves it, so such a region is never evacuated,
// only reclaimed whole when its object dies.
func (c *Collector) humongous(r *heap.Region) bool {
	obj := r.FirstResident()
	return obj != nil && obj.Size > c.h.Config().RegionSize/2
}

// MatureRegions returns the number of regions in generations >= Old (test
// hook).
func (c *Collector) MatureRegions() int { return len(c.mature) }
