// Package c4 models the Continuously Concurrent Compacting Collector (Tene
// et al., ISMM '11), which the paper uses as a throughput and memory
// comparison point (§5.5): C4's pauses all fall under 10 ms, so the paper
// omits it from the pause-time figures, but its read/write barriers cost
// throughput (it is the slowest collector in Figure 7) and it pre-reserves
// all available memory at launch (≈2× footprint in Figure 9's discussion).
package c4

import (
	"fmt"
	"time"

	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

// Config parameterizes the collector model.
type Config struct {
	// Heap sizes the underlying simulated heap. MaxBytes must be set:
	// C4 pre-reserves it all.
	Heap heap.Config
}

const (
	// triggerFraction is the committed-heap fraction that starts a
	// concurrent cycle.
	triggerFraction = 0.5
	// barrierFactor is the mutator slowdown from C4's loaded value
	// barrier and write barriers, calibrated so C4 lands where the
	// paper's Figure 7 puts it: the worst throughput of the evaluated
	// collectors.
	barrierFactor = 1.5
	// checkpointPause is the per-cycle stop-the-world checkpoint pause
	// (the paper reports all C4 pauses under 10 ms). C4 charges no other
	// pause.
	checkpointPause = 3 * time.Millisecond
	// evacuateBelow is the live fraction under which a region is
	// compacted during a cycle.
	evacuateBelow = 0.5
)

// Collector is the C4-like concurrent collector model.
type Collector struct {
	h     *heap.Heap
	clock *simclock.Clock
	cfg   Config

	cur     *heap.Region
	regions []*heap.Region

	pauses    []gc.Pause
	cycles    uint64
	listeners []gc.CycleFunc
}

var _ gc.Collector = (*Collector)(nil)

// New builds a C4-like collector over a fresh heap.
func New(clock *simclock.Clock, cfg Config) (*Collector, error) {
	if cfg.Heap.MaxBytes == 0 {
		return nil, fmt.Errorf("c4: Heap.MaxBytes must be set (C4 pre-reserves all memory)")
	}
	h, err := heap.New(cfg.Heap)
	if err != nil {
		return nil, fmt.Errorf("c4: %w", err)
	}
	return &Collector{h: h, clock: clock, cfg: cfg}, nil
}

// Name implements gc.Collector.
func (c *Collector) Name() string { return "C4" }

// Heap implements gc.Collector.
func (c *Collector) Heap() *heap.Heap { return c.h }

// Clock implements gc.Collector.
func (c *Collector) Clock() *simclock.Clock { return c.clock }

// Pauses implements gc.Collector.
func (c *Collector) Pauses() []gc.Pause {
	out := make([]gc.Pause, len(c.pauses))
	copy(out, c.pauses)
	return out
}

// Cycles implements gc.Collector.
func (c *Collector) Cycles() uint64 { return c.cycles }

// MutatorFactor implements gc.Collector: the barrier tax.
func (c *Collector) MutatorFactor() float64 { return barrierFactor }

// OnCycleEnd implements gc.Collector.
func (c *Collector) OnCycleEnd(fn gc.CycleFunc) {
	c.listeners = append(c.listeners, fn)
}

// PreReservedBytes returns the memory C4 reserves at launch: the entire
// configured heap. The evaluation harness reports this instead of the
// committed high-water mark (Figure 9's discussion).
func (c *Collector) PreReservedBytes() uint64 { return c.cfg.Heap.MaxBytes }

// Allocate implements gc.Collector.
func (c *Collector) Allocate(size uint32, site heap.SiteID, _ heap.GenID) (*heap.Object, error) {
	regionSize := c.h.Config().RegionSize
	if uint64(size) > uint64(regionSize) {
		return nil, fmt.Errorf("c4: humongous allocation of %d bytes unsupported (region size %d)", size, regionSize)
	}
	if c.cur == nil || c.cur.Used()+size > regionSize {
		if float64(c.h.Stats().CommittedBytes+uint64(regionSize)) > triggerFraction*float64(c.cfg.Heap.MaxBytes) {
			if err := c.cycle(); err != nil {
				return nil, err
			}
		}
		r, err := c.h.NewRegion(heap.Young)
		if err != nil {
			// Allocation outpaced the concurrent collector: run
			// another cycle synchronously.
			if err := c.cycle(); err != nil {
				return nil, err
			}
			r, err = c.h.NewRegion(heap.Young)
			if err != nil {
				return nil, fmt.Errorf("c4: heap exhausted: %w", err)
			}
		}
		c.regions = append(c.regions, r)
		c.cur = r
	}
	obj, err := c.h.Allocate(c.cur, size, site)
	if err != nil {
		return nil, fmt.Errorf("c4: %w", err)
	}
	return obj, nil
}

// ForceCollect implements gc.Collector.
func (c *Collector) ForceCollect() error { return c.cycle() }

// cycle runs one concurrent mark-compact cycle. Marking, sweeping and
// compaction happen concurrently with the mutator, so none of that work is
// charged to pause time — only the fixed checkpoint pause is. The
// throughput cost of concurrency is carried by MutatorFactor instead.
func (c *Collector) cycle() error {
	start := c.clock.Now()
	live := c.h.Trace()

	regionSize := c.h.Config().RegionSize
	cursor := gc.NewCursor(c.h, heap.Young)
	// In-place filter: c.regions is rebuilt into its own backing array,
	// so steady-state cycles allocate nothing for region bookkeeping.
	examined := len(c.regions)
	kept := c.regions[:0]
	freed := 0
	for _, r := range c.regions {
		rl := live.Region(r)
		liveFrac := float64(rl.Bytes) / float64(regionSize)
		if rl.Objects == 0 {
			gc.SweepRegion(c.h, r, live)
			c.h.FreeRegion(r)
			freed++
			continue
		}
		if liveFrac < evacuateBelow && r != c.cur {
			if _, _, err := gc.EvacuateAndFree(c.h, r, live, cursor.Place); err != nil {
				return fmt.Errorf("c4: cycle: %w", err)
			}
			freed++
			continue
		}
		// Sweep dead objects in place (concurrent free).
		gc.SweepRegion(c.h, r, live)
		kept = append(kept, r)
	}
	c.regions = append(kept, cursor.Regions()...)
	if c.cur != nil && c.cur.Freed() {
		c.cur = nil
	}

	dur := checkpointPause
	c.clock.Advance(dur)
	c.cycles++
	c.pauses = append(c.pauses, gc.Pause{
		Start:            start,
		Duration:         dur,
		Kind:             gc.PauseConcurrent,
		Cycle:            c.cycles,
		BytesCopied:      cursor.Bytes(),
		ObjectsCopied:    cursor.Objects(),
		RegionsCollected: examined,
		RegionsFreed:     freed,
	})
	for _, fn := range c.listeners {
		fn(c.cycles, live)
	}
	return nil
}
