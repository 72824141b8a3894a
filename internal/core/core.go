// Package core orchestrates the two phases of POLM2 (§3.5): the profiling
// phase (Recorder + Dumper + Analyzer producing an application allocation
// profile) and the production phase (Instrumenter applying the profile
// while the application runs under a pretenuring collector).
//
// It also owns the evaluation scaling: the paper's setup (12 GB heap, 2 GB
// young generation, 30-minute runs on a Xeon E5505) is scaled down by a
// single factor, with work-proportional GC and dump costs scaled up by the
// same factor so simulated pause magnitudes stay comparable to the paper's.
package core

import (
	"fmt"
	"time"

	"polm2/internal/dumper"
	"polm2/internal/gc"
	"polm2/internal/gc/c4"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/simclock"
)

// Paper-setup constants (§5.1).
const (
	// PaperHeapBytes is the paper's fixed 12 GB heap.
	PaperHeapBytes = 12 << 30
	// PaperYoungBytes is the paper's fixed 2 GB young generation.
	PaperYoungBytes = 2 << 30
	// PaperRunDuration is the paper's per-workload run length.
	PaperRunDuration = 30 * time.Minute
	// PaperWarmup is the ignored start of every run (§5.1).
	PaperWarmup = 5 * time.Minute
	// PaperProfilingDuration is the profiling-phase length (§5.3: five
	// minutes suffice after a one-minute warmup).
	PaperProfilingDuration = 6 * time.Minute
	// DefaultProfilingDuration is this reproduction's profiling window.
	// One simulated operation stands for Scale real operations, so rare
	// events (memtable flushes, segment rollovers) are Scale times
	// chunkier than the paper's; a longer window restores the sample
	// counts the paper's 6 minutes provided (§5.3 explicitly allows
	// longer profiling for workloads that need it).
	DefaultProfilingDuration = 15 * time.Minute
)

// OpScale is how many real operations one simulated operation stands for —
// the same factor the heap is scaled down by. Throughput figures multiply
// simulated operation counts by OpScale to report paper-comparable rates.
const OpScale = DefaultScale

// DefaultScale divides the paper's heap geometry. 64 shrinks the 12 GB heap
// to 192 MiB of simulated memory, small enough that a full experiment runs
// in seconds while keeping hundreds of regions in play.
const DefaultScale = 64

// Geometry sizes the simulated heap for one run.
type Geometry struct {
	RegionSize uint32
	PageSize   uint32
	HeapBytes  uint64
	YoungBytes uint64
}

// ScaledGeometry derives a geometry from the paper's setup divided by
// scale.
func ScaledGeometry(scale uint64) Geometry {
	if scale == 0 {
		scale = DefaultScale
	}
	return Geometry{
		RegionSize: 256 << 10, // 12G/64 = 192M heap in 256K regions: 768 regions
		PageSize:   4096,
		HeapBytes:  PaperHeapBytes / scale,
		YoungBytes: PaperYoungBytes / scale,
	}
}

// PretenureCostPerByte returns the mutator tax per pretenured byte at the
// given scale: one simulated byte stands for `scale` real bytes, and the
// real runtime pays roughly 400ns of allocation slow path (synchronized
// bump pointer, no TLAB, card marking) per ~128-byte object placed outside
// the TLAB.
func PretenureCostPerByte(scale uint64) time.Duration {
	if scale == 0 {
		scale = DefaultScale
	}
	return time.Duration(scale) * 400 * time.Nanosecond / 128
}

// ScaledCostModel scales the work-proportional GC costs up by the heap
// scale factor, so that copying the scaled-down equivalent of the paper's
// survivor sets produces pause times of the paper's magnitude. Fixed costs
// are left alone.
func ScaledCostModel(scale uint64) gc.CostModel {
	if scale == 0 {
		scale = DefaultScale
	}
	m := gc.DefaultCostModel()
	s := time.Duration(scale)
	m.PerRemsetEntry *= s
	m.PerCopiedByte *= s
	m.PerCopiedObject *= s
	m.PerTracedObject *= s
	// PerRegion stays unscaled: one simulated region stands for `scale`
	// times the memory, but per-region bookkeeping is per region.
	return m
}

// ScaledDumpCostModel scales the dump costs the same way: one simulated
// page stands for scale pages of the paper's heap.
func ScaledDumpCostModel(scale uint64) dumper.CostModel {
	if scale == 0 {
		scale = DefaultScale
	}
	m := dumper.DefaultCostModel()
	s := time.Duration(scale)
	m.CRIUPerPage *= s
	m.JmapPerLiveByte *= s
	m.JmapPerObject *= s
	m.CRIUPageMetaBytes *= scale
	m.JmapObjectHeaderBytes *= scale
	return m
}

// Collector names accepted by NewCollector.
const (
	CollectorG1   = "G1"
	CollectorNG2C = "NG2C"
	CollectorC4   = "C4"
)

// Collectors lists the collector names the harness can run.
func Collectors() []string {
	return []string{CollectorG1, CollectorNG2C, CollectorC4}
}

// NewCollector builds the named collector over the given geometry.
func NewCollector(name string, clock *simclock.Clock, geom Geometry, cost gc.CostModel) (gc.Collector, error) {
	heapCfg := heap.Config{
		RegionSize: geom.RegionSize,
		PageSize:   geom.PageSize,
		MaxBytes:   geom.HeapBytes,
	}
	// Mixed collections must be able to keep up with promotion at this
	// geometry: cap the per-cycle mixed collection set at 1/12 of the
	// heap's regions and start reclaiming old regions at 30% occupancy.
	mixedRegions := int(geom.HeapBytes / uint64(geom.RegionSize) / 12)
	if mixedRegions < 8 {
		mixedRegions = 8
	}
	const ihop = 0.25
	cfg := ng2c.Config{
		Heap:            heapCfg,
		Cost:            cost,
		YoungBytes:      geom.YoungBytes,
		IHOP:            ihop,
		MaxMixedRegions: mixedRegions,
	}
	switch name {
	case CollectorG1:
		return ng2c.NewG1(clock, cfg)
	case CollectorNG2C:
		return ng2c.New(clock, cfg)
	case CollectorC4:
		return c4.New(clock, c4.Config{Heap: heapCfg})
	default:
		return nil, fmt.Errorf("core: unknown collector %q (want %v)", name, Collectors())
	}
}
