package heap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// DefaultRegionSize is the default region size: 1 MiB, the G1 default for
// heaps in the low-gigabyte range.
const DefaultRegionSize = 1 << 20

// DefaultPageSize is the simulated kernel page size the Dumper operates on.
const DefaultPageSize = 4096

// ErrOutOfMemory is returned when committing one more region would exceed
// the heap's configured maximum, mirroring a fixed -Xmx setting (§5.1 of the
// paper fixes the heap at 12 GB).
var ErrOutOfMemory = errors.New("heap: out of memory")

// Config sizes a simulated heap.
type Config struct {
	// RegionSize is the size of each region in bytes. Must be a positive
	// multiple of PageSize.
	RegionSize uint32
	// PageSize is the simulated kernel page size. Must be positive.
	PageSize uint32
	// MaxBytes caps committed memory (regions in use times region size).
	// Zero means unlimited.
	MaxBytes uint64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.RegionSize == 0 {
		c.RegionSize = DefaultRegionSize
	}
	if c.PageSize == 0 {
		c.PageSize = DefaultPageSize
	}
	return c
}

func (c Config) validate() error {
	if c.PageSize == 0 {
		return fmt.Errorf("heap: page size must be positive")
	}
	if c.RegionSize == 0 || c.RegionSize%c.PageSize != 0 {
		return fmt.Errorf("heap: region size %d must be a positive multiple of page size %d",
			c.RegionSize, c.PageSize)
	}
	if c.MaxBytes != 0 && c.MaxBytes < uint64(c.RegionSize) {
		return fmt.Errorf("heap: max bytes %d smaller than one region (%d)", c.MaxBytes, c.RegionSize)
	}
	return nil
}

// Stats summarizes heap occupancy.
type Stats struct {
	// CommittedBytes is regions currently in use times region size.
	CommittedBytes uint64
	// MaxCommittedBytes is the high-water mark of CommittedBytes — the
	// paper's "max memory usage" metric (Figure 9).
	MaxCommittedBytes uint64
	// UsedBytes is the sum of region bump pointers (includes garbage not
	// yet collected).
	UsedBytes uint64
	// LiveRegions is the number of regions currently in use.
	LiveRegions int
	// Objects is the number of resident objects (reachable or not).
	Objects int
	// TotalAllocatedObjects and TotalAllocatedBytes count every
	// allocation ever made.
	TotalAllocatedObjects uint64
	TotalAllocatedBytes   uint64
	// FreeObjects is the number of recycled Object structs waiting on the
	// heap's freelist.
	FreeObjects int
	// FreedRegions counts every region FreeRegion ever released.
	FreedRegions int
}

// Heap is the simulated managed heap. It owns objects, regions and the page
// table; collectors implement policy on top of it. A Heap is not safe for
// concurrent use: the simulation is single-threaded, as a stop-the-world
// collector's heap effectively is.
//
// A steady-state GC cycle over a Heap performs near-zero Go allocations:
// dead Object structs are recycled through a freelist and their edge
// stores' overflow blocks (spill arrays and position indexes included)
// through a second one, emptied chunks of the object index through a
// third, freed regions donate their page-table bitsets to the next
// committed region, and the tracer, the evacuation staging and the page
// walk reuse per-heap scratch buffers. No Go map is touched on the Allocate,
// Remove, Link or Unlink paths.
type Heap struct {
	cfg Config

	// objects indexes resident objects by allocation serial, in chunks of
	// 4096 serials. Allocate and Remove maintain it; only the callers that
	// hold an id and not a pointer read it: Link/Unlink and Stats.
	objects objIndex
	// active lists every non-freed region in ascending id order. Region
	// ids are assigned monotonically, so commits append and frees splice
	// by binary search; it is the heap's only region table.
	active []*Region
	// roots lists every object with a nonzero root pin count, each once;
	// an object's rootIdx is its position, so unpinning swap-deletes in
	// O(1). The order is a pure function of the pin history, which makes
	// the tracer's walk deterministic.
	roots []*Object

	nextRegion RegionID
	idCounter  uint64 // the newest object's serial: allocations ever made
	epoch      uint64

	committed    uint64
	maxCommitted uint64
	freedRegions int
	totalBytes   uint64

	// objFree chains recycled Object structs through their next field;
	// freeObjects counts them.
	objFree     *Object
	freeObjects int
	// blockFree holds the overflow blocks of removed objects' edge stores.
	blockFree edgeBlocks
	// rpFree holds page tables donated by freed regions.
	rpFree []*regionPages

	// traceQueue is the tracer's reusable BFS queue; the most recent
	// LiveSet aliases it (a LiveSet is only valid until the next Trace).
	traceQueue []*Object
	// evac is the collectors' evacuation staging exposed through
	// EvacScratch.
	evac EvacScratch
	// pageHeaders is the buffer Pages hands each page's Headers in.
	pageHeaders []*Object
}

// New builds a heap from cfg, applying defaults for unset fields.
func New(cfg Config) (*Heap, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Heap{cfg: cfg}, nil
}

// Config returns the heap's effective configuration.
func (h *Heap) Config() Config { return h.cfg }

// Stats returns a snapshot of heap occupancy.
func (h *Heap) Stats() Stats {
	var used uint64
	for _, r := range h.active {
		used += uint64(r.used)
	}
	return Stats{
		CommittedBytes:        h.committed,
		MaxCommittedBytes:     h.maxCommitted,
		UsedBytes:             used,
		LiveRegions:           len(h.active),
		Objects:               h.objects.n,
		TotalAllocatedObjects: h.idCounter,
		TotalAllocatedBytes:   h.totalBytes,
		FreeObjects:           h.freeObjects,
		FreedRegions:          h.freedRegions,
	}
}

// EvacScratch is the collectors' reusable staging for evacuating one
// region (gc.EvacuateAndFree): the region's live residents keyed once
// each, the second buffer and the bucket counts of the sort that orders
// them. Callers truncate, fill and consume it within one operation; the
// contents are only valid until the next use. Single-threaded like the
// heap itself.
type EvacScratch struct {
	Keyed, Sorted []KeyedObject
	Counts        []uint32
}

// EvacScratch exposes the heap's evacuation staging buffers.
func (h *Heap) EvacScratch() *EvacScratch { return &h.evac }

// KeyedObject pairs an object with a sort key computed once per object
// rather than once per comparison.
type KeyedObject struct {
	Key uint64
	Obj *Object
}

// NewRegion commits a fresh region for generation gen. It fails with
// ErrOutOfMemory when the configured maximum would be exceeded. The
// region's page table is recycled from the last freed region when one is
// available.
func (h *Heap) NewRegion(gen GenID) (*Region, error) {
	if h.cfg.MaxBytes != 0 && h.committed+uint64(h.cfg.RegionSize) > h.cfg.MaxBytes {
		return nil, fmt.Errorf("committing region for gen %d: %w", gen, ErrOutOfMemory)
	}
	var rp *regionPages
	if n := len(h.rpFree); n > 0 {
		rp = h.rpFree[n-1]
		h.rpFree[n-1] = nil
		h.rpFree = h.rpFree[:n-1]
		rp.reset()
	} else {
		rp = newRegionPages(h.cfg.RegionSize / h.cfg.PageSize)
	}
	r := &Region{
		id:    h.nextRegion,
		gen:   gen,
		pages: rp,
	}
	h.nextRegion++
	// Region ids grow monotonically, so appending keeps active sorted.
	h.active = append(h.active, r)
	h.committed += uint64(h.cfg.RegionSize)
	if h.committed > h.maxCommitted {
		h.maxCommitted = h.committed
	}
	return r, nil
}

// FreeRegion returns an empty region to the system. Freeing a region that
// still has residents is a collector bug and panics: it would leak objects
// whose ids remain in the object table.
func (h *Heap) FreeRegion(r *Region) {
	if r.freed {
		panic(fmt.Sprintf("heap: double free of %v", r))
	}
	if r.residents != 0 {
		panic(fmt.Sprintf("heap: freeing non-empty %v", r))
	}
	r.freed = true
	r.used = 0
	h.committed -= uint64(h.cfg.RegionSize)
	h.freedRegions++
	// The region's memory is unmapped: drop it from the heap's region list
	// entirely (region ids are never reused; the Region struct is never
	// recycled because collectors hold *Region across collections and
	// check Freed). The page table's backing arrays are donated to the
	// next committed region. Snapshots communicate the disappearance
	// through their active-region list.
	h.rpFree = append(h.rpFree, r.pages)
	r.pages = nil
	i, ok := slices.BinarySearchFunc(h.active, r.id, func(a *Region, id RegionID) int {
		return cmp.Compare(a.id, id)
	})
	if !ok || h.active[i] != r {
		panic(fmt.Sprintf("heap: %v missing from the active list", r))
	}
	h.active = slices.Delete(h.active, i, i+1)
}

// Allocate places a new object of the given size into region r on behalf of
// a collector and returns it. The object's id (the allocation serial) is
// assigned here and never changes. Allocation dirties the touched pages.
// The Object struct is recycled from the heap's freelist when available;
// its recycling Stamp tells a stale pointer from the live object.
func (h *Heap) Allocate(r *Region, size uint32, site SiteID) (*Object, error) {
	if r.freed {
		return nil, fmt.Errorf("heap: allocating %d bytes in freed region %d", size, r.id)
	}
	if size == 0 {
		return nil, fmt.Errorf("heap: zero-size allocation at site %d", site)
	}
	if !r.fits(size, h.cfg.RegionSize) {
		return nil, fmt.Errorf("heap: %d bytes do not fit in %v (region size %d)", size, r, h.cfg.RegionSize)
	}
	h.idCounter++
	obj := h.objFree
	if obj != nil {
		h.objFree = obj.next
		h.freeObjects--
		obj.next = nil
		obj.ID = ObjectID(h.idCounter)
		obj.Size = size
		obj.Site = site
		obj.Age = 0
		obj.Offset = r.used
		obj.region = r
	} else {
		obj = &Object{
			ID:     ObjectID(h.idCounter),
			Size:   size,
			Site:   site,
			Offset: r.used,
			region: r,
		}
	}
	r.used += size
	r.pushResident(obj)
	h.objects.add(obj)
	h.totalBytes += uint64(size)
	first, last := obj.pageSpan(h.cfg.PageSize)
	r.pages.touch(first, last)
	return obj, nil
}

// IDOf returns the identity hash of the serial-th allocation: the
// SplitMix64 finalizer of the allocation counter, a bijection on uint64.
// An id is the serial itself; the hash is only a key for orders that must
// not follow allocation order: the collectors' evacuation order and a hub
// position index's home slots.
func IDOf(serial uint64) ObjectID {
	x := serial + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return ObjectID(x ^ (x >> 31))
}

// PinRoot pins obj as a GC root. Pins are counted: an object pinned twice
// must be unpinned twice. Pinning a removed object is a bug in the caller
// and panics.
func (h *Heap) PinRoot(obj *Object) {
	if obj.region == nil {
		panic(fmt.Sprintf("heap: pinning removed %v", obj))
	}
	obj.rootPins++
	if obj.rootPins == 1 {
		obj.rootIdx = int32(len(h.roots))
		h.roots = append(h.roots, obj)
	}
}

// UnpinRoot releases one root pin of obj. Unpinning an unpinned object is a
// bug in the caller and panics.
func (h *Heap) UnpinRoot(obj *Object) {
	if obj.rootPins == 0 {
		panic(fmt.Sprintf("heap: unpinning unpinned %v", obj))
	}
	obj.rootPins--
	if obj.rootPins == 0 {
		last := len(h.roots) - 1
		moved := h.roots[last]
		h.roots[obj.rootIdx] = moved
		moved.rootIdx = obj.rootIdx
		h.roots[last] = nil
		h.roots = h.roots[:last]
	}
}

// RootCount returns the number of distinct rooted objects.
func (h *Heap) RootCount() int { return len(h.roots) }

// Link records a reference from parent to child (a reference-field store).
// The store dirties the parent's header page; a cross-region edge grows the
// child region's remembered set.
func (h *Heap) Link(parent, child ObjectID) error {
	p, c := h.objects.get(parent), h.objects.get(child)
	if p == nil || c == nil {
		return fmt.Errorf("heap: Link %#x -> %#x with unknown endpoint", uint64(parent), uint64(child))
	}
	p.refs.inc(c, &h.blockFree)
	c.in.inc(p, &h.blockFree)
	if p.region != c.region {
		c.region.remsetEntries++
	}
	hp := p.headerPage(h.cfg.PageSize)
	p.region.pages.touch(hp, hp)
	return nil
}

// Unlink removes one reference from parent to child (a field overwrite or
// clear). It also dirties the parent's header page.
func (h *Heap) Unlink(parent, child ObjectID) error {
	p, c := h.objects.get(parent), h.objects.get(child)
	if p == nil || c == nil {
		return fmt.Errorf("heap: Unlink %#x -> %#x with unknown endpoint", uint64(parent), uint64(child))
	}
	if !p.refs.dec(c) {
		return fmt.Errorf("heap: Unlink of absent edge %v -> %v", p, c)
	}
	c.in.dec(p)
	if p.region != c.region {
		c.region.remsetEntries--
	}
	hp := p.headerPage(h.cfg.PageSize)
	p.region.pages.touch(hp, hp)
	return nil
}

// Evacuate moves obj into region dst (promotion, survivor copying, or
// compaction). The object's id is preserved; remembered sets of
// all affected regions are updated; the destination pages are dirtied.
func (h *Heap) Evacuate(obj *Object, dst *Region) error {
	if dst.freed {
		return fmt.Errorf("heap: evacuating %v into freed region %d", obj, dst.id)
	}
	src := obj.region
	if src == dst {
		return fmt.Errorf("heap: evacuating %v into its own region", obj)
	}
	if !dst.fits(obj.Size, h.cfg.RegionSize) {
		return fmt.Errorf("heap: %v does not fit in %v", obj, dst)
	}

	// Remembered-set deltas for edges incident to obj. Self-edges stay
	// intra-region before and after the move and contribute nothing.
	obj.in.each(func(parent *Object, n int32) {
		if parent == obj {
			return
		}
		pr := parent.region
		if pr != src {
			src.remsetEntries -= int(n)
		}
		if pr != dst {
			dst.remsetEntries += int(n)
		}
	})
	obj.refs.each(func(child *Object, n int32) {
		if child == obj {
			return
		}
		if child.region != src {
			// Was cross-region; still cross-region unless the child
			// lives in dst.
			if child.region == dst {
				child.region.remsetEntries -= int(n)
			}
		} else {
			// Was intra-region; becomes cross-region.
			child.region.remsetEntries += int(n)
		}
	})

	src.removeResident(obj)
	obj.Offset = dst.used
	obj.region = dst
	dst.used += obj.Size
	dst.pushResident(obj)
	first, last := obj.pageSpan(h.cfg.PageSize)
	dst.pages.touch(first, last)
	return nil
}

// Remove deletes a dead object from the heap on behalf of a collector.
// Removing a rooted object is a collector bug and panics, and so is
// removing an object twice: a removed object has no region. Edges incident
// to the object are torn down with their remembered-set contributions. The
// Object struct goes onto the heap's freelist with a bumped recycling
// stamp, and its edge stores' overflow blocks onto the block freelist; any
// pointer to the struct held across the removal is stale, and the stamp
// makes that detectable (Object.Stamp).
func (h *Heap) Remove(obj *Object) {
	if obj.rootPins > 0 {
		panic(fmt.Sprintf("heap: removing rooted %v", obj))
	}
	if obj.region == nil {
		panic(fmt.Sprintf("heap: double remove of %v", obj))
	}
	myRegion := obj.region
	obj.in.each(func(parent *Object, n int32) {
		if parent == obj {
			return
		}
		parent.refs.drop(obj)
		if parent.region != myRegion {
			myRegion.remsetEntries -= int(n)
		}
	})
	obj.refs.each(func(child *Object, n int32) {
		if child == obj {
			return
		}
		child.in.drop(obj)
		if child.region != myRegion {
			child.region.remsetEntries -= int(n)
		}
	})
	myRegion.removeResident(obj)
	h.objects.remove(obj.ID)

	// Recycle the struct: clear identity and graph state, move the edge
	// stores' overflow blocks onto the block freelist, bump the stamp so
	// stale pointers are detectable, and chain it onto the freelist
	// through next.
	obj.refs.reset(&h.blockFree)
	obj.in.reset(&h.blockFree)
	obj.ID = 0
	obj.mark = 0
	obj.Age = 0
	obj.region = nil
	obj.stamp++
	obj.next = h.objFree
	h.objFree = obj
	h.freeObjects++
}

// ActiveRegions returns all non-freed regions in ascending id order. The
// slice is a copy that callers may keep across heap mutations.
func (h *Heap) ActiveRegions() []*Region { return slices.Clone(h.active) }
