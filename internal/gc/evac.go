package gc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"polm2/internal/heap"
)

// Cursor places evacuated objects into destination regions of one
// generation, committing fresh regions as the current one fills. It is the
// shared building block of every copying collection in this reproduction.
type Cursor struct {
	h       *heap.Heap
	gen     heap.GenID
	regions []*heap.Region
	cur     *heap.Region
	bytes   uint64
	objects int
}

// NewCursor returns a cursor that evacuates into generation gen.
func NewCursor(h *heap.Heap, gen heap.GenID) *Cursor {
	return &Cursor{h: h, gen: gen}
}

// Place evacuates obj into the cursor's generation.
func (c *Cursor) Place(obj *heap.Object) error {
	if c.cur == nil || c.cur.Used()+obj.Size > c.h.Config().RegionSize {
		r, err := c.h.NewRegion(c.gen)
		if err != nil {
			return fmt.Errorf("gc: acquiring evacuation region: %w", err)
		}
		c.regions = append(c.regions, r)
		c.cur = r
	}
	if err := c.h.Evacuate(obj, c.cur); err != nil {
		return fmt.Errorf("gc: evacuating %v: %w", obj, err)
	}
	c.bytes += uint64(obj.Size)
	c.objects++
	return nil
}

// Regions returns the destination regions committed so far.
func (c *Cursor) Regions() []*heap.Region {
	out := make([]*heap.Region, len(c.regions))
	copy(out, c.regions)
	return out
}

// Bytes returns the total bytes evacuated through the cursor.
func (c *Cursor) Bytes() uint64 { return c.bytes }

// Objects returns the number of objects evacuated through the cursor.
func (c *Cursor) Objects() int { return c.objects }

// Gen returns the cursor's destination generation.
func (c *Cursor) Gen() heap.GenID { return c.gen }

// LiveResidents returns the live residents of region r, each keyed by its
// id's identity hash (heap.IDOf), in ascending key order. Evacuation order
// determines placement offsets, so it must be deterministic for the
// simulation to stay bit-reproducible. The returned slice is the heap's
// scratch buffer: it is only valid until the next LiveResidents call on
// the same heap, which is fine for the collectors' evacuate-then-discard
// usage.
func LiveResidents(h *heap.Heap, r *heap.Region, live *heap.LiveSet) []heap.KeyedObject {
	scratch := h.ObjectScratch()
	out := (*scratch)[:0]
	for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
		if live.Marked(obj) {
			out = append(out, heap.KeyedObject{Key: uint64(heap.IDOf(uint64(obj.ID))), Obj: obj})
		}
	}
	// IDOf is a bijection, so the keys are distinct and the order total.
	slices.SortFunc(out, func(a, b heap.KeyedObject) int { return cmp.Compare(a.Key, b.Key) })
	*scratch = out
	return out
}

// SweepRegion removes every dead resident of r and returns the count and
// bytes of removed garbage. After a sweep and all its live objects'
// evacuation, the region is empty and can be freed.
//
// The sweep walks the region's intrusive resident list, whose insertion
// order is deterministic by construction, so no staging slice or sort is
// needed. Removal order never reaches the simulation's output: it only
// permutes page header lists, which the Analyzer consumes as sets.
func SweepRegion(h *heap.Heap, r *heap.Region, live *heap.LiveSet) (objects int, bytes uint64) {
	for obj := r.FirstResident(); obj != nil; {
		next := obj.NextResident()
		if !live.Marked(obj) {
			bytes += uint64(obj.Size)
			objects++
			h.Remove(obj)
		}
		obj = next
	}
	return objects, bytes
}

// EvacuateAndFree evacuates each live resident of r via place, sweeps the
// dead ones, and frees the region. It returns the garbage statistics from
// the sweep.
func EvacuateAndFree(h *heap.Heap, r *heap.Region, live *heap.LiveSet, place func(*heap.Object) error) (deadObjects int, deadBytes uint64, err error) {
	for _, res := range LiveResidents(h, r, live) {
		if err := place(res.Obj); err != nil {
			return 0, 0, err
		}
	}
	deadObjects, deadBytes = SweepRegion(h, r, live)
	h.FreeRegion(r)
	return deadObjects, deadBytes, nil
}

// SortRegionsByGarbage orders regions by descending dead-byte count under
// the given live set — G1's "garbage first" mixed-collection heuristic.
// Ties break on region id for determinism.
func SortRegionsByGarbage(regions []*heap.Region, live *heap.LiveSet) {
	garbage := func(r *heap.Region) uint64 {
		return uint64(r.Used()) - live.Region(r).Bytes
	}
	sort.Slice(regions, func(i, j int) bool {
		gi, gj := garbage(regions[i]), garbage(regions[j])
		if gi != gj {
			return gi > gj
		}
		return regions[i].ID() < regions[j].ID()
	})
}
