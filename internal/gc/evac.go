package gc

import (
	"fmt"
	"math/bits"
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

// FreeDeadRegion sweeps r, which holds no live resident, and returns it to
// the heap's free pool.
func FreeDeadRegion(h *heap.Heap, r *heap.Region, live *heap.LiveSet) {
	SweepRegion(h, r, live)
	h.FreeRegion(r)
}

// SweepRegion removes every dead resident of r and returns the count and
// bytes of removed garbage. The collectors sweep the regions they keep or
// free without copying; EvacuateAndFree sweeps the ones it empties.
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

// EvacuateAndFree empties region r and frees it, walking its residents
// once: each dead one is removed while the walk is at it, in list order as
// SweepRegion removes them, and each live one is keyed by the identity hash
// of its id (heap.IDOf). The live ones are then placed in ascending key
// order. Evacuation order determines placement offsets, so it must be
// deterministic for the simulation to stay bit-reproducible. It returns
// the garbage statistics of the sweep.
//
// Removing the dead before placing the live leaves every remembered set,
// edge order and freelist as placing first would have: Evacuate reads
// only its object's own edges and changes none, so the sequence of
// changes Remove makes to the edge stores is the same, and a dead
// neighbour's remembered-set contribution comes out the same either way.
func EvacuateAndFree(h *heap.Heap, r *heap.Region, live *heap.LiveSet, place func(*heap.Object) error) (deadObjects int, deadBytes uint64, err error) {
	s := h.EvacScratch()
	keyed := s.Keyed[:0]
	for obj := r.FirstResident(); obj != nil; {
		next := obj.NextResident()
		if live.Marked(obj) {
			keyed = append(keyed, heap.KeyedObject{Key: uint64(heap.IDOf(uint64(obj.ID))), Obj: obj})
		} else {
			deadBytes += uint64(obj.Size)
			deadObjects++
			h.Remove(obj)
		}
		obj = next
	}
	s.Keyed = keyed
	for _, k := range sortByKey(s, keyed) {
		if err := place(k.Obj); err != nil {
			return 0, 0, err
		}
	}
	h.FreeRegion(r)
	return deadObjects, deadBytes, nil
}

// smallSort is the largest run sortByKey orders by insertion alone.
const smallSort = 16

// sortByKey orders ks by ascending Key and returns the sorted pairs, which
// are either ks itself or the scratch's Sorted buffer. The keys are IDOf
// outputs, uniform over 64 bits and distinct (IDOf is a bijection), so a
// counting pass over the top ⌈log₂ n⌉ bits leaves about one pair per
// bucket, and one insertion pass over the buckets in order finishes the
// sort in linear expected time. Keys that shared their top bits would make
// that pass quadratic; uniform keys fill no bucket far past its mean. The
// buffers are the heap's, so a steady-state collection allocates nothing
// here.
func sortByKey(s *heap.EvacScratch, ks []heap.KeyedObject) []heap.KeyedObject {
	n := len(ks)
	if n <= smallSort {
		insertionSort(ks)
		return ks
	}
	width := bits.Len(uint(n - 1))
	shift := 64 - width
	counts := slices.Grow(s.Counts[:0], 1<<width)[:1<<width]
	clear(counts)
	for _, k := range ks {
		counts[k.Key>>shift]++
	}
	start := uint32(0)
	for b, c := range counts {
		counts[b] = start
		start += c
	}
	out := slices.Grow(s.Sorted[:0], n)[:n]
	for _, k := range ks {
		b := k.Key >> shift
		out[counts[b]] = k
		counts[b]++
	}
	insertionSort(out)
	s.Counts, s.Sorted = counts, out
	return out
}

// insertionSort orders ks by ascending Key.
func insertionSort(ks []heap.KeyedObject) {
	for i := 1; i < len(ks); i++ {
		k := ks[i]
		j := i
		for ; j > 0 && ks[j-1].Key > k.Key; j-- {
			ks[j] = ks[j-1]
		}
		ks[j] = k
	}
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
