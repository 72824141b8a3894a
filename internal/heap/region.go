package heap

import "fmt"

// RegionID identifies a heap region. Region ids are never reused within one
// heap so that page keys remain unambiguous across the whole run.
type RegionID uint32

// Region is a fixed-size, bump-allocated slab of simulated memory owned by
// exactly one generation, as in G1 and NG2C.
type Region struct {
	id  RegionID
	gen GenID
	// used is the bump pointer: bytes allocated so far.
	used uint32
	// head and tail delimit the intrusive insertion-ordered doubly-linked
	// list of every object currently stored in the region, whether
	// reachable or not; liveness is only known after a trace. Threading
	// the list through the objects makes residency tracking allocation-
	// free and gives sweeps a deterministic order by construction.
	head, tail *Object
	// residents counts the objects on the list.
	residents int
	// remsetEntries counts incoming reference edges whose source object
	// resides in a different region — the region's remembered set size,
	// which the collectors charge scanning cost for.
	remsetEntries int
	// freed marks a region returned to the free pool. Region structs are
	// never recycled (collectors hold *Region across collections and
	// check Freed), only their page tables are.
	freed bool
	// pages is the region's page table, owned by the heap; the backing
	// arrays are recycled when the region is freed.
	pages *regionPages

	// traceEpoch, liveObjects and liveBytes are the region's liveness
	// summary for the trace epoch that last visited it; LiveSet.Region
	// reads them back, replacing a per-trace map allocation.
	traceEpoch  uint64
	liveObjects int
	liveBytes   uint64
}

// ID returns the region's identifier.
func (r *Region) ID() RegionID { return r.id }

// Gen returns the generation that owns the region.
func (r *Region) Gen() GenID { return r.gen }

// Used returns the number of allocated bytes.
func (r *Region) Used() uint32 { return r.used }

// ResidentCount returns the number of objects stored in the region
// (reachable or not).
func (r *Region) ResidentCount() int { return r.residents }

// RemsetEntries returns the current remembered-set size: the number of
// reference edges pointing into this region from objects in other regions.
func (r *Region) RemsetEntries() int { return r.remsetEntries }

// Freed reports whether the region has been returned to the free pool.
func (r *Region) Freed() bool { return r.freed }

// pushResident appends obj to the tail of the resident list.
func (r *Region) pushResident(obj *Object) {
	obj.prev = r.tail
	obj.next = nil
	if r.tail != nil {
		r.tail.next = obj
	} else {
		r.head = obj
	}
	r.tail = obj
	r.residents++
}

// removeResident unlinks obj from the resident list.
func (r *Region) removeResident(obj *Object) {
	if obj.prev != nil {
		obj.prev.next = obj.next
	} else {
		r.head = obj.next
	}
	if obj.next != nil {
		obj.next.prev = obj.prev
	} else {
		r.tail = obj.prev
	}
	obj.prev, obj.next = nil, nil
	r.residents--
}

// FirstResident returns the oldest resident (insertion order), or nil for
// an empty region. Together with Object.NextResident it is the one way to
// walk — and sweep — the region's residents, allocation-free and with no
// callback per object: read NextResident before removing the current
// object.
func (r *Region) FirstResident() *Object { return r.head }

// fits reports whether size more bytes fit in the region.
func (r *Region) fits(size, regionSize uint32) bool {
	return r.used+size <= regionSize && size <= regionSize
}

func (r *Region) String() string {
	return fmt.Sprintf("region{id=%d gen=%d used=%d residents=%d remset=%d freed=%v}",
		r.id, r.gen, r.used, r.residents, r.remsetEntries, r.freed)
}
