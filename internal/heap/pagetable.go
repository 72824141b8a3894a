package heap

import "math/bits"

// PageKey names one page of simulated memory: the page with index Index
// inside region Region. Region ids are never reused, so a PageKey is stable
// for the lifetime of a heap.
type PageKey struct {
	Region RegionID
	Index  uint32
}

// bitset is a minimal fixed-capacity bitset.
type bitset []uint64

func newBitset(n uint32) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i uint32)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint32)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i uint32) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) setAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b bitset) clearAll() {
	for i := range b {
		b[i] = 0
	}
}

// prefixMask selects the bits of word w that lie among a bitset's first n.
func prefixMask(w int, n uint32) uint64 {
	switch lo := uint32(w) * 64; {
	case n <= lo:
		return 0
	case n-lo < 64:
		return 1<<(n-lo) - 1
	}
	return ^uint64(0)
}

// orNot sets each of the first n bits of b that is clear in c, a word at a
// time.
func (b bitset) orNot(c bitset, n uint32) {
	for w := range b {
		b[w] |= ^c[w] & prefixMask(w, n)
	}
}

// any reports whether any bit is set.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// regionPages is one region's slice of the simulated kernel page table the
// paper's Dumper relies on (§4.2): a dirty bit set whenever the page is
// written (allocation, evacuation target, or a reference-field store) and
// cleared by the Dumper after every snapshot, plus a no-need bit set by the
// collector for pages holding no reachable data and cleared as soon as the
// page is written again. It holds no per-object state: which objects lie
// on a page is read off the region's resident list when a dumper asks
// (Heap.Pages), as CRIU reads page contents at dump time. cover is
// MarkNoNeedPages' scratch: the pages some live object's storage overlaps,
// valid only during that call.
type regionPages struct {
	dirty  bitset
	noNeed bitset
	cover  bitset
	n      uint32
}

func newRegionPages(n uint32) *regionPages {
	return &regionPages{dirty: newBitset(n), noNeed: newBitset(n), cover: newBitset(n), n: n}
}

// reset clears the page table for reuse by a fresh region, keeping the
// bitsets' backing arrays.
func (rp *regionPages) reset() {
	rp.dirty.clearAll()
	rp.noNeed.clearAll()
}

// touch marks the page range [first, last] dirty and clears its no-need
// bits: written memory is live memory from the kernel's perspective.
func (rp *regionPages) touch(first, last uint32) {
	for i := first; i <= last && i < rp.n; i++ {
		rp.dirty.set(i)
		rp.noNeed.clear(i)
	}
}

// PageState is the externally visible state of one page, consumed by the
// dumpers.
type PageState struct {
	Key    PageKey
	Dirty  bool
	NoNeed bool
	// Headers lists the resident objects whose header lies on this page,
	// in ascending offset order; a snapshot that includes the page lets
	// the Analyzer recover exactly their ids (§4.3). The slice aliases a
	// per-heap scratch buffer and is valid only during the Pages callback.
	Headers []*Object
}

// PageCounts counts the active regions' pages four ways at one instant:
// what a dump copies with both of the Dumper's optimizations (§3.2, §4.2),
// with no-need elision off, with incrementality off, and with neither. A
// page is used when it lies below its region's bump pointer.
type PageCounts struct {
	DirtyNeeded int // dirty and not no-need: what the Dumper copies
	Dirty       int
	UsedNeeded  int // used and not no-need
	Used        int
}

// CountPages counts the active regions' pages (see PageCounts) by popcount
// over the page-table bitsets and bump pointers; it reads no resident.
func (h *Heap) CountPages() PageCounts {
	var c PageCounts
	pageSize := h.cfg.PageSize
	for _, r := range h.active {
		rp := r.pages
		used := min((r.used+pageSize-1)/pageSize, rp.n)
		c.Used += int(used)
		for w, dirty := range rp.dirty {
			noNeed := rp.noNeed[w]
			c.DirtyNeeded += bits.OnesCount64(dirty &^ noNeed)
			c.Dirty += bits.OnesCount64(dirty)
			c.UsedNeeded += bits.OnesCount64(prefixMask(w, used) &^ noNeed)
		}
	}
	return c
}
