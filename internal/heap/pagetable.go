package heap

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

// orNot sets each of the first n bits of b that is clear in c, a word at a
// time.
func (b bitset) orNot(c bitset, n uint32) {
	for w := range b {
		mask := ^uint64(0)
		if rest := n - uint32(w)*64; rest < 64 {
			mask = 1<<rest - 1
		}
		b[w] |= ^c[w] & mask
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
	// Occupied reports whether any resident object's storage overlaps the
	// page; unoccupied pages carry no data worth snapshotting.
	Occupied bool
}
