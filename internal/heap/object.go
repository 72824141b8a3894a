// Package heap implements the simulated managed heap that replaces the
// HotSpot JVM heap in this reproduction of POLM2 (Middleware '17).
//
// The heap is organized exactly the way the collectors in the paper need it
// to be:
//
//   - memory is split into fixed-size regions (as in G1 and NG2C), each
//     owned by one generation and bump-allocated;
//   - regions are split into 4 KiB pages tracked by a page table with a
//     dirty bit (set on mutation) and a no-need bit (set by the GC for pages
//     holding no reachable object), mirroring the kernel page-table bits the
//     paper's Dumper relies on through CRIU (§4.2);
//   - objects carry a stable 64-bit id in their header, their allocation
//     serial, that survives promotion and compaction, standing in for
//     System.identityHashCode (§4.3);
//   - liveness is discovered by tracing from an explicit root set over
//     explicit reference edges — workloads never declare lifetimes, so the
//     profiler faces the same estimation problem it faces on a JVM.
//
// The hot data structures are laid out so a steady-state GC cycle performs
// near-zero Go allocations and no Go map operation (DESIGN.md §8):
// reference edges live in a hybrid store (one inline edge per direction,
// then a pooled overflow block of inline slots, spill and a flat position
// index), region residency is an intrusive doubly-linked list threaded
// through the objects, the id index is a table of fixed chunks over the
// allocation serials, and dead Object structs, overflow blocks and emptied
// index chunks are recycled through per-heap freelists.
package heap

import "fmt"

// ObjectID is the stable identity of a simulated object: its allocation
// serial, counting from 1, which never changes, even when the collector
// moves the object (§4.3 of the paper); 0 is never an id. Orders that must
// not follow allocation order key on its identity hash, IDOf.
type ObjectID uint64

// SiteID identifies an interned allocation stack trace. Zero is reserved
// for "unknown site".
type SiteID uint32

// GenID identifies a generation. Generation 0 is always the young
// generation; pretenuring collectors add generations 1..N at runtime.
type GenID int32

// Young is the generation every non-pretenured allocation lands in.
const Young GenID = 0

// edgeInlineCap is the number of (child, count) pairs an edge store holds
// in its logical inline slots before spilling. Slot 0 lives in the edgeSet
// itself, because almost every resident object has at most one edge per
// direction; slots 1 to edgeInlineCap-1 live in the overflow block, which
// also holds the spill and the position index.
const edgeInlineCap = 4

// edgeRef is one reference edge with multiplicity.
type edgeRef struct {
	obj *Object
	n   int32
}

// edgeIdxThreshold is the spill length beyond which an edgeSet builds a
// position index. Below it, a linear scan over at most a few cache lines
// beats any hashing; above it (the apps' holder objects fan out to
// thousands of children), the index keeps inc/dec/drop O(1) where the
// sorted alternatives go quadratic over a holder's lifetime.
const edgeIdxThreshold = 32

// edgeSet is the hybrid edge store: edgeInlineCap logical inline slots for
// the common low-fanout case, then an insertion-ordered spill slice (plus a
// lazily built position index) for high-fanout objects. Only slot 0 is
// stored in the set; slots 1 and up, the spill and the index live in an
// edgeBlock taken on the second distinct edge, so a leaf or a singly
// referenced object pays 24 bytes per direction. Compared to the
// map[*Object]int it replaces, it allocates nothing for fanout one, its
// blocks are recycled through the heap's block freelist, and its iteration
// order is deterministic: inline slots then spill slots, an order that is a
// pure function of the Link/Unlink/Remove history (the position index, a
// flat probe table rather than a Go map, is used only for lookup, never
// iterated).
type edgeSet struct {
	// obj0 and n0 are logical inline slot 0.
	obj0      *Object
	n0        int32
	inlineLen int32
	// blk holds everything past slot 0; nil until the set first holds two
	// distinct edges, and kept until the owning object is removed.
	blk *edgeBlock
}

// edgeBlock is an edgeSet's out-of-line storage.
type edgeBlock struct {
	// inline holds logical inline slots 1 to edgeInlineCap-1.
	inline [edgeInlineCap - 1]edgeRef
	// spill holds the overflow edges in insertion order; removal
	// swap-deletes, so the order stays a deterministic function of the
	// operation history.
	spill []edgeRef
	// idx maps spill children to their position once the spill outgrows
	// edgeIdxThreshold: an open-addressed, linearly probed table whose
	// length is a power of two at least twice the spill's, each slot zero
	// or a spill position plus one. A child's home slot is IDOf(ID) masked
	// to the table, so children allocated at a stride still spread; a slot
	// reads its child back from the spill, and deletion shifts the probe run
	// back instead of leaving tombstones, so the layout is a pure function
	// of the history.
	// Once built it is maintained forever (and kept, cleared, across
	// recycling): a block that served a hub once tends to again.
	idx []int32
}

// edgeIdxMinLen is the length of a freshly built position index: the
// spill that triggers it fills about a quarter, and the table doubles once
// the spill passes half of it.
const edgeIdxMinLen = 4 * edgeIdxThreshold

// home returns o's home slot in the position index.
func (b *edgeBlock) home(o *Object) int {
	return int(uint64(IDOf(uint64(o.ID))) & uint64(len(b.idx)-1))
}

// idxSlot returns the index slot holding o's spill position, or -1.
func (b *edgeBlock) idxSlot(o *Object) int {
	mask := len(b.idx) - 1
	for i := b.home(o); ; i = (i + 1) & mask {
		v := b.idx[i]
		if v == 0 {
			return -1
		}
		if b.spill[v-1].obj == o {
			return i
		}
	}
}

// idxInsert records spill position pos in o's probe run.
func (b *edgeBlock) idxInsert(o *Object, pos int) {
	mask := len(b.idx) - 1
	i := b.home(o)
	for b.idx[i] != 0 {
		i = (i + 1) & mask
	}
	b.idx[i] = int32(pos + 1)
}

// idxDelete empties slot i and shifts the rest of its probe run back, so
// that every remaining entry stays reachable from its home slot.
func (b *edgeBlock) idxDelete(i int) {
	mask := len(b.idx) - 1
	for j := (i + 1) & mask; b.idx[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-b.home(b.spill[b.idx[j]-1].obj))&mask >= (j-i)&mask {
			b.idx[i] = b.idx[j]
			i = j
		}
	}
	b.idx[i] = 0
}

// idxRebuild replaces the index with one of n slots holding every spill
// position.
func (b *edgeBlock) idxRebuild(n int) {
	b.idx = make([]int32, n)
	for i := range b.spill {
		b.idxInsert(b.spill[i].obj, i)
	}
}

// edgeBlocks is a heap's freelist of cleared overflow blocks. Blocks keep
// their spill capacity and position index, so the next hub relinks its
// fan-out without growing either from nothing.
type edgeBlocks []*edgeBlock

// get returns a cleared block, recycled when one is available.
func (f *edgeBlocks) get() *edgeBlock {
	n := len(*f)
	if n == 0 {
		return new(edgeBlock)
	}
	b := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return b
}

// slot returns logical inline slot i.
func (s *edgeSet) slot(i int32) edgeRef {
	if i == 0 {
		return edgeRef{obj: s.obj0, n: s.n0}
	}
	return s.blk.inline[i-1]
}

// setSlot stores e in logical inline slot i.
func (s *edgeSet) setSlot(i int32, e edgeRef) {
	if i == 0 {
		s.obj0, s.n0 = e.obj, e.n
		return
	}
	s.blk.inline[i-1] = e
}

// findInline returns the logical inline index of o, or -1.
func (s *edgeSet) findInline(o *Object) int32 {
	if s.inlineLen == 0 {
		return -1
	}
	if s.obj0 == o {
		return 0
	}
	for i := int32(1); i < s.inlineLen; i++ {
		if s.blk.inline[i-1].obj == o {
			return i
		}
	}
	return -1
}

// spillFind returns the spill index of o, or -1.
func (s *edgeSet) spillFind(o *Object) int {
	b := s.blk
	if b == nil {
		return -1
	}
	if b.idx != nil {
		if i := b.idxSlot(o); i >= 0 {
			return int(b.idx[i] - 1)
		}
		return -1
	}
	for i := range b.spill {
		if b.spill[i].obj == o {
			return i
		}
	}
	return -1
}

// inc adds one edge to o, creating the entry if absent; a set that needs a
// block takes one from free.
func (s *edgeSet) inc(o *Object, free *edgeBlocks) {
	if i := s.findInline(o); i >= 0 {
		e := s.slot(i)
		e.n++
		s.setSlot(i, e)
		return
	}
	if i := s.spillFind(o); i >= 0 {
		s.blk.spill[i].n++
		return
	}
	if s.inlineLen > 0 && s.blk == nil {
		s.blk = free.get()
	}
	if s.inlineLen < edgeInlineCap {
		s.setSlot(s.inlineLen, edgeRef{obj: o, n: 1})
		s.inlineLen++
		return
	}
	b := s.blk
	b.spill = append(b.spill, edgeRef{obj: o, n: 1})
	switch {
	case b.idx != nil && 2*len(b.spill) > len(b.idx):
		b.idxRebuild(2 * len(b.idx))
	case b.idx != nil:
		b.idxInsert(o, len(b.spill)-1)
	case len(b.spill) > edgeIdxThreshold:
		b.idxRebuild(edgeIdxMinLen)
	}
}

// dec removes one edge to o, deleting the entry when the count reaches
// zero. It reports whether the edge existed; a false return mutates
// nothing.
func (s *edgeSet) dec(o *Object) bool {
	if i := s.findInline(o); i >= 0 {
		e := s.slot(i)
		e.n--
		s.setSlot(i, e)
		if e.n == 0 {
			s.removeInlineAt(i)
		}
		return true
	}
	if i := s.spillFind(o); i >= 0 {
		s.blk.spill[i].n--
		if s.blk.spill[i].n == 0 {
			s.removeSpillAt(i)
		}
		return true
	}
	return false
}

// drop removes the entry for o regardless of multiplicity, returning the
// multiplicity removed (zero if absent).
func (s *edgeSet) drop(o *Object) int32 {
	if i := s.findInline(o); i >= 0 {
		n := s.slot(i).n
		s.removeInlineAt(i)
		return n
	}
	if i := s.spillFind(o); i >= 0 {
		n := s.blk.spill[i].n
		s.removeSpillAt(i)
		return n
	}
	return 0
}

func (s *edgeSet) removeInlineAt(i int32) {
	s.inlineLen--
	s.setSlot(i, s.slot(s.inlineLen))
	s.setSlot(s.inlineLen, edgeRef{})
}

func (s *edgeSet) removeSpillAt(i int) {
	b := s.blk
	last := len(b.spill) - 1
	hole := -1
	if b.idx != nil {
		// Repoint the moved child's slot before the swap, and empty the
		// removed child's after it, when every slot reads a live position.
		hole = b.idxSlot(b.spill[i].obj)
		if i != last {
			b.idx[b.idxSlot(b.spill[last].obj)] = int32(i + 1)
		}
	}
	b.spill[i] = b.spill[last]
	b.spill[last] = edgeRef{}
	b.spill = b.spill[:last]
	if hole >= 0 {
		b.idxDelete(hole)
	}
}

// count returns the multiplicity of the edge to o (zero if absent).
func (s *edgeSet) count(o *Object) int32 {
	if i := s.findInline(o); i >= 0 {
		return s.slot(i).n
	}
	if i := s.spillFind(o); i >= 0 {
		return s.blk.spill[i].n
	}
	return 0
}

// len returns the number of distinct edges.
func (s *edgeSet) len() int {
	if s.blk == nil {
		return int(s.inlineLen)
	}
	return int(s.inlineLen) + len(s.blk.spill)
}

// each calls f for every distinct edge with its multiplicity. f must not
// mutate the set.
func (s *edgeSet) each(f func(o *Object, n int32)) {
	if s.inlineLen > 0 {
		f(s.obj0, s.n0)
	}
	b := s.blk
	if b == nil {
		return
	}
	for i := int32(1); i < s.inlineLen; i++ {
		f(b.inline[i-1].obj, b.inline[i-1].n)
	}
	for i := range b.spill {
		f(b.spill[i].obj, b.spill[i].n)
	}
}

// reset empties the store and moves its block, cleared but keeping its
// spill backing array and position index, onto free.
func (s *edgeSet) reset(free *edgeBlocks) {
	s.obj0, s.n0 = nil, 0
	s.inlineLen = 0
	b := s.blk
	if b == nil {
		return
	}
	s.blk = nil
	b.inline = [edgeInlineCap - 1]edgeRef{}
	clear(b.spill)
	b.spill = b.spill[:0]
	clear(b.idx)
	*free = append(*free, b)
}

// Object is a simulated heap object. Only the heap and the collectors
// mutate objects; mutator code goes through the Heap's graph API.
type Object struct {
	// ID is the object's stable identity, its allocation serial.
	ID ObjectID
	// Size is the object's size in simulated bytes, header included.
	Size uint32
	// Site is the allocation site (interned stack trace) that produced
	// the object.
	Site SiteID
	// Age counts the young collections the object has survived; the
	// 2-generation collector promotes at a configured tenuring threshold.
	Age uint8
	// Offset locates the object's storage within its region.
	Offset uint32

	// refs holds outgoing reference edges with multiplicity; in holds the
	// mirror incoming edges so remembered sets can be maintained
	// incrementally when objects move. Edges reference objects by pointer
	// so the tracer and the collectors never pay an object-table lookup
	// per edge; edges to removed objects are torn down eagerly by Remove,
	// so no stale pointer ever survives in either store.
	refs edgeSet
	in   edgeSet

	// region is the object's current region and the only record of its
	// location: the generation is the region's (Gen), and the storage is
	// region plus Offset. A removed object has no region.
	region *Region
	// rootPins counts how many times the object has been pinned as a GC
	// root; while it is nonzero, rootIdx is the object's position in the
	// heap's root list.
	rootPins int32
	rootIdx  int32
	// mark is the trace epoch that last reached this object; the heap
	// compares it against its current epoch instead of building a
	// live-set map on every collection.
	mark uint64

	// prev and next thread the object onto its region's intrusive
	// insertion-ordered resident list; next doubles as the freelist link
	// while the object is dead.
	prev, next *Object
	// stamp counts how many times this Object struct has been recycled
	// through the heap's freelist. A caller holding an object across a
	// collection can detect reuse by comparing Stamp values (tests use
	// this to catch stale-pointer bugs).
	stamp uint32
}

// headerPage returns the index (within the object's region) of the page
// holding the object's header. The analyzer can only recover an object's
// id from a snapshot when this page is included (§4.3).
func (o *Object) headerPage(pageSize uint32) uint32 {
	return o.Offset / pageSize
}

// pageSpan returns the inclusive page-index range [first, last] the object's
// storage covers within its region.
func (o *Object) pageSpan(pageSize uint32) (first, last uint32) {
	first = o.Offset / pageSize
	last = (o.Offset + o.Size - 1) / pageSize
	return first, last
}

// Region returns the region the object resides in, or nil once the object
// has been removed.
func (o *Object) Region() *Region { return o.region }

// Gen returns the generation the object resides in: its region's. It must
// not be called on a removed object.
func (o *Object) Gen() GenID { return o.region.gen }

// RefCount returns the multiplicity of the edge from o to child.
func (o *Object) RefCount(child *Object) int {
	return int(o.refs.count(child))
}

// EachRef calls f for every distinct outgoing reference edge with its
// multiplicity, in deterministic (store) order. The callback must not
// mutate the heap.
func (o *Object) EachRef(f func(child *Object, n int)) {
	o.refs.each(func(c *Object, n int32) { f(c, int(n)) })
}

// OutDegree returns the number of distinct outgoing references.
func (o *Object) OutDegree() int { return o.refs.len() }

// InDegree returns the number of distinct incoming references.
func (o *Object) InDegree() int { return o.in.len() }

// IsRoot reports whether the object is currently pinned as a GC root.
func (o *Object) IsRoot() bool { return o.rootPins > 0 }

// NextResident returns the next object on the region's insertion-ordered
// resident list, or nil at the tail. Collectors sweeping a region read the
// next pointer before removing the current object.
func (o *Object) NextResident() *Object { return o.next }

// Stamp returns the object's recycling generation: the number of times this
// struct has been reused through the heap's freelist. A pointer held across
// collections refers to the same logical object only while the stamp (and
// ID) are unchanged.
func (o *Object) Stamp() uint32 { return o.stamp }

func (o *Object) String() string {
	if o.region == nil {
		return fmt.Sprintf("obj{id=%d size=%d site=%d removed}", o.ID, o.Size, o.Site)
	}
	return fmt.Sprintf("obj{id=%d size=%d site=%d gen=%d age=%d r%d+%d}",
		o.ID, o.Size, o.Site, o.region.gen, o.Age, o.region.id, o.Offset)
}
