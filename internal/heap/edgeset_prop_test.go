package heap

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// shadowGraph is the reference model for the hybrid edge store: plain
// nested maps with multiplicity, the representation the edgeSet replaced.
type shadowGraph struct {
	refs map[ObjectID]map[ObjectID]int
	in   map[ObjectID]map[ObjectID]int
}

func newShadowGraph() *shadowGraph {
	return &shadowGraph{
		refs: make(map[ObjectID]map[ObjectID]int),
		in:   make(map[ObjectID]map[ObjectID]int),
	}
}

func bump(m map[ObjectID]map[ObjectID]int, a, b ObjectID, d int) {
	inner := m[a]
	if inner == nil {
		inner = make(map[ObjectID]int)
		m[a] = inner
	}
	inner[b] += d
	if inner[b] == 0 {
		delete(inner, b)
	}
}

func (g *shadowGraph) link(p, c ObjectID) {
	bump(g.refs, p, c, 1)
	bump(g.in, c, p, 1)
}

func (g *shadowGraph) unlink(p, c ObjectID) bool {
	if g.refs[p][c] == 0 {
		return false
	}
	bump(g.refs, p, c, -1)
	bump(g.in, c, p, -1)
	return true
}

func (g *shadowGraph) remove(id ObjectID) {
	for parent := range g.in[id] {
		bump(g.refs, parent, id, -g.refs[parent][id])
	}
	for child := range g.refs[id] {
		bump(g.in, child, id, -g.in[child][id])
	}
	delete(g.refs, id)
	delete(g.in, id)
}

// checkObject compares one object's edge stores against the shadow model;
// byID resolves the model's ids to the heap's objects.
func checkObject(t *testing.T, obj *Object, g *shadowGraph, byID map[ObjectID]*Object) {
	t.Helper()
	wantOut := g.refs[obj.ID]
	wantIn := g.in[obj.ID]
	if obj.OutDegree() != len(wantOut) {
		t.Fatalf("%v: OutDegree = %d, shadow %d", obj, obj.OutDegree(), len(wantOut))
	}
	if obj.InDegree() != len(wantIn) {
		t.Fatalf("%v: InDegree = %d, shadow %d", obj, obj.InDegree(), len(wantIn))
	}
	seen := 0
	obj.EachRef(func(child *Object, n int) {
		seen++
		if wantOut[child.ID] != n {
			t.Fatalf("%v: edge to %#x has count %d, shadow %d",
				obj, uint64(child.ID), n, wantOut[child.ID])
		}
	})
	if seen != len(wantOut) {
		t.Fatalf("%v: EachRef visited %d edges, shadow %d", obj, seen, len(wantOut))
	}
	for child, n := range wantOut {
		if got := obj.RefCount(byID[child]); got != n {
			t.Fatalf("%v: RefCount(%#x) = %d, shadow %d", obj, uint64(child), got, n)
		}
	}
	if got := obj.RefCount(&Object{}); got != 0 {
		t.Fatalf("%v: RefCount of absent edge = %d", obj, got)
	}
}

// orderSet is the order model of one edge store: a plain reimplementation
// of the four-inline-slots-then-spill layout with swap-delete, kept
// independent of where the store physically keeps each slot. Every order
// downstream of the store (EachRef, the tracer's BFS queue) is a function
// of this logical layout.
type orderSet struct {
	inline []orderRef // at most edgeInlineCap
	spill  []orderRef
}

type orderRef struct {
	id ObjectID
	n  int
}

func (s *orderSet) find(id ObjectID) (list *[]orderRef, i int) {
	for i := range s.inline {
		if s.inline[i].id == id {
			return &s.inline, i
		}
	}
	for i := range s.spill {
		if s.spill[i].id == id {
			return &s.spill, i
		}
	}
	return nil, -1
}

func (s *orderSet) inc(id ObjectID) {
	if l, i := s.find(id); l != nil {
		(*l)[i].n++
	} else if len(s.inline) < edgeInlineCap {
		s.inline = append(s.inline, orderRef{id, 1})
	} else {
		s.spill = append(s.spill, orderRef{id, 1})
	}
}

// dec removes one edge (all of them when all is set), swap-deleting the
// entry once its count reaches zero.
func (s *orderSet) dec(id ObjectID, all bool) {
	l, i := s.find(id)
	if l == nil {
		return
	}
	(*l)[i].n--
	if all {
		(*l)[i].n = 0
	}
	if (*l)[i].n == 0 {
		last := len(*l) - 1
		(*l)[i] = (*l)[last]
		*l = (*l)[:last]
	}
}

// order lists the model's edges in iteration order.
func (s *orderSet) order() []orderRef {
	return append(append([]orderRef(nil), s.inline...), s.spill...)
}

// orderModel holds an orderSet per direction for every object.
type orderModel struct {
	out, in map[ObjectID]*orderSet
}

// setOf returns id's set in sets, creating it empty.
func setOf(sets map[ObjectID]*orderSet, id ObjectID) *orderSet {
	s := sets[id]
	if s == nil {
		s = &orderSet{}
		sets[id] = s
	}
	return s
}

func (m *orderModel) link(p, c ObjectID) {
	setOf(m.out, p).inc(c)
	setOf(m.in, c).inc(p)
}

func (m *orderModel) unlink(p, c ObjectID) {
	setOf(m.out, p).dec(c, false)
	setOf(m.in, c).dec(p, false)
}

// remove mirrors Heap.Remove: every other parent drops its edge to id and
// every other child drops its edge from id.
func (m *orderModel) remove(id ObjectID) {
	for _, e := range setOf(m.in, id).order() {
		if e.id != id {
			setOf(m.out, e.id).dec(id, true)
		}
	}
	for _, e := range setOf(m.out, id).order() {
		if e.id != id {
			setOf(m.in, e.id).dec(id, true)
		}
	}
	delete(m.out, id)
	delete(m.in, id)
}

// checkOrder requires obj's out- and in-edges to come out of the store in
// exactly the model's order, counts included.
func checkOrder(t *testing.T, obj *Object, m *orderModel) {
	t.Helper()
	var out, in []orderRef
	obj.EachRef(func(c *Object, n int) { out = append(out, orderRef{c.ID, n}) })
	obj.in.each(func(p *Object, n int32) { in = append(in, orderRef{p.ID, int(n)}) })
	if want := setOf(m.out, obj.ID).order(); !slices.Equal(out, want) {
		t.Fatalf("%v: EachRef order %v, model %v", obj, out, want)
	}
	if want := setOf(m.in, obj.ID).order(); !slices.Equal(in, want) {
		t.Fatalf("%v: in-edge order %v, model %v", obj, in, want)
	}
}

// checkTraceOrder requires the tracer's BFS order to equal a BFS over the
// model's edge order from the heap's roots.
func checkTraceOrder(t *testing.T, h *Heap, m *orderModel) {
	t.Helper()
	var want []ObjectID
	seen := make(map[ObjectID]bool)
	for _, r := range h.roots {
		if !seen[r.ID] {
			seen[r.ID] = true
			want = append(want, r.ID)
		}
	}
	for head := 0; head < len(want); head++ {
		for _, e := range setOf(m.out, want[head]).order() {
			if !seen[e.id] {
				seen[e.id] = true
				want = append(want, e.id)
			}
		}
	}
	ls := h.Trace()
	got := make([]ObjectID, len(ls.objs))
	for i, obj := range ls.objs {
		got[i] = obj.ID
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace visited %d objects in an order the model does not give (%d expected)", len(got), len(want))
	}
}

// TestEdgeStorePropertyVsShadow drives a heap through a long random
// Link/Unlink/Evacuate/Remove history and checks the hybrid edge store
// against the nested-map shadow model after every operation batch. Parent
// picks are biased toward a few hub objects so their fanout crosses
// edgeInlineCap and edgeIdxThreshold, exercising inline, linear-spill and
// indexed-spill storage plus the transitions between them. Besides the
// multiset, every batch checks each object's edge order in both directions
// and the tracer's BFS order against the order model, so a change that
// reorders the store (and with it the collectors' traversal) fails here.
func TestEdgeStorePropertyVsShadow(t *testing.T) {
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	g := newShadowGraph()
	m := &orderModel{out: make(map[ObjectID]*orderSet), in: make(map[ObjectID]*orderSet)}

	var objs []*Object
	byID := make(map[ObjectID]*Object)
	regions := []*Region{}
	regionWithSpace := func(size uint32, not *Region) *Region {
		for _, r := range regions {
			if r != not && !r.Freed() && r.fits(size, h.cfg.RegionSize) {
				return r
			}
		}
		r, err := h.NewRegion(Young)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
		return r
	}
	pick := func() *Object {
		// Bias toward low indices: the long-lived early objects become
		// high-fanout hubs.
		if rng.Intn(3) == 0 && len(objs) > 4 {
			return objs[rng.Intn(4)]
		}
		return objs[rng.Intn(len(objs))]
	}

	const ops = 20000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(100); {
		case op < 30 || len(objs) < 8: // allocate
			size := uint32(64 + rng.Intn(512))
			r := regionWithSpace(size, nil)
			obj, err := h.Allocate(r, size, SiteID(rng.Intn(8)))
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
			byID[obj.ID] = obj
			// Root every sixteenth allocation so the trace has work.
			if len(byID)%16 == 0 {
				h.PinRoot(obj)
			}
		case op < 60: // link
			p, c := pick(), pick()
			if err := h.Link(p.ID, c.ID); err != nil {
				t.Fatal(err)
			}
			g.link(p.ID, c.ID)
			m.link(p.ID, c.ID)
		case op < 75: // unlink, sometimes of an absent edge
			p, c := pick(), pick()
			err := h.Unlink(p.ID, c.ID)
			m.unlink(p.ID, c.ID)
			if g.unlink(p.ID, c.ID) {
				if err != nil {
					t.Fatalf("Unlink of present edge failed: %v", err)
				}
			} else if err == nil {
				t.Fatalf("Unlink of absent edge %v -> %v succeeded", p, c)
			}
		case op < 85: // evacuate
			obj := pick()
			dst := regionWithSpace(obj.Size, obj.region)
			if err := h.Evacuate(obj, dst); err != nil {
				t.Fatal(err)
			}
		default: // remove
			idx := rng.Intn(len(objs))
			obj := objs[idx]
			g.remove(obj.ID)
			m.remove(obj.ID)
			delete(byID, obj.ID)
			for obj.IsRoot() {
				h.UnpinRoot(obj)
			}
			h.Remove(obj)
			objs[idx] = objs[len(objs)-1]
			objs = objs[:len(objs)-1]
		}
		if i%64 == 0 {
			checkObject(t, objs[rng.Intn(len(objs))], g, byID)
			for _, obj := range objs {
				checkOrder(t, obj, m)
			}
			checkTraceOrder(t, h, m)
		}
	}

	for _, obj := range objs {
		checkObject(t, obj, g, byID)
		checkOrder(t, obj, m)
	}
	checkTraceOrder(t, h, m)
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant violated in regions %v", bad)
	}
	if bad := h.CheckPageInvariant(); len(bad) != 0 {
		t.Fatalf("page invariant violated in regions %v", bad)
	}
}

// TestFreelistChurnInvariants churns allocation and removal through the
// object freelist and the region page-table pool for many rounds, checking
// the incremental remset and page-table invariants after every round. It
// fails if recycling ever leaks stale edges, residency or page bookkeeping
// into a reused struct.
func TestFreelistChurnInvariants(t *testing.T) {
	h, err := New(Config{RegionSize: 32 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	holderRegion, err := h.NewRegion(GenID(1))
	if err != nil {
		t.Fatal(err)
	}
	holder, err := h.Allocate(holderRegion, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(holder)

	for round := 0; round < 50; round++ {
		r, err := h.NewRegion(Young)
		if err != nil {
			t.Fatal(err)
		}
		var batch []*Object
		for {
			size := uint32(128 + rng.Intn(256))
			if !r.fits(size, h.cfg.RegionSize) {
				break
			}
			obj, err := h.Allocate(r, size, 2)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := h.Link(holder.ID, obj.ID); err != nil {
					t.Fatal(err)
				}
			}
			if len(batch) > 0 && rng.Intn(2) == 0 {
				if err := h.Link(obj.ID, batch[rng.Intn(len(batch))].ID); err != nil {
					t.Fatal(err)
				}
			}
			batch = append(batch, obj)
		}
		// Remove the whole batch in allocation order (edges into it from
		// the holder and inside it are torn down by Remove) and free the
		// region, donating its page table to the next round.
		for _, obj := range batch {
			h.Remove(obj)
		}
		h.FreeRegion(r)

		if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
			t.Fatalf("round %d: remset invariant violated in regions %v", round, bad)
		}
		if bad := h.CheckPageInvariant(); len(bad) != 0 {
			t.Fatalf("round %d: page invariant violated in regions %v", round, bad)
		}
		if round > 0 && h.Stats().FreeObjects == 0 {
			t.Fatalf("round %d: freelist empty after churn", round)
		}
	}
	if holder.OutDegree() != 0 {
		t.Fatalf("holder still holds %d edges to removed objects", holder.OutDegree())
	}
}

// TestStaleStampDetector verifies the freelist's stale-pointer discipline:
// a removed object's struct is recycled by a later allocation, and the
// recycling stamp (plus the reassigned ID) makes a pointer held across the
// removal detectably stale.
func TestStaleStampDetector(t *testing.T) {
	h, err := New(Config{RegionSize: 16 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.NewRegion(Young)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := h.Allocate(r, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := obj
	oldID, oldStamp := obj.ID, obj.Stamp()

	h.Remove(obj)
	if h.Stats().FreeObjects != 1 {
		t.Fatalf("FreeObjects = %d after remove, want 1", h.Stats().FreeObjects)
	}

	// The freelist is LIFO: the next allocation must reuse the struct.
	reused, err := h.Allocate(r, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reused != stale {
		t.Fatal("allocation did not recycle the freed Object struct")
	}
	if h.Stats().FreeObjects != 0 {
		t.Fatalf("FreeObjects = %d after reuse, want 0", h.Stats().FreeObjects)
	}
	if stale.Stamp() == oldStamp {
		t.Fatal("recycling did not bump the stamp: stale pointers undetectable")
	}
	if stale.ID == oldID {
		t.Fatal("recycled object kept the retired identity hash")
	}
	if stale.OutDegree() != 0 || stale.InDegree() != 0 || stale.Age != 0 {
		t.Fatalf("recycled object carries stale state: %v", stale)
	}
}

// TestObjectSize pins the simulated object to Go's 128-byte size class:
// every resident object pays it, so the largest profiled heaps' live sets
// follow it. Objects were 280 bytes (the 288-byte class) while each edge
// store carried four inline slots; the stores now keep one inline slot
// and a pointer to a pooled overflow block.
func TestObjectSize(t *testing.T) {
	if got := unsafe.Sizeof(edgeSet{}); got != 24 {
		t.Errorf("edgeSet is %d bytes, want 24 (slot 0, inlineLen, block pointer)", got)
	}
	if got := unsafe.Sizeof(Object{}); got > 128 {
		t.Errorf("Object is %d bytes, past the 128-byte size class (it left the 288-byte class and must not grow back)", got)
	}
}

// TestHubOverflowBlockReused fills a hub past edgeIdxThreshold, removes it,
// and refills a new hub to the same fan-out. Each hub is a recycled struct
// that never held a spill, and each dead hub's struct goes to a leaf that
// stays resident, as in the apps: the refill must find the dead hub's
// overflow block on the heap's block freelist, spill capacity and position
// index included, and allocate nothing.
func TestHubOverflowBlockReused(t *testing.T) {
	h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.NewRegion(Young)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func() *Object {
		obj, err := h.Allocate(r, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	const fanout, runs = 8 * edgeIdxThreshold, 20
	children := make([]*Object, fanout)
	for i := range children {
		children[i] = alloc()
	}
	// Stock the object freelist with structs for every hub to come.
	spare := make([]*Object, runs+1)
	for i := range spare {
		spare[i] = alloc()
	}
	for _, obj := range spare {
		h.Remove(obj)
	}
	fill := func() {
		hub := alloc()
		for _, c := range children {
			if err := h.Link(hub.ID, c.ID); err != nil {
				t.Fatal(err)
			}
		}
		if hub.refs.blk.idx == nil || hub.OutDegree() != fanout {
			t.Fatalf("hub holds %d edges, index built %v", hub.OutDegree(), hub.refs.blk.idx != nil)
		}
		h.Remove(hub)
		alloc() // a leaf takes the dead hub's struct
	}
	fill()
	if len(h.blockFree) != 1 {
		t.Fatalf("%d blocks on the freelist after removing the hub, want 1", len(h.blockFree))
	}
	if allocs := testing.AllocsPerRun(runs-1, fill); allocs != 0 {
		t.Fatalf("refilling a hub allocated %v times per run, want 0", allocs)
	}
	for _, c := range children {
		if c.InDegree() != 0 {
			t.Fatalf("%v keeps %d in-edges from removed hubs", c, c.InDegree())
		}
	}
}
