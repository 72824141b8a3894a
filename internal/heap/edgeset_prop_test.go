package heap

import (
	"math/rand"
	"testing"
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

// TestEdgeStorePropertyVsShadow drives a heap through a long random
// Link/Unlink/Evacuate/Remove history and checks the hybrid edge store
// against the nested-map shadow model after every operation batch. Parent
// picks are biased toward a few hub objects so their fanout crosses
// edgeInlineCap and edgeIdxThreshold, exercising inline, linear-spill and
// indexed-spill storage plus the transitions between them.
func TestEdgeStorePropertyVsShadow(t *testing.T) {
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	g := newShadowGraph()

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
		case op < 60: // link
			p, c := pick(), pick()
			if err := h.Link(p.ID, c.ID); err != nil {
				t.Fatal(err)
			}
			g.link(p.ID, c.ID)
		case op < 75: // unlink, sometimes of an absent edge
			p, c := pick(), pick()
			err := h.Unlink(p.ID, c.ID)
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
			delete(byID, obj.ID)
			h.Remove(obj)
			objs[idx] = objs[len(objs)-1]
			objs = objs[:len(objs)-1]
		}
		if i%64 == 0 {
			checkObject(t, objs[rng.Intn(len(objs))], g, byID)
		}
	}

	for _, obj := range objs {
		checkObject(t, obj, g, byID)
	}
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
