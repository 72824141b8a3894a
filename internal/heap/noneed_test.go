package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// noNeedByResidents is the resident walk MarkNoNeedPages replaced, kept as
// its model. For every active region it walks the whole resident list,
// dead residents included, covers the pages of the marked ones, and
// returns the no-need bits the call must leave: the current ones plus
// every uncovered page.
func noNeedByResidents(h *Heap, live *LiveSet) map[RegionID]bitset {
	want := make(map[RegionID]bitset)
	for _, r := range h.active {
		rp := r.pages
		cover := newBitset(rp.n)
		for obj := r.head; obj != nil; obj = obj.next {
			if !live.Marked(obj) {
				continue
			}
			first, last := obj.pageSpan(h.cfg.PageSize)
			for i := first; i <= last && i < rp.n; i++ {
				cover.set(i)
			}
		}
		nn := slices.Clone(rp.noNeed)
		for i := uint32(0); i < rp.n; i++ {
			if !cover.get(i) {
				nn.set(i)
			}
		}
		want[r.id] = nn
	}
	return want
}

// randomCycle drives one collection-like step in the recorder's order on a
// seeded heap: mutate, trace, then evacuate some live residents to other
// regions (some of them fresh), remove the dead of some regions but not
// others, free the regions left empty, and allocate a little after the
// trace. It returns the trace's live set, which MarkNoNeedPages then sees
// with its objects moved.
func randomCycle(t *testing.T, h *Heap, rng *rand.Rand, regions *[]*Region, objs *[]*Object) *LiveSet {
	t.Helper()
	maxSize := 3 * h.cfg.PageSize
	alloc := func() {
		r := (*regions)[rng.Intn(len(*regions))]
		size := uint32(16 + rng.Intn(int(maxSize)))
		if r.Used()+size > h.cfg.RegionSize {
			return
		}
		*objs = append(*objs, mustAlloc(t, h, r, size))
	}
	for i := 0; i < 60; i++ {
		alloc()
	}
	alive := (*objs)[:0]
	for _, o := range *objs {
		if o.region != nil {
			alive = append(alive, o)
		}
	}
	*objs = alive
	if len(alive) == 0 {
		return h.Trace()
	}
	for i := 0; i < 40; i++ {
		a, b := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		if err := h.Link(a.ID, b.ID); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 && a.IsRoot() {
			h.UnpinRoot(a)
		} else if rng.Intn(3) == 0 && !a.IsRoot() {
			h.PinRoot(a)
		}
	}
	live := h.Trace()
	fresh := mustRegion(t, h, GenID(rng.Intn(2)))
	*regions = append(*regions, fresh)
	for _, r := range slices.Clone(*regions) {
		sweep := rng.Intn(3) != 0
		for obj := r.head; obj != nil; {
			next := obj.next
			switch {
			case !live.Marked(obj):
				if sweep {
					h.Remove(obj)
				}
			case rng.Intn(3) == 0:
				dst := (*regions)[rng.Intn(len(*regions))]
				if rng.Intn(2) == 0 {
					dst = fresh
				}
				if dst != r && dst.Used()+obj.Size <= h.cfg.RegionSize {
					if err := h.Evacuate(obj, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			obj = next
		}
	}
	kept := (*regions)[:0]
	for _, r := range *regions {
		if r.residents == 0 && r != fresh {
			h.FreeRegion(r)
			continue
		}
		kept = append(kept, r)
	}
	*regions = kept
	for i := 0; i < 5; i++ {
		alloc()
	}
	return live
}

// TestMarkNoNeedPagesMatchesResidentWalk holds the live-set walk to the
// resident walk it replaced, bit for bit (the bits past a region's last
// page included), on seeded heaps whose page counts are not all multiples
// of 64, after collections that moved live objects between the trace and
// the call, left some dead residents in place, and freed regions. On the
// same heaps it holds CountPages to its per-page model.
func TestMarkNoNeedPagesMatchesResidentWalk(t *testing.T) {
	for _, pages := range []uint32{4, 64, 70, 130} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("pages=%d/seed=%d", pages, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h, err := New(Config{RegionSize: pages * 512, PageSize: 512})
				if err != nil {
					t.Fatal(err)
				}
				var regions []*Region
				for i := 0; i < 5; i++ {
					regions = append(regions, mustRegion(t, h, GenID(i%2)))
				}
				var objs []*Object
				for cycle := 0; cycle < 8; cycle++ {
					live := randomCycle(t, h, rng, &regions, &objs)
					if err := h.VerifyLive(live); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					want := noNeedByResidents(h, live)
					h.MarkNoNeedPages(live)
					for _, r := range h.active {
						if got := r.pages.noNeed; !slices.Equal(got, want[r.id]) {
							t.Fatalf("cycle %d: region %d no-need %x, the resident walk gives %x", cycle, r.id, got, want[r.id])
						}
					}
					if got, want := h.CountPages(), pageCountModel(h); got != want {
						t.Fatalf("cycle %d: CountPages = %+v, per-page model %+v", cycle, got, want)
					}
					if rng.Intn(2) == 0 {
						h.ClearDirtyPages()
					}
				}
			})
		}
	}
}

// TestMarkNoNeedPagesAllocatesNothing pins the pass at zero host
// allocations on a warmed heap: the cover bits live in each region's page
// table.
func TestMarkNoNeedPagesAllocatesNothing(t *testing.T) {
	h := testHeap(t)
	var regions []*Region
	for i := 0; i < 4; i++ {
		regions = append(regions, mustRegion(t, h, Young))
	}
	for i := 0; i < 160; i++ {
		obj := mustAlloc(t, h, regions[i%4], uint32(64+i%7*300))
		if i%3 != 0 {
			h.PinRoot(obj)
		}
	}
	live := h.Trace()
	h.MarkNoNeedPages(live)
	if got := testing.AllocsPerRun(100, func() { h.MarkNoNeedPages(live) }); got != 0 {
		t.Fatalf("MarkNoNeedPages allocates %v times per call, want 0", got)
	}
}

// TestVerifyLiveFlagsRemovedLiveObject checks the invariant the live-set
// walk relies on: evacuating a live object keeps it resident, removing
// one does not.
func TestVerifyLiveFlagsRemovedLiveObject(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	root := mustAlloc(t, h, r, 64)
	child := mustAlloc(t, h, r, 64)
	h.PinRoot(root)
	if err := h.Link(root.ID, child.ID); err != nil {
		t.Fatal(err)
	}
	live := h.Trace()
	if err := h.Evacuate(child, mustRegion(t, h, GenID(1))); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyLive(live); err != nil {
		t.Fatalf("evacuated live object flagged: %v", err)
	}
	h.Remove(child)
	if err := h.VerifyLive(live); err == nil {
		t.Fatal("removed live object not flagged")
	}
}
