package heap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// collectPages returns every page's state: its bits from Pages and its
// Headers from a walk of every region's resident list, so clean regions
// list their headers too.
func collectPages(h *Heap) map[PageKey]PageState {
	out := make(map[PageKey]PageState)
	h.Pages(func(ps PageState) {
		ps.Headers = nil
		out[ps.Key] = ps
	})
	for _, r := range h.ActiveRegions() {
		for o := r.FirstResident(); o != nil; o = o.NextResident() {
			key := PageKey{Region: r.ID(), Index: o.headerPage(h.cfg.PageSize)}
			ps := out[key]
			ps.Headers = append(ps.Headers, o)
			out[key] = ps
		}
	}
	return out
}

func TestAllocationDirtiesPages(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	// 6000 bytes spans pages 0 and 1.
	mustAlloc(t, h, r, 6000)
	pages := collectPages(h)
	if !pages[PageKey{r.ID(), 0}].Dirty || !pages[PageKey{r.ID(), 1}].Dirty {
		t.Fatal("allocation did not dirty the touched pages")
	}
	if pages[PageKey{r.ID(), 2}].Dirty {
		t.Fatal("untouched page is dirty")
	}
	if c := h.CountPages(); c != (PageCounts{DirtyNeeded: 2, Dirty: 2, UsedNeeded: 2, Used: 2}) {
		t.Fatalf("page counts %+v, want 2 of each", c)
	}
}

func TestClearDirtyAndRedirtyOnMutation(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	h.ClearDirtyPages()
	if collectPages(h)[PageKey{r.ID(), 0}].Dirty {
		t.Fatal("ClearDirtyPages left dirty bits")
	}
	// A reference store dirties the parent's header page only.
	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	pages := collectPages(h)
	if !pages[PageKey{r.ID(), 0}].Dirty {
		t.Fatal("Link did not dirty the parent header page")
	}
}

func TestHeaderIDsOnPages(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 4096) // header on page 0
	b := mustAlloc(t, h, r, 100)  // header on page 1
	pages := collectPages(h)
	p0 := pages[PageKey{r.ID(), 0}]
	p1 := pages[PageKey{r.ID(), 1}]
	if len(p0.Headers) != 1 || p0.Headers[0] != a {
		t.Fatalf("page 0 headers = %v, want [a]", p0.Headers)
	}
	if len(p1.Headers) != 1 || p1.Headers[0] != b {
		t.Fatalf("page 1 headers = %v, want [b]", p1.Headers)
	}
	if p0.Headers[0].ID != a.ID || p1.Headers[0].ID != b.ID {
		t.Fatalf("header ids = %d, %d, want %d, %d", p0.Headers[0].ID, p1.Headers[0].ID, a.ID, b.ID)
	}
}

// CheckPageInvariant flags every way a resident list can break the shape
// the page walk relies on.
func TestCheckPageInvariantFlagsBrokenResidentLists(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r, other *Region, a, b, c *Object)
	}{
		{"out of order", func(r, _ *Region, _, b, _ *Object) {
			r.removeResident(b)
			r.pushResident(b)
		}},
		{"overlapping", func(_, _ *Region, a, b, _ *Object) { b.Offset = a.Offset + a.Size - 1 }},
		{"past the bump pointer", func(r, _ *Region, _, _, c *Object) { c.Size = r.used }},
		{"foreign resident", func(_, other *Region, _, b, _ *Object) { b.region = other }},
		{"miscounted", func(r, _ *Region, _, _, _ *Object) { r.residents++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := testHeap(t)
			other := mustRegion(t, h, Young)
			r := mustRegion(t, h, Young)
			a := mustAlloc(t, h, r, 100)
			b := mustAlloc(t, h, r, 5000)
			c := mustAlloc(t, h, r, 100)
			if bad := h.CheckPageInvariant(); len(bad) != 0 {
				t.Fatalf("intact heap flagged: %v", bad)
			}
			tc.corrupt(r, other, a, b, c)
			if bad := h.CheckPageInvariant(); !slices.Equal(bad, []RegionID{r.ID()}) {
				t.Fatalf("CheckPageInvariant = %v, want [%d]", bad, r.ID())
			}
		})
	}
}

func TestMarkNoNeedPages(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	dead := mustAlloc(t, h, r, 8192) // pages 0..2 (offset 64..8255)
	_ = dead
	h.PinRoot(a)
	live := h.Trace()
	h.MarkNoNeedPages(live)
	pages := collectPages(h)
	// Page 0 holds live object a: must stay needed.
	if pages[PageKey{r.ID(), 0}].NoNeed {
		t.Fatal("page with live object marked no-need")
	}
	// Page 1 and 2 hold only the dead object: no-need.
	if !pages[PageKey{r.ID(), 1}].NoNeed || !pages[PageKey{r.ID(), 2}].NoNeed {
		t.Fatal("dead-only pages not marked no-need")
	}
	// Completely empty page far in the region: no-need.
	if !pages[PageKey{r.ID(), 10}].NoNeed {
		t.Fatal("empty page not marked no-need")
	}
}

func TestWriteClearsNoNeed(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	live := h.Trace()
	h.MarkNoNeedPages(live)
	if !collectPages(h)[PageKey{r.ID(), 0}].NoNeed {
		t.Fatal("empty page should be no-need")
	}
	mustAlloc(t, h, r, 64)
	ps := collectPages(h)[PageKey{r.ID(), 0}]
	if ps.NoNeed {
		t.Fatal("write did not clear the no-need bit")
	}
	if !ps.Dirty {
		t.Fatal("write did not set the dirty bit")
	}
}

func TestFreedRegionsSkippedByPages(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	h.FreeRegion(r)
	if len(collectPages(h)) != 0 {
		t.Fatal("freed region's pages should not be iterated")
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	for _, i := range []uint32{0, 64, 129} {
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.get(1) || b.get(63) || b.get(128) {
		t.Fatal("unexpected bits set")
	}
	b.clear(64)
	if b.get(64) {
		t.Fatal("clear failed")
	}
	b.setAll()
	if !b.get(100) {
		t.Fatal("setAll failed")
	}
	b.clearAll()
	if b.get(0) || b.get(129) {
		t.Fatal("clearAll failed")
	}
}

// Property: a random sequence of graph operations never breaks the
// remembered-set invariant, and trace results never include removed objects.
func TestRandomOpsRemsetInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{RegionSize: 16 * 1024, PageSize: 4096})
		if err != nil {
			return false
		}
		var regions []*Region
		for i := 0; i < 4; i++ {
			r, err := h.NewRegion(GenID(i % 2))
			if err != nil {
				return false
			}
			regions = append(regions, r)
		}
		var objs []*Object
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(6); {
			case op == 0 || len(objs) < 2: // allocate
				r := regions[rng.Intn(len(regions))]
				obj, err := h.Allocate(r, uint32(32+rng.Intn(128)), SiteID(rng.Intn(5)+1))
				if err == nil {
					objs = append(objs, obj)
				}
			case op == 1: // link
				a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
				if a.Region() != nil && b.Region() != nil {
					_ = h.Link(a.ID, b.ID)
				}
			case op == 2: // unlink (may fail; fine)
				a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
				if a.Region() != nil && b.Region() != nil {
					_ = h.Unlink(a.ID, b.ID)
				}
			case op == 3: // evacuate
				o := objs[rng.Intn(len(objs))]
				r := regions[rng.Intn(len(regions))]
				if o.Region() != nil && o.Region() != r {
					_ = h.Evacuate(o, r)
				}
			case op == 4: // root toggle
				o := objs[rng.Intn(len(objs))]
				if o.Region() == nil {
					continue
				}
				if o.IsRoot() {
					h.UnpinRoot(o)
				} else {
					h.PinRoot(o)
				}
			case op == 5: // remove an unrooted object
				o := objs[rng.Intn(len(objs))]
				if o.Region() != nil && !o.IsRoot() {
					h.Remove(o)
				}
			}
		}
		if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
			t.Logf("seed %d: remset invariant broken in %v", seed, bad)
			return false
		}
		if bad := h.CheckPageInvariant(); len(bad) != 0 {
			t.Logf("seed %d: page invariant broken in %v", seed, bad)
			return false
		}
		// Every object the trace reached is a resident: the marked
		// residents of the active regions account for the whole live set.
		ls := h.Trace()
		marked := 0
		for _, r := range h.ActiveRegions() {
			for o := r.FirstResident(); o != nil; o = o.NextResident() {
				if ls.Marked(o) {
					marked++
				}
			}
		}
		if marked != ls.Objects {
			t.Logf("seed %d: trace reached %d objects, %d of them resident", seed, ls.Objects, marked)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
