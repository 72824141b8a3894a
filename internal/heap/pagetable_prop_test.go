package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// shadowTracker mirrors the page-table write rules independently of the
// page-table implementation: every heap mutation that writes simulated
// memory records the written pages here, and a snapshot boundary resets the
// set — exactly what the kernel's soft-dirty tracking does for CRIU.
type shadowTracker struct {
	dirty map[PageKey]bool
}

func newShadowTracker() *shadowTracker {
	return &shadowTracker{dirty: make(map[PageKey]bool)}
}

func (s *shadowTracker) write(region RegionID, first, last uint32) {
	for i := first; i <= last; i++ {
		s.dirty[PageKey{Region: region, Index: i}] = true
	}
}

func (s *shadowTracker) clear() { s.dirty = make(map[PageKey]bool) }

// TestDirtyNoNeedSurviveInterleavingsProperty drives random interleavings
// of mutator activity (allocate, link, unlink, evacuate, root churn) with
// GC cycles (trace, sweep, no-need marking) and snapshot boundaries (dirty
// clearing), checking after every cycle that
//
//   - a page is dirty if and only if the shadow tracker saw a write to it
//     since the last snapshot, and
//   - immediately after MarkNoNeedPages, a page carries the no-need bit if
//     and only if no live object's storage overlaps it.
//
// The equivalences are what the Dumper's correctness rests on: dirty bits
// select the pages a snapshot must include, no-need bits the pages it may
// elide.
func TestDirtyNoNeedSurviveInterleavingsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{RegionSize: 16 * 1024, PageSize: 4096})
		if err != nil {
			return false
		}
		shadow := newShadowTracker()
		var regions []*Region
		for i := 0; i < 4; i++ {
			r, err := h.NewRegion(GenID(i % 2))
			if err != nil {
				return false
			}
			regions = append(regions, r)
		}
		var objs []*Object
		alive := func() []*Object {
			out := objs[:0]
			for _, o := range objs {
				if o.Region() != nil {
					out = append(out, o)
				}
			}
			objs = out
			return objs
		}
		mutate := func() {
			switch op := rng.Intn(5); {
			case op == 0 || len(alive()) < 2: // allocate
				r := regions[rng.Intn(len(regions))]
				obj, err := h.Allocate(r, uint32(32+rng.Intn(6000)), SiteID(rng.Intn(5)+1))
				if err != nil {
					return
				}
				objs = append(objs, obj)
				first, last := obj.pageSpan(h.cfg.PageSize)
				shadow.write(obj.Region().ID(), first, last)
			case op == 1: // link
				a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
				if h.Link(a.ID, b.ID) == nil {
					hp := a.headerPage(h.cfg.PageSize)
					shadow.write(a.Region().ID(), hp, hp)
				}
			case op == 2: // unlink
				a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
				if h.Unlink(a.ID, b.ID) == nil {
					hp := a.headerPage(h.cfg.PageSize)
					shadow.write(a.Region().ID(), hp, hp)
				}
			case op == 3: // evacuate
				o := objs[rng.Intn(len(objs))]
				r := regions[rng.Intn(len(regions))]
				if o.Region() != r && h.Evacuate(o, r) == nil {
					first, last := o.pageSpan(h.cfg.PageSize)
					shadow.write(o.Region().ID(), first, last)
				}
			case op == 4: // root churn
				o := objs[rng.Intn(len(objs))]
				if o.IsRoot() {
					h.UnpinRoot(o)
				} else {
					h.PinRoot(o)
				}
			}
		}
		checkDirty := func() bool {
			ok := true
			h.Pages(func(ps PageState) {
				if ps.Dirty != shadow.dirty[ps.Key] {
					t.Logf("seed %d: page %v dirty=%v, shadow=%v", seed, ps.Key, ps.Dirty, shadow.dirty[ps.Key])
					ok = false
				}
			})
			return ok && checkPageWalk(t, h, shadow)
		}
		for cycle := 0; cycle < 12; cycle++ {
			for i := 0; i < 40; i++ {
				mutate()
			}
			if !checkDirty() {
				return false
			}
			// GC cycle: trace, sweep every dead object (collectors always
			// reclaim the whole dead set), then mark no-need pages —
			// removal writes nothing, so the dirty equivalence must
			// survive it.
			live := h.Trace()
			for _, o := range alive() {
				if !live.Marked(o) {
					h.Remove(o)
				}
			}
			alive()
			if bad := h.CheckPageInvariant(); len(bad) != 0 {
				t.Logf("seed %d: page invariant broken in %v", seed, bad)
				return false
			}
			if !checkPageWalk(t, h, shadow) {
				t.Logf("seed %d: page walk wrong after the sweep", seed)
				return false
			}
			if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
				t.Logf("seed %d: remset invariant broken in %v", seed, bad)
				return false
			}
			h.MarkNoNeedPages(live)
			if !checkDirty() {
				return false
			}
			// After a full sweep the residents are exactly the live
			// objects, so no-need must equal "no resident storage overlaps
			// the page".
			covered := make(map[PageKey]bool)
			for _, r := range regions {
				for o := r.FirstResident(); o != nil; o = o.NextResident() {
					first, last := o.pageSpan(h.cfg.PageSize)
					for i := first; i <= last; i++ {
						covered[PageKey{Region: r.ID(), Index: i}] = true
					}
				}
			}
			ok := true
			h.Pages(func(ps PageState) {
				if ps.NoNeed == covered[ps.Key] {
					t.Logf("seed %d: page %v noNeed=%v, covered=%v", seed, ps.Key, ps.NoNeed, covered[ps.Key])
					ok = false
				}
			})
			if !ok {
				return false
			}
			// Snapshot boundary: the dumper includes dirty pages and
			// clears the soft-dirty bits.
			if rng.Intn(2) == 0 {
				h.ClearDirtyPages()
				shadow.clear()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkPageWalk holds Pages' merge walk to a map model rebuilt from the
// residents: each page's Headers are the residents whose header offset
// lies on it, listed in ascending offset order. The walk must match the
// model in every region the shadow tracker saw written, and report no
// headers elsewhere. It also holds CountPages to a per-page count of the
// walk's bits against each region's bump pointer.
func checkPageWalk(t *testing.T, h *Heap, shadow *shadowTracker) bool {
	headers := make(map[PageKey]map[*Object]bool)
	for _, r := range h.ActiveRegions() {
		for o := r.FirstResident(); o != nil; o = o.NextResident() {
			hp := PageKey{Region: r.ID(), Index: o.headerPage(h.cfg.PageSize)}
			if headers[hp] == nil {
				headers[hp] = make(map[*Object]bool)
			}
			headers[hp][o] = true
		}
	}
	dirtyRegion := make(map[RegionID]bool)
	for key := range shadow.dirty {
		dirtyRegion[key.Region] = true
	}
	ok := true
	h.Pages(func(ps PageState) {
		model := headers[ps.Key]
		if !dirtyRegion[ps.Key.Region] {
			model = nil
		}
		exact := len(ps.Headers) == len(model)
		for i, o := range ps.Headers {
			if !model[o] || (i > 0 && ps.Headers[i-1].Offset >= o.Offset) {
				exact = false
			}
		}
		if !exact {
			t.Logf("page %v has %d headers, model %d", ps.Key, len(ps.Headers), len(model))
			ok = false
		}
	})
	if got, want := h.CountPages(), pageCountModel(h); got != want {
		t.Logf("CountPages = %+v, per-page model %+v", got, want)
		ok = false
	}
	return ok
}

// pageCountModel counts the pages Pages reports, one at a time, against
// each region's bump pointer: the model CountPages' popcounts must equal.
func pageCountModel(h *Heap) PageCounts {
	used := make(map[RegionID]uint32)
	for _, r := range h.ActiveRegions() {
		used[r.ID()] = r.Used()
	}
	var c PageCounts
	h.Pages(func(ps PageState) {
		below := ps.Key.Index*h.cfg.PageSize < used[ps.Key.Region]
		for _, k := range []struct {
			n    *int
			page bool
		}{
			{&c.DirtyNeeded, ps.Dirty && !ps.NoNeed},
			{&c.Dirty, ps.Dirty},
			{&c.UsedNeeded, below && !ps.NoNeed},
			{&c.Used, below},
		} {
			if k.page {
				*k.n++
			}
		}
	})
	return c
}

// TestNoNeedClearedOnlyByWrites checks the no-need bit's lifecycle
// directly: set by the collector's mark pass, it must persist across
// non-writing operations (removal, root churn, dirty clearing) and drop on
// the first write to the page.
func TestNoNeedClearedOnlyByWrites(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	obj := mustAlloc(t, h, r, 3000)
	h.PinRoot(obj)
	dead := mustAlloc(t, h, r, 3000) // pages 0..1, header on page 0

	live := h.Trace()
	if live.Marked(dead) {
		t.Fatal("unrooted object traced live")
	}
	h.Remove(dead)
	h.MarkNoNeedPages(h.Trace())

	pages := collectPages(h)
	if pages[PageKey{r.ID(), 1}].NoNeed == false {
		t.Fatal("page holding only removed storage should be no-need")
	}
	if pages[PageKey{r.ID(), 0}].NoNeed {
		t.Fatal("page with live storage must not be no-need")
	}

	// Non-writing operations keep the bit.
	h.ClearDirtyPages()
	if !collectPages(h)[PageKey{r.ID(), 1}].NoNeed {
		t.Fatal("clearing dirty bits must not clear no-need")
	}

	// A write into the page clears it.
	obj2, err := h.Allocate(r, 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, last := obj2.pageSpan(h.Config().PageSize)
	pages = collectPages(h)
	for i := first; i <= last; i++ {
		if pages[PageKey{r.ID(), i}].NoNeed {
			t.Fatalf("page %d written by allocation still no-need", i)
		}
		if !pages[PageKey{r.ID(), i}].Dirty {
			t.Fatalf("page %d written by allocation not dirty", i)
		}
	}
}
