package dumper

import (
	"fmt"
	"slices"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

// fullListing is an ImageSink that checks each image against the heap it
// was taken of. It folds the dumper's images into one store and the same
// images listing every page the heap reports no-need (the full listing)
// into another, and requires both views to hold the same ids after every
// image. It also keeps a model of the view's page keys, so it can check the
// reason a shorter list loses nothing: a page no-need at the previous image
// is not in the view.
type fullListing struct {
	h           *heap.Heap
	delta, full *snapshot.Store
	prev        map[heap.PageKey]bool // the heap's no-need pages at the previous image
	inView      map[heap.PageKey]bool
	last        *snapshot.Snapshot
	images      int
	listed      int // no-need keys the images listed
	fullListed  int // no-need keys the full listings listed
	deleted     int // listed keys that were in the view
}

func newFullListing(h *heap.Heap) *fullListing {
	return &fullListing{h: h, delta: snapshot.NewStore(), full: snapshot.NewStore(),
		prev: map[heap.PageKey]bool{}, inView: map[heap.PageKey]bool{}}
}

func (f *fullListing) Add(snap *snapshot.Snapshot) error {
	// The dump cleared only dirty bits: the no-need bits are the ones it
	// read.
	var all, want []heap.PageKey
	now := make(map[heap.PageKey]bool)
	f.h.Pages(func(ps heap.PageState) {
		if !ps.NoNeed {
			return
		}
		all = append(all, ps.Key)
		now[ps.Key] = true
		if !f.prev[ps.Key] {
			want = append(want, ps.Key)
		}
	})
	if !slices.Equal(snap.NoNeed, want) {
		return fmt.Errorf("image %d lists no-need pages %v, want those that became no-need since the previous image %v",
			snap.Seq, snap.NoNeed, want)
	}

	mapped := make(map[heap.RegionID]bool)
	for _, r := range snap.Regions {
		mapped[r] = true
	}
	for key := range f.inView {
		if !mapped[key.Region] {
			delete(f.inView, key)
		}
	}
	for _, key := range all {
		if f.prev[key] && f.inView[key] {
			return fmt.Errorf("image %d: page %v was no-need at the previous image but is in the view", snap.Seq, key)
		}
	}
	for _, key := range snap.NoNeed {
		if f.inView[key] {
			f.deleted++
			delete(f.inView, key)
		}
	}
	for _, pr := range snap.Pages {
		f.inView[pr.Key] = true
	}

	fullSnap := *snap
	fullSnap.NoNeed = all
	if err := f.delta.Apply(snap); err != nil {
		return err
	}
	if err := f.full.Apply(&fullSnap); err != nil {
		return err
	}
	if got, want := f.delta.LiveIDs(), f.full.LiveIDs(); !slices.Equal(got, want) {
		return fmt.Errorf("image %d: view holds %d ids, the full listing's %d", snap.Seq, len(got), len(want))
	}
	f.last = snap
	f.images++
	f.listed += len(snap.NoNeed)
	f.fullListed += len(all)
	f.prev = now
	return nil
}

// TestImagesListOnlyNewNoNeedPages runs the seeded NG2C scripts of
// TestPageCountsPriceTheAblationModes with a dump after every collection.
// Each image must list exactly the pages that became no-need since the
// previous image, and must rebuild the same view as the full listing after
// every image (fullListing).
func TestImagesListOnlyNewNoNeedPages(t *testing.T) {
	for _, geom := range scriptGeoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("pages=%d/seed=%d", geom.RegionSize/geom.PageSize, seed), func(t *testing.T) {
				col := newScriptCollector(t, geom)
				h := col.Heap()
				sink := newFullListing(h)
				d := New(h, col.Clock(), Config{Images: sink})
				col.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
					h.MarkNoNeedPages(live)
					if err := d.Snapshot(cycle); err != nil {
						t.Fatal(err)
					}
				})
				runScript(t, col, geom, seed)
				// The lists must be shorter than the full listing, and
				// must still delete captured pages from the view, or the
				// equal views above test nothing.
				if sink.images < 8 || sink.listed >= sink.fullListed || sink.deleted == 0 {
					t.Fatalf("degenerate script: %d images list %d no-need keys (full listing %d), %d of them deleted a page from the view",
						sink.images, sink.listed, sink.fullListed, sink.deleted)
				}
				t.Logf("%d images: %d no-need keys listed, %d in the full listing", sink.images, sink.listed, sink.fullListed)
			})
		}
	}
}

// TestNoNeedAcrossFreedAndReusedRegion: a captured page is freed with its
// region, whose page table the next region reuses before the next dump; a
// page no-need at one image is written by an object that dies before the
// next. The captured page must leave the view, the page no-need at both
// images must neither be listed again nor be captured, and the views must
// equal the full listing's throughout (fullListing).
func TestNoNeedAcrossFreedAndReusedRegion(t *testing.T) {
	h := newHeap(t)
	sink := newFullListing(h)
	d := New(h, simclock.New(), Config{Images: sink})

	r1, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Allocate(r1, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(a)
	dead, err := h.Allocate(r1, 12*1024, 1) // pages 0..3
	if err != nil {
		t.Fatal(err)
	}
	h.MarkNoNeedPages(h.Trace())
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	if got := sink.delta.LiveIDs(); !slices.Contains(got, a.ID) {
		t.Fatalf("image 1 view %v misses %v", got, a.ID)
	}

	// r1 empties and is freed; r2 takes its page table.
	h.UnpinRoot(a)
	h.Remove(a)
	h.Remove(dead)
	h.FreeRegion(r1)
	r2, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Allocate(r2, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(b)
	h.MarkNoNeedPages(h.Trace())
	if err := d.Snapshot(2); err != nil {
		t.Fatal(err)
	}
	if got := sink.delta.LiveIDs(); !slices.Equal(got, []heap.ObjectID{b.ID}) {
		t.Fatalf("image 2 view %v, want only %v", got, b.ID)
	}

	// Page 3 of r2 lay above the bump pointer, no-need at image 2. An
	// object that dies before image 3 writes it.
	page3 := heap.PageKey{Region: r2.ID(), Index: 3}
	if !sink.prev[page3] {
		t.Fatalf("page %v not no-need at image 2", page3)
	}
	x, err := h.Allocate(r2, 14*1024, 1) // pages 0..3
	if err != nil {
		t.Fatal(err)
	}
	h.MarkNoNeedPages(h.Trace())
	if err := d.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	// Page 0 holds b's header beside x's, so x is in the view too.
	if got := sink.delta.LiveIDs(); !slices.Equal(got, []heap.ObjectID{b.ID, x.ID}) {
		t.Fatalf("image 3 view %v, want %v and %v", got, b.ID, x.ID)
	}
	img := sink.last
	captured := slices.ContainsFunc(img.Pages, func(pr snapshot.PageRecord) bool { return pr.Key == page3 })
	if !sink.prev[page3] || slices.Contains(img.NoNeed, page3) || captured || sink.inView[page3] {
		t.Fatalf("page %v at image 3: no-need %v, listed %v, captured %v, in the view %v",
			page3, sink.prev[page3], slices.Contains(img.NoNeed, page3), captured, sink.inView[page3])
	}
	if sink.images != 3 {
		t.Fatalf("%d images checked, want 3", sink.images)
	}
}
