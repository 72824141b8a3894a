package dumper

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

func newHeap(t *testing.T) *heap.Heap {
	t.Helper()
	h, err := heap.New(heap.Config{RegionSize: 64 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// imageLog is an ImageSink keeping every image it is handed.
type imageLog []*snapshot.Snapshot

func (l *imageLog) Add(s *snapshot.Snapshot) error {
	*l = append(*l, s)
	return nil
}

func TestIncrementalSnapshotShrinksWhenClean(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	var objs []*heap.Object
	for i := 0; i < 32; i++ {
		obj, err := h.Allocate(r, 2048, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	var snaps imageLog
	d := New(h, clk, Config{Images: &snaps})
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	// Nothing written since the last dump: the next snapshot must be
	// (nearly) empty.
	if err := d.Snapshot(2); err != nil {
		t.Fatal(err)
	}
	if len(snaps[0].Pages) == 0 {
		t.Fatal("first snapshot captured nothing")
	}
	if len(snaps[1].Pages) != 0 {
		t.Fatalf("second snapshot captured %d clean pages", len(snaps[1].Pages))
	}
	if snaps[1].SizeBytes >= snaps[0].SizeBytes {
		t.Fatal("incremental snapshot not smaller")
	}
	// A single mutation re-dirties one page.
	if err := h.Link(objs[0].ID, objs[1].ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	if got := len(snaps[2].Pages); got != 1 {
		t.Fatalf("third snapshot captured %d pages, want 1", got)
	}
}

func TestNoNeedPagesExcluded(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	liveObj, err := h.Allocate(r, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(liveObj)
	// A dead object filling pages 1..3.
	if _, err := h.Allocate(r, 12*1024, 1); err != nil {
		t.Fatal(err)
	}
	h.MarkNoNeedPages(h.Trace())

	var images imageLog
	d := New(h, clk, Config{Images: &images})
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	snap := images[0]
	if len(snap.NoNeed) == 0 {
		t.Fatal("no-need pages not reported")
	}
	for _, pr := range snap.Pages {
		for _, key := range snap.NoNeed {
			if pr.Key == key {
				t.Fatal("no-need page included in snapshot")
			}
		}
	}

	// The dirty dead-only pages are what a dump without no-need elision
	// would have copied as well.
	c := d.PageCounts()[0]
	if c.DirtyNeeded != len(snap.Pages) || c.Dirty != len(snap.Pages)+3 {
		t.Fatalf("page counts %+v for a snapshot of %d pages and %d no-need pages", c, len(snap.Pages), len(snap.NoNeed))
	}
}

// TestIncrementalOffCountsEveryNeededPage: a second dump of an unchanged
// heap copies nothing, while the count of a dump without incrementality
// stays every needed page below the bump pointer.
func TestIncrementalOffCountsEveryNeededPage(t *testing.T) {
	h := newHeap(t)
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := h.Allocate(r, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(obj)
	if _, err := h.Allocate(r, 9000, 1); err != nil {
		t.Fatal(err)
	}
	h.MarkNoNeedPages(h.Trace())
	d := New(h, simclock.New(), Config{})
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(2); err != nil {
		t.Fatal(err)
	}
	// 11048 bytes span pages 0..2; pages 1 and 2 hold only the dead
	// object.
	first := heap.PageCounts{DirtyNeeded: 1, Dirty: 3, UsedNeeded: 1, Used: 3}
	second := heap.PageCounts{UsedNeeded: 1, Used: 3}
	if got := d.PageCounts(); len(got) != 2 || got[0] != first || got[1] != second {
		t.Fatalf("page counts %+v, want %+v then %+v", got, first, second)
	}
}

// TestChargeClock checks that every CRIU dump advances the
// simulated clock by its duration: the application is frozen while it is
// dumped, so the next dump is taken that much later.
func TestChargeClock(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := h.Allocate(r, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(obj)
	d := New(h, clk, Config{})
	for cycle := uint64(1); cycle <= 2; cycle++ {
		if err := d.Snapshot(cycle); err != nil {
			t.Fatal(err)
		}
	}
	first, second := d.Snapshots()[0], d.Snapshots()[1]
	if first.Duration == 0 || second.TakenAt != first.TakenAt+first.Duration {
		t.Fatalf("second dump taken at %v, want %v after a %v dump at %v",
			second.TakenAt, first.TakenAt+first.Duration, first.Duration, first.TakenAt)
	}
	if clk.Now() != second.TakenAt+second.Duration {
		t.Fatalf("clock reads %v after both dumps, want %v", clk.Now(), second.TakenAt+second.Duration)
	}
}

// jmapCost prices a jmap dump of the given live objects under c: the size
// and time Figures 3 and 4 compare.
func jmapCost(c CostModel, objs ...*heap.Object) (size uint64, dur time.Duration) {
	var bytes uint64
	for _, obj := range objs {
		bytes += uint64(obj.Size)
	}
	n := uint64(len(objs))
	size = bytes + n*c.JmapObjectHeaderBytes
	dur = c.JmapBase + time.Duration(bytes)*c.JmapPerLiveByte + time.Duration(n)*c.JmapPerObject
	return size, dur
}

func TestJmapDumpsOnlyLiveObjects(t *testing.T) {
	h := newHeap(t)
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	liveObj, err := h.Allocate(r, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A dead object, larger than the live one: its bytes must not count.
	if _, err := h.Allocate(r, 4000, 1); err != nil {
		t.Fatal(err)
	}
	h.PinRoot(liveObj)
	j := NewJmap(h, simclock.New(), CostModel{})
	if err := j.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshots()[0]
	size, dur := jmapCost(DefaultCostModel(), liveObj)
	if snap.SizeBytes != size || snap.Duration != dur {
		t.Fatalf("jmap dump = %d B in %v, want the live object's %d B in %v", snap.SizeBytes, snap.Duration, size, dur)
	}
	if len(snap.Pages) != 0 || len(snap.Regions) != 0 {
		t.Fatalf("jmap dump carries %d pages and %d regions; it is a size-and-time model", len(snap.Pages), len(snap.Regions))
	}
}

func TestJmapCostsExceedCRIU(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		obj, err := h.Allocate(r, 2048, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
	}
	h.MarkNoNeedPages(h.Trace())
	criu := New(h, clk, Config{})
	jmap := NewJmap(h, clk, CostModel{})
	tee := NewTee(criu, jmap)
	if err := tee.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	cs, js := criu.Snapshots()[0], jmap.Snapshots()[0]
	if cs.Duration >= js.Duration {
		t.Fatalf("CRIU dump (%v) not faster than jmap (%v)", cs.Duration, js.Duration)
	}
}

type failSink struct{}

func (failSink) Snapshot(uint64) error { return errInjected }

var errInjected = errors.New("dumper_test: injected failure")

func TestTeePropagatesErrors(t *testing.T) {
	tee := NewTee(failSink{})
	if err := tee.Snapshot(1); err == nil {
		t.Fatal("tee swallowed sink error")
	}
}

// TestCRIUAndStoreRoundTrip drives allocation, GC-style region churn and
// mutation through incremental snapshots, checking that the reconstructed
// view matches ground truth at the end.
func TestCRIUAndStoreRoundTrip(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	var images imageLog
	d := New(h, clk, Config{Images: &images})
	store := snapshot.NewStore()

	r1, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Allocate(r1, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(a)
	h.MarkNoNeedPages(h.Trace())
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}

	// Evacuate a to a new region and free the old one (young GC).
	r2, err := h.NewRegion(heap.GenID(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Evacuate(a, r2); err != nil {
		t.Fatal(err)
	}
	h.FreeRegion(r1)
	b, err := h.Allocate(r2, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(b)
	h.MarkNoNeedPages(h.Trace())
	if err := d.Snapshot(2); err != nil {
		t.Fatal(err)
	}

	for _, snap := range images {
		if err := store.Apply(snap); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Contains(store.LiveIDs(), a.ID) || !slices.Contains(store.LiveIDs(), b.ID) {
		t.Fatalf("reconstructed view missing live objects: %v", store.LiveIDs())
	}
	if got := len(store.LiveIDs()); got != 2 {
		t.Fatalf("reconstructed view has %d ids, want 2", got)
	}
}

// TestIncrementalSkipsCleanRegionsLosslessly takes CRIU snapshots of a heap
// where some regions are clean and some hold a dirty page: the dumper reads
// headers only in the dirty regions, and every page record it keeps must
// equal what a full page walk reports for that page. The second image must
// list the pages that became no-need since the first: clean regions'
// no-need pages were listed by the first image, not again.
func TestIncrementalSkipsCleanRegionsLosslessly(t *testing.T) {
	h := newHeap(t)
	var regions []*heap.Region
	var objs []*heap.Object
	for i := 0; i < 4; i++ {
		r, err := h.NewRegion(heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
		for j := 0; j < 12; j++ {
			obj, err := h.Allocate(r, uint32(700+j*300), 1)
			if err != nil {
				t.Fatal(err)
			}
			if j%3 != 0 {
				h.PinRoot(obj)
			}
			objs = append(objs, obj)
		}
	}
	h.MarkNoNeedPages(h.Trace())
	before := make(map[heap.PageKey]bool)
	h.Pages(func(ps heap.PageState) {
		if ps.NoNeed {
			before[ps.Key] = true
		}
	})
	var images imageLog
	d := New(h, simclock.New(), Config{Images: &images})
	if err := d.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	// Dirty regions 1 and 3 only: an allocation in one, a reference store
	// in the other. Regions 0 and 2 stay clean but keep no-need pages.
	if _, err := h.Allocate(regions[1], 900, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(objs[3*12+4].ID, objs[5].ID); err != nil {
		t.Fatal(err)
	}
	// The last object of region 3 dies: the page only it covers becomes
	// no-need.
	h.UnpinRoot(objs[3*12+11])
	h.MarkNoNeedPages(h.Trace())
	// The model of every page's header ids is the resident lists, clean
	// regions included.
	full := make(map[heap.PageKey][]heap.ObjectID)
	for _, r := range regions {
		for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
			key := heap.PageKey{Region: r.ID(), Index: obj.Offset / h.Config().PageSize}
			full[key] = append(full[key], obj.ID)
		}
	}
	var dirty, noNeed, newNoNeed []heap.PageKey
	h.Pages(func(ps heap.PageState) {
		if ps.NoNeed {
			noNeed = append(noNeed, ps.Key)
			if !before[ps.Key] {
				newNoNeed = append(newNoNeed, ps.Key)
			}
		} else if ps.Dirty {
			dirty = append(dirty, ps.Key)
		}
	})
	if err := d.Snapshot(2); err != nil {
		t.Fatal(err)
	}
	snap := images[1]
	var kept []heap.PageKey
	for _, pr := range snap.Pages {
		kept = append(kept, pr.Key)
		if !slices.Equal(pr.HeaderIDs, full[pr.Key]) {
			t.Errorf("page %v: snapshot lists %v, full walk %v", pr.Key, pr.HeaderIDs, full[pr.Key])
		}
	}
	if !slices.Equal(kept, dirty) {
		t.Errorf("snapshot kept pages %v, want the dirty needed pages %v", kept, dirty)
	}
	if !slices.Equal(snap.NoNeed, newNoNeed) {
		t.Errorf("snapshot no-need pages %v, want the pages that became no-need since the first %v", snap.NoNeed, newNoNeed)
	}
	for _, key := range kept {
		if key.Region != regions[1].ID() && key.Region != regions[3].ID() {
			t.Errorf("clean region's page %v was copied", key)
		}
	}
	var cleanNoNeed bool
	for _, key := range noNeed {
		cleanNoNeed = cleanNoNeed || key.Region == regions[0].ID()
	}
	if len(kept) == 0 || !cleanNoNeed || len(newNoNeed) == 0 {
		t.Fatalf("degenerate heap: %d kept pages, clean region no-need %v, %d new no-need pages", len(kept), cleanNoNeed, len(newNoNeed))
	}

	// Every dirty bit is clear now. The full-heap prices must not care:
	// the count without incrementality is every needed page below the
	// bump pointer, as before the dump, and jmap charges for every live
	// object.
	if err := d.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	counts := d.PageCounts()
	if counts[2].DirtyNeeded != 0 || counts[2].UsedNeeded != counts[1].UsedNeeded || counts[2].Used != counts[1].Used {
		t.Errorf("page counts before and after clearing the dirty bits: %+v, %+v", counts[1], counts[2])
	}
	j := NewJmap(h, simclock.New(), CostModel{})
	if err := j.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	var live []*heap.Object
	ls := h.Trace()
	for _, obj := range objs {
		if ls.Marked(obj) {
			live = append(live, obj)
		}
	}
	size, dur := jmapCost(DefaultCostModel(), live...)
	if js := j.Snapshots()[0]; js.SizeBytes != size || js.Duration != dur {
		t.Errorf("jmap dump of a clean heap = %d B in %v, want its %d live objects' %d B in %v",
			js.SizeBytes, js.Duration, len(live), size, dur)
	}
}

// TestDumperKeepsOnlyMetadata: with an image sink and a persist
// directory, the dumper hands every image on and keeps none of its pages.
// Each Snapshots entry is the image's metadata with nil Pages, NoNeed and
// Regions, and each image the sink received re-encodes to the bytes of its
// persisted snap-NNNNNN.img.
func TestDumperKeepsOnlyMetadata(t *testing.T) {
	h := newHeap(t)
	clk := simclock.New()
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var images imageLog
	d := New(h, clk, Config{PersistDir: dir, Images: &images})
	for cycle := uint64(1); cycle <= 4; cycle++ {
		// One live object and a dead one spanning whole pages.
		obj, err := h.Allocate(r, 1500, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		if _, err := h.Allocate(r, 9000, 1); err != nil {
			t.Fatal(err)
		}
		h.MarkNoNeedPages(h.Trace())
		if err := d.Snapshot(cycle); err != nil {
			t.Fatal(err)
		}
	}
	metas := d.Snapshots()
	if len(metas) != 4 || len(images) != 4 {
		t.Fatalf("%d snapshots and %d sunk images, want 4 each", len(metas), len(images))
	}
	var noNeed bool
	for i, m := range metas {
		img := images[i]
		if m.Pages != nil || m.NoNeed != nil || m.Regions != nil {
			t.Fatalf("snapshot %d keeps %d pages, %d no-need pages and %d regions", m.Seq, len(m.Pages), len(m.NoNeed), len(m.Regions))
		}
		if m.Seq != img.Seq || m.Cycle != img.Cycle || m.TakenAt != img.TakenAt || m.SizeBytes != img.SizeBytes || m.Duration != img.Duration {
			t.Fatalf("snapshot %d metadata %+v, sunk image's seq %d cycle %d at %v, %d B in %v",
				i+1, *m, img.Seq, img.Cycle, img.TakenAt, img.SizeBytes, img.Duration)
		}
		if len(img.Pages) == 0 || len(img.Regions) == 0 {
			t.Fatalf("sunk image %d holds %d pages over %d regions", img.Seq, len(img.Pages), len(img.Regions))
		}
		noNeed = noNeed || len(img.NoNeed) > 0
		var buf bytes.Buffer
		if err := img.Write(&buf); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, snapshot.FileName(img.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), onDisk) {
			t.Fatalf("image %d re-encodes to %d bytes that differ from its %d persisted bytes", img.Seq, buf.Len(), len(onDisk))
		}
	}
	if !noNeed {
		t.Fatal("degenerate run: no image lists a no-need page")
	}
}

type failImages struct{}

func (failImages) Add(*snapshot.Snapshot) error { return errInjected }

// TestImageSinkErrorFailsSnapshot: a sink refusing an image fails the
// snapshot with the sink's error.
func TestImageSinkErrorFailsSnapshot(t *testing.T) {
	d := New(newHeap(t), simclock.New(), Config{Images: failImages{}})
	if err := d.Snapshot(1); !errors.Is(err, errInjected) {
		t.Fatalf("Snapshot err = %v, want the sink's", err)
	}
}
