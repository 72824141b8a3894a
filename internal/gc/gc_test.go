package gc

import (
	"slices"
	"testing"
	"time"

	"polm2/internal/heap"
)

func TestPauseKindString(t *testing.T) {
	tests := []struct {
		kind PauseKind
		want string
	}{
		{PauseYoung, "young"},
		{PauseMixed, "mixed"},
		{PauseFull, "full"},
		{PauseConcurrent, "concurrent"},
		{PauseKind(0), "invalid"},
	}
	for _, tc := range tests {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("PauseKind(%d).String() = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

func TestEvacuationCost(t *testing.T) {
	m := CostModel{
		Base:            time.Millisecond,
		PerRegion:       10 * time.Microsecond,
		PerRemsetEntry:  100 * time.Nanosecond,
		PerCopiedByte:   1 * time.Nanosecond,
		PerCopiedObject: 200 * time.Nanosecond,
	}
	got := m.EvacuationCost(2, 10, 1000, 5)
	want := time.Millisecond + 20*time.Microsecond + time.Microsecond + time.Microsecond + time.Microsecond
	if got != want {
		t.Fatalf("EvacuationCost = %v, want %v", got, want)
	}
}

func TestDefaultCostModelNonZero(t *testing.T) {
	m := DefaultCostModel()
	if m.Base <= 0 || m.PerCopiedByte <= 0 || m.PerRemsetEntry <= 0 {
		t.Fatalf("default cost model has zero components: %+v", m)
	}
}

func newHeap(t *testing.T) *heap.Heap {
	t.Helper()
	h, err := heap.New(heap.Config{RegionSize: 16 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCursorSpillsAcrossRegions(t *testing.T) {
	h := newHeap(t)
	var objs []*heap.Object
	for i := 0; i < 3; i++ {
		src, err := h.NewRegion(heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := h.Allocate(src, 6000, 1)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	cur := NewCursor(h, heap.GenID(2))
	for _, obj := range objs {
		if err := cur.Place(obj); err != nil {
			t.Fatal(err)
		}
	}
	// 3 x 6000 bytes do not fit one 16 KiB region: the cursor must have
	// committed a second one.
	if len(cur.Regions()) != 2 {
		t.Fatalf("cursor regions = %d, want 2", len(cur.Regions()))
	}
	if cur.Bytes() != 18000 || cur.Objects() != 3 {
		t.Fatalf("cursor stats = %d bytes / %d objects", cur.Bytes(), cur.Objects())
	}
	if cur.Gen() != 2 {
		t.Fatalf("cursor gen = %d, want 2", cur.Gen())
	}
	for _, obj := range objs {
		if obj.Gen() != 2 {
			t.Fatalf("object not regenerated: %v", obj)
		}
	}
}

func TestSweepAndEvacuateAndFree(t *testing.T) {
	h := newHeap(t)
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	liveObj, err := h.Allocate(r, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Allocate(r, 200, 1); err != nil { // dead
		t.Fatal(err)
	}
	h.PinRoot(liveObj)
	live := h.Trace()

	cur := NewCursor(h, heap.GenID(1))
	deadObjects, deadBytes, err := EvacuateAndFree(h, r, live, cur.Place)
	if err != nil {
		t.Fatal(err)
	}
	if deadObjects != 1 || deadBytes != 200 {
		t.Fatalf("dead = %d objects / %d bytes, want 1/200", deadObjects, deadBytes)
	}
	if !r.Freed() {
		t.Fatal("source region not freed")
	}
	if liveObj.Region() == nil {
		t.Fatal("live object lost")
	}
	if liveObj.Gen() != 1 {
		t.Fatal("live object not evacuated")
	}
}

// TestLiveResidentsDeterministicOrder pins the evacuation order: live
// residents ascend by the identity hash of their ids (heap.IDOf), neither
// by id (allocation order) nor by any other key. Placement follows this
// order, so a change here moves every pause and output. The order is read
// off the destination region's resident list, which lists the evacuated
// objects in placement order.
func TestLiveResidentsDeterministicOrder(t *testing.T) {
	h := newHeap(t)
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	// Serials 1..20; every fifth object is unrooted and dies.
	for i := 1; i <= 20; i++ {
		obj, err := h.Allocate(r, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if obj.ID != heap.ObjectID(i) {
			t.Fatalf("allocation %d has id %d", i, obj.ID)
		}
		if i%5 != 0 {
			h.PinRoot(obj)
		}
	}
	live := h.Trace()
	dst, err := h.NewRegion(heap.GenID(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EvacuateAndFree(h, r, live, func(obj *heap.Object) error { return h.Evacuate(obj, dst) }); err != nil {
		t.Fatal(err)
	}
	want := []heap.ObjectID{18, 3, 11, 16, 7, 14, 4, 17, 1, 12, 2, 8, 9, 19, 6, 13}
	var got []heap.ObjectID
	for obj := dst.FirstResident(); obj != nil; obj = obj.NextResident() {
		got = append(got, obj.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("evacuation order %v, want %v", got, want)
	}
}

func TestSortRegionsByGarbage(t *testing.T) {
	h := newHeap(t)
	mostlyDead, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	mostlyLive, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	// mostlyDead: 8000 dead bytes; mostlyLive: 8000 live bytes.
	if _, err := h.Allocate(mostlyDead, 8000, 1); err != nil {
		t.Fatal(err)
	}
	obj, err := h.Allocate(mostlyLive, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(obj)
	live := h.Trace()
	regions := []*heap.Region{mostlyLive, mostlyDead}
	SortRegionsByGarbage(regions, live)
	if regions[0] != mostlyDead {
		t.Fatal("garbage-first ordering wrong")
	}
}
