package heap

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func testHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096, MaxBytes: 16 * 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustRegion(t *testing.T, h *Heap, gen GenID) *Region {
	t.Helper()
	r, err := h.NewRegion(gen)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustAlloc(t *testing.T, h *Heap, r *Region, size uint32) *Object {
	t.Helper()
	obj, err := h.Allocate(r, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"region not multiple of page", Config{RegionSize: 5000, PageSize: 4096}, false},
		{"max smaller than region", Config{RegionSize: 1 << 20, PageSize: 4096, MaxBytes: 1000}, false},
		{"explicit valid", Config{RegionSize: 8192, PageSize: 4096, MaxBytes: 1 << 20}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New(%+v) error = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func TestAllocateAssignsUniqueStableIDs(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	seen := make(map[ObjectID]bool)
	for i := 0; i < 100; i++ {
		obj := mustAlloc(t, h, r, 128)
		if seen[obj.ID] {
			t.Fatalf("duplicate object id %#x", uint64(obj.ID))
		}
		seen[obj.ID] = true
	}
	st := h.Stats()
	if st.TotalAllocatedObjects != 100 || st.TotalAllocatedBytes != 100*128 {
		t.Fatalf("allocation totals wrong: %+v", st)
	}
}

// TestIDsAreSerialsAndIDOfIsPinned pins the identity hash, the collectors'
// evacuation order key (every pause and profile depends on its values),
// and checks that an object's id is its allocation serial.
func TestIDsAreSerialsAndIDOfIsPinned(t *testing.T) {
	for serial, want := range map[uint64]ObjectID{
		0:       0xe220a8397b1dcdaf, // SplitMix64's first output from seed 0
		1:       0x910a2dec89025cc1,
		2:       0x975835de1c9756ce,
		1 << 40: 0x1fdd7128f310c389,
	} {
		if got := IDOf(serial); got != want {
			t.Errorf("IDOf(%d) = %#x, want %#x", serial, uint64(got), uint64(want))
		}
	}

	// The heap numbers its allocations 1, 2, 3, ...: an object's id is its
	// allocation order.
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	for i := ObjectID(1); i <= 10; i++ {
		if got := mustAlloc(t, h, r, 64).ID; got != i {
			t.Fatalf("allocation %d has id %d", i, got)
		}
	}
}

func TestAllocateBumpPointerAndFit(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 4000)
	b := mustAlloc(t, h, r, 4000)
	if a.Offset != 0 || b.Offset != 4000 {
		t.Fatalf("bump offsets wrong: a=%d b=%d", a.Offset, b.Offset)
	}
	if _, err := h.Allocate(r, 64*1024, 1); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	if _, err := h.Allocate(r, 0, 1); err == nil {
		t.Fatal("zero-size allocation should fail")
	}
}

func TestOutOfMemory(t *testing.T) {
	h, err := New(Config{RegionSize: 8192, PageSize: 4096, MaxBytes: 2 * 8192})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("third region error = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeRegionReleasesCommitment(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	before := h.Stats().CommittedBytes
	h.FreeRegion(r)
	after := h.Stats()
	if after.CommittedBytes != before-64*1024 {
		t.Fatalf("committed after free = %d, want %d", after.CommittedBytes, before-64*1024)
	}
	if after.MaxCommittedBytes != before {
		t.Fatalf("max committed should keep high-water mark %d, got %d", before, after.MaxCommittedBytes)
	}
	if _, err := h.Allocate(r, 16, 1); err == nil {
		t.Fatal("allocation in freed region should fail")
	}
}

func TestFreeRegionPanicsOnResidents(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	mustAlloc(t, h, r, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeRegion with residents did not panic")
		}
	}()
	h.FreeRegion(r)
}

// sortedKeys returns the model's region ids ascending.
func sortedKeys(model map[RegionID]*Region) []RegionID {
	ids := make([]RegionID, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// The heap's one region list matches a model set of committed regions
// through a random sequence of commits and frees: ascending by id, the
// same *Region values, and the same occupancy totals. Freeing a freed
// region panics.
func TestRegionListMatchesCommits(t *testing.T) {
	h := testHeap(t)
	const regionSize, maxRegions = 64 * 1024, 16
	rng := rand.New(rand.NewSource(3))
	model := make(map[RegionID]*Region)
	var freed []*Region
	for step := 0; step < 2000; step++ {
		if len(model) == 0 || rng.Intn(2) == 0 {
			r, err := h.NewRegion(GenID(rng.Intn(3)))
			if len(model) == maxRegions {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("step %d: commit past the cap: err = %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: %v", step, err)
			} else {
				model[r.ID()] = r
			}
		} else {
			ids := sortedKeys(model)
			r := model[ids[rng.Intn(len(ids))]]
			h.FreeRegion(r)
			delete(model, r.ID())
			freed = append(freed, r)
		}

		want := sortedKeys(model)
		if got := h.ActiveRegionIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: ActiveRegionIDs = %v, want %v", step, got, want)
		}
		active := h.ActiveRegions()
		if len(active) != len(want) {
			t.Fatalf("step %d: %d active regions, want %d", step, len(active), len(want))
		}
		for i, r := range active {
			if r != model[want[i]] {
				t.Fatalf("step %d: ActiveRegions()[%d] = %v, want %v", step, i, r, model[want[i]])
			}
		}
		st := h.Stats()
		if st.LiveRegions != len(model) || st.CommittedBytes != uint64(len(model))*regionSize {
			t.Fatalf("step %d: stats %+v, model holds %d regions", step, st, len(model))
		}
	}
	if len(freed) == 0 {
		t.Fatal("the sequence freed no region")
	}
	r := freed[rng.Intn(len(freed))]
	mustPanic(t, "double free", func() { h.FreeRegion(r) })
}

func TestRootsAndTrace(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	c := mustAlloc(t, h, r, 64)
	orphan := mustAlloc(t, h, r, 64)

	h.PinRoot(a)
	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}

	ls := h.Trace()
	if ls.Objects != 3 {
		t.Fatalf("live objects = %d, want 3", ls.Objects)
	}
	if ls.Marked(orphan) {
		t.Fatal("orphan should be unreachable")
	}
	if ls.Bytes != 3*64 {
		t.Fatalf("live bytes = %d, want 192", ls.Bytes)
	}
	if got := ls.Region(r); got.Objects != 3 || got.Bytes != 192 {
		t.Fatalf("region liveness = %+v", got)
	}

	// Unlinking b->c kills c.
	if err := h.Unlink(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	if ls := h.Trace(); ls.Marked(c) {
		t.Fatal("c should be dead after unlink")
	}

	// Removing the root kills everything.
	h.UnpinRoot(a)
	if ls := h.Trace(); ls.Objects != 0 {
		t.Fatalf("live objects after root removal = %d, want 0", ls.Objects)
	}
}

func TestRootPinCounting(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	h.PinRoot(a)
	h.PinRoot(a)
	h.UnpinRoot(a)
	if !h.Trace().Marked(a) {
		t.Fatal("doubly pinned object should survive one unpin")
	}
	h.UnpinRoot(a)
	if h.Trace().Marked(a) {
		t.Fatal("object should die after final unpin")
	}
	mustPanic(t, "unpinning unpinned", func() { h.UnpinRoot(a) })
}

// mustPanic fails the test unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// The root list holds each pinned object once, at the index the object
// records, whatever order pins and unpins arrive in; the tracer starts
// from exactly the pinned objects.
func TestRootListMatchesPins(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	objs := make([]*Object, 16)
	for i := range objs {
		objs[i] = mustAlloc(t, h, r, 64)
	}
	pins := make(map[*Object]int)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		o := objs[rng.Intn(len(objs))]
		if pins[o] > 0 && rng.Intn(2) == 0 {
			h.UnpinRoot(o)
			pins[o]--
		} else {
			h.PinRoot(o)
			pins[o]++
		}
		rooted := 0
		for _, o := range objs {
			if pins[o] > 0 {
				rooted++
			}
		}
		if h.RootCount() != rooted {
			t.Fatalf("step %d: RootCount = %d, want %d", step, h.RootCount(), rooted)
		}
		for i, root := range h.roots {
			if int(root.rootIdx) != i || pins[root] == 0 {
				t.Fatalf("step %d: root list slot %d holds %v (index %d, %d pins)", step, i, root, root.rootIdx, pins[root])
			}
		}
		if step%100 == 0 {
			live := h.Trace()
			for _, o := range objs {
				if live.Marked(o) != (pins[o] > 0) {
					t.Fatalf("step %d: %v traced %v with %d pins", step, o, live.Marked(o), pins[o])
				}
			}
		}
	}
}

// A removed object is recognised by its own state, not by an id lookup:
// removing it again or pinning it panics.
func TestRemovedObjectRefusesRemoveAndPin(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	h.Remove(a)
	mustPanic(t, "double remove", func() { h.Remove(a) })
	mustPanic(t, "pinning removed", func() { h.PinRoot(a) })
	if h.RootCount() != 0 {
		t.Fatalf("RootCount = %d after refused pin, want 0", h.RootCount())
	}
}

func TestLinkUnknownEndpoints(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	if err := h.Link(a.ID, ObjectID(12345)); err == nil {
		t.Fatal("Link to unknown child should fail")
	}
	if err := h.Unlink(a.ID, a.ID); err == nil {
		t.Fatal("Unlink of absent edge should fail")
	}
}

func TestEdgeMultiplicity(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	h.PinRoot(a)
	for i := 0; i < 3; i++ {
		if err := h.Link(a.ID, b.ID); err != nil {
			t.Fatal(err)
		}
	}
	if a.RefCount(b) != 3 {
		t.Fatalf("RefCount = %d, want 3", a.RefCount(b))
	}
	if err := h.Unlink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Unlink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if !h.Trace().Marked(b) {
		t.Fatal("b should stay alive while one edge remains")
	}
	if err := h.Unlink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if h.Trace().Marked(b) {
		t.Fatal("b should die when the last edge is removed")
	}
}

func TestCycleCollection(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	h.PinRoot(a)
	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if got := h.Trace().Objects; got != 2 {
		t.Fatalf("cycle with root: live = %d, want 2", got)
	}
	h.UnpinRoot(a)
	if got := h.Trace().Objects; got != 0 {
		t.Fatalf("unrooted cycle should be dead, live = %d", got)
	}
}

func TestEvacuatePreservesIdentityAndGraph(t *testing.T) {
	h := testHeap(t)
	src := mustRegion(t, h, Young)
	dst := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, src, 64)
	b := mustAlloc(t, h, src, 64)
	h.PinRoot(a)
	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	id := b.ID
	if err := h.Evacuate(b, dst); err != nil {
		t.Fatal(err)
	}
	if b.ID != id {
		t.Fatal("evacuation changed identity hash")
	}
	if b.Region() != dst || b.Gen() != 1 {
		t.Fatalf("evacuated object location wrong: %v", b)
	}
	if !h.Trace().Marked(b) {
		t.Fatal("evacuated object fell out of the graph")
	}
	if src.ResidentCount() != 1 || dst.ResidentCount() != 1 {
		t.Fatalf("resident counts wrong: src=%d dst=%d", src.ResidentCount(), dst.ResidentCount())
	}
}

func TestEvacuateErrors(t *testing.T) {
	h := testHeap(t)
	src := mustRegion(t, h, Young)
	a := mustAlloc(t, h, src, 64)
	if err := h.Evacuate(a, src); err == nil {
		t.Fatal("evacuating into own region should fail")
	}
	dst := mustRegion(t, h, Young)
	mustAlloc(t, h, dst, 64*1024-32)
	if err := h.Evacuate(a, dst); err == nil {
		t.Fatal("evacuating into full region should fail")
	}
	empty := mustRegion(t, h, Young)
	h.FreeRegion(empty)
	if err := h.Evacuate(a, empty); err == nil {
		t.Fatal("evacuating into freed region should fail")
	}
}

func TestRemoveTearsDownEdges(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	c := mustAlloc(t, h, r, 64)
	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	h.Remove(b)
	if b.Region() != nil {
		t.Fatal("removed object still present")
	}
	if a.RefCount(b) != 0 {
		t.Fatal("parent still references removed object")
	}
	if c.InDegree() != 0 {
		t.Fatal("child still records removed parent")
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}

func TestRemoveRootedPanics(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	h.PinRoot(a)
	mustPanic(t, "removing rooted", func() { h.Remove(a) })
}

func TestRemsetMaintenance(t *testing.T) {
	h := testHeap(t)
	r1 := mustRegion(t, h, Young)
	r2 := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, r1, 64)
	b := mustAlloc(t, h, r2, 64)

	if err := h.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if r2.RemsetEntries() != 1 {
		t.Fatalf("r2 remset = %d, want 1", r2.RemsetEntries())
	}
	if r1.RemsetEntries() != 0 {
		t.Fatalf("r1 remset = %d, want 0", r1.RemsetEntries())
	}

	// Moving b into r1 makes the edge intra-region.
	if err := h.Evacuate(b, r1); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 || r2.RemsetEntries() != 0 {
		t.Fatalf("after evacuate: r1=%d r2=%d, want 0/0", r1.RemsetEntries(), r2.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}

	// Moving the parent out makes it cross-region again.
	r3 := mustRegion(t, h, GenID(2))
	if err := h.Evacuate(a, r3); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 1 {
		t.Fatalf("after parent evacuation r1 remset = %d, want 1", r1.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}

func TestSelfReferenceRemset(t *testing.T) {
	h := testHeap(t)
	r1 := mustRegion(t, h, Young)
	r2 := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, r1, 64)
	if err := h.Link(a.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 {
		t.Fatal("self-edge should not appear in remset")
	}
	if err := h.Evacuate(a, r2); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 || r2.RemsetEntries() != 0 {
		t.Fatalf("self-edge after evacuation: r1=%d r2=%d, want 0/0", r1.RemsetEntries(), r2.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}
