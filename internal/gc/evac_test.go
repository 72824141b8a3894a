package gc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"polm2/internal/heap"
)

// byKey is the comparator of the sort sortByKey replaced.
func byKey(a, b heap.KeyedObject) int { return cmp.Compare(a.Key, b.Key) }

// TestSortByKeyMatchesSortFunc holds the evacuation-order sort to
// slices.SortFunc by key: uniform keys at every size up to a few thousand,
// and adversarial keys that share their top bits, so that one bucket holds
// most or all of them (a check of correctness, not of speed). One scratch
// serves every call, as the heap's does.
func TestSortByKeyMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s heap.EvacScratch
	objs := make([]heap.Object, 4096)
	check := func(name string, keys []uint64) {
		t.Helper()
		ks := make([]heap.KeyedObject, len(keys))
		for i, k := range keys {
			ks[i] = heap.KeyedObject{Key: k, Obj: &objs[i]}
		}
		want := slices.Clone(ks)
		slices.SortFunc(want, byKey)
		if got := sortByKey(&s, ks); !slices.Equal(got, want) {
			t.Fatalf("%s, n=%d: sortByKey disagrees with slices.SortFunc", name, len(keys))
		}
	}
	distinct := func(n int, key func() uint64) []uint64 {
		seen := make(map[uint64]bool, n)
		keys := make([]uint64, 0, n)
		for len(keys) < n {
			if k := key(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}
	var sizes []int
	for n := 0; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 127, 128, 129, 1000, 1023, 1024, 1025, 3000, 4096)
	for _, n := range sizes {
		check("uniform", distinct(n, rng.Uint64))
		// Serials hashed as the collectors key them.
		base := rng.Uint64() >> 1
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(heap.IDOf(base + uint64(i)))
		}
		check("IDOf", ids)
		// All keys share their top 32 bits: one bucket holds them all.
		top := rng.Uint64() &^ (1<<32 - 1)
		check("shared top 32 bits", distinct(n, func() uint64 { return top | uint64(rng.Uint32()) }))
		// Keys fill only eight buckets.
		check("eight prefixes", distinct(n, func() uint64 { return uint64(rng.Intn(8))<<61 | rng.Uint64()>>8 }))
		// Small buckets out of order, and runs already sorted or reversed.
		check("low bits only", distinct(n, func() uint64 { return uint64(rng.Intn(1 << 20)) }))
		sorted := distinct(n, rng.Uint64)
		slices.Sort(sorted)
		check("sorted", sorted)
		slices.Reverse(sorted)
		check("reversed", sorted)
	}
}

// TestSortByKeyAllocatesNothing pins the steady state: once the heap's
// scratch has grown, ordering a region's live residents allocates nothing.
func TestSortByKeyAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s heap.EvacScratch
	ks := make([]heap.KeyedObject, 2000)
	fill := func() {
		for i := range ks {
			ks[i].Key = rng.Uint64()
		}
	}
	fill()
	sortByKey(&s, ks)
	if got := testing.AllocsPerRun(100, func() {
		fill()
		sortByKey(&s, ks)
	}); got != 0 {
		t.Fatalf("sortByKey allocates %v times per call on a warmed scratch, want 0", got)
	}
}

// evacuateThenSweep is the evacuation EvacuateAndFree fused: place the live
// residents in ascending IDOf order, then sweep the dead, then free the
// region. It is kept as the model the fused walk must match.
func evacuateThenSweep(h *heap.Heap, r *heap.Region, live *heap.LiveSet, place func(*heap.Object) error) error {
	var ks []heap.KeyedObject
	for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
		if live.Marked(obj) {
			ks = append(ks, heap.KeyedObject{Key: uint64(heap.IDOf(uint64(obj.ID))), Obj: obj})
		}
	}
	slices.SortFunc(ks, byKey)
	for _, k := range ks {
		if err := place(k.Obj); err != nil {
			return err
		}
	}
	SweepRegion(h, r, live)
	h.FreeRegion(r)
	return nil
}

// evacHeap builds a seeded heap of six young regions and one old region of
// roots. Objects of random sizes link at random, so dead residents point at
// live ones and back, within a region and across regions, with self edges
// and repeated edges; about a third are rooted.
func evacHeap(t *testing.T, seed int64) (*heap.Heap, []*heap.Region, map[*heap.Object]heap.ObjectID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := heap.New(heap.Config{RegionSize: 16 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var regions []*heap.Region
	for i := 0; i < 7; i++ {
		r, err := h.NewRegion(heap.GenID(min(i/6, 1)))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	var objs []*heap.Object
	was := make(map[*heap.Object]heap.ObjectID)
	for i := 0; i < 240; i++ {
		r := regions[rng.Intn(len(regions))]
		size := uint32(16 + rng.Intn(400))
		if r.Used()+size > h.Config().RegionSize {
			continue
		}
		obj, err := h.Allocate(r, size, heap.SiteID(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		was[obj] = obj.ID
		if rng.Intn(3) == 0 {
			h.PinRoot(obj)
		}
	}
	for i := 0; i < 600; i++ {
		a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
		if err := h.Link(a.ID, b.ID); err != nil {
			t.Fatal(err)
		}
	}
	return h, regions, was
}

// fingerprint renders what evacuation order can reach: every active region's
// id, generation, bump pointer and remembered set, each resident's id,
// offset and out-edge order, the heap's counts, and the freelist's order,
// as the ids that the structs the next allocations recycle had before
// (was maps each struct allocated so far to its first id).
func fingerprint(t *testing.T, h *heap.Heap, was map[*heap.Object]heap.ObjectID) string {
	t.Helper()
	var b strings.Builder
	for _, r := range h.ActiveRegions() {
		fmt.Fprintf(&b, "region %d gen %d used %d remset %d:", r.ID(), r.Gen(), r.Used(), r.RemsetEntries())
		for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
			fmt.Fprintf(&b, " %d@%d[", obj.ID, obj.Offset)
			obj.EachRef(func(child *heap.Object, n int) { fmt.Fprintf(&b, "%d×%d ", child.ID, n) })
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "stats %+v\n", h.Stats())
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		obj, err := h.Allocate(r, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d ", was[obj])
	}
	return b.String()
}

// TestFusedEvacuationMatchesEvacuateThenSweep holds EvacuateAndFree, which
// removes each dead resident as its one walk reaches it, to the
// evacuate-then-sweep it replaced: the same regions, offsets, remembered
// sets, edge orders and freelist, on seeded heaps whose dead residents
// point at live ones and back, within and across the collected regions.
func TestFusedEvacuationMatchesEvacuateThenSweep(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		run := func(evacuate func(*heap.Heap, *heap.Region, *heap.LiveSet, func(*heap.Object) error) error) string {
			h, regions, was := evacHeap(t, seed)
			live := h.Trace()
			cursor := NewCursor(h, heap.GenID(1))
			// Collect the first four young regions; the other two and
			// the old region keep their residents, live and dead.
			for _, r := range regions[:4] {
				if err := evacuate(h, r, live, cursor.Place); err != nil {
					t.Fatal(err)
				}
			}
			if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
				t.Fatalf("seed %d: remset invariant broken in %v", seed, bad)
			}
			if bad := h.CheckPageInvariant(); len(bad) != 0 {
				t.Fatalf("seed %d: page invariant broken in %v", seed, bad)
			}
			if err := h.Verify(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return fingerprint(t, h, was)
		}
		fused := run(func(h *heap.Heap, r *heap.Region, live *heap.LiveSet, place func(*heap.Object) error) error {
			_, _, err := EvacuateAndFree(h, r, live, place)
			return err
		})
		if want := run(evacuateThenSweep); fused != want {
			t.Fatalf("seed %d: fused evacuation differs from evacuate-then-sweep\nfused:\n%s\nmodel:\n%s", seed, fused, want)
		}
	}
}
