package snapshot

import (
	"runtime"
	"slices"
	"testing"

	"polm2/internal/heap"
)

func pk(region, index uint32) heap.PageKey {
	return heap.PageKey{Region: heap.RegionID(region), Index: index}
}

func TestStoreIncrementalCarriesCleanPages(t *testing.T) {
	s := NewStore()
	must(t, s.Apply(&Snapshot{
		Seq:     1,
		Regions: []heap.RegionID{1, 2},
		Pages: []PageRecord{
			{Key: pk(1, 0), HeaderIDs: []heap.ObjectID{10}},
			{Key: pk(2, 0), HeaderIDs: []heap.ObjectID{20}},
		},
	}))
	// Snapshot 2 only includes a dirtied page of region 2; region 1's
	// page was clean and must be carried forward.
	must(t, s.Apply(&Snapshot{
		Seq:     2,
		Regions: []heap.RegionID{1, 2},
		Pages: []PageRecord{
			{Key: pk(2, 0), HeaderIDs: []heap.ObjectID{21}},
		},
	}))
	if !slices.Contains(s.LiveIDs(), 10) {
		t.Fatal("clean page content lost")
	}
	if slices.Contains(s.LiveIDs(), 20) || !slices.Contains(s.LiveIDs(), 21) {
		t.Fatal("dirty page content not replaced")
	}
}

func TestStoreDropsUnmappedRegions(t *testing.T) {
	s := NewStore()
	must(t, s.Apply(&Snapshot{
		Seq:     1,
		Regions: []heap.RegionID{1, 2},
		Pages: []PageRecord{
			{Key: pk(1, 0), HeaderIDs: []heap.ObjectID{10}},
			{Key: pk(2, 0), HeaderIDs: []heap.ObjectID{20}},
		},
	}))
	// Region 1 was freed (young collection): gone from the mapping.
	must(t, s.Apply(&Snapshot{
		Seq:     2,
		Regions: []heap.RegionID{2},
	}))
	if slices.Contains(s.LiveIDs(), 10) {
		t.Fatal("page of unmapped region survived")
	}
	if !slices.Contains(s.LiveIDs(), 20) {
		t.Fatal("mapped clean page lost")
	}
}

func TestStoreDropsNoNeedPages(t *testing.T) {
	s := NewStore()
	must(t, s.Apply(&Snapshot{
		Seq:     1,
		Regions: []heap.RegionID{1},
		Pages: []PageRecord{
			{Key: pk(1, 0), HeaderIDs: []heap.ObjectID{10}},
			{Key: pk(1, 1), HeaderIDs: []heap.ObjectID{11}},
		},
	}))
	must(t, s.Apply(&Snapshot{
		Seq:     2,
		Regions: []heap.RegionID{1},
		NoNeed:  []heap.PageKey{pk(1, 1)},
	}))
	if !slices.Contains(s.LiveIDs(), 10) || slices.Contains(s.LiveIDs(), 11) {
		t.Fatalf("no-need handling wrong: %v", s.LiveIDs())
	}
}

func TestStoreRejectsOutOfOrder(t *testing.T) {
	s := NewStore()
	must(t, s.Apply(&Snapshot{Seq: 2}))
	stale := &Snapshot{Seq: 1, Pages: []PageRecord{{Key: pk(1, 0), HeaderIDs: []heap.ObjectID{10}}}}
	if err := s.Apply(stale); err == nil {
		t.Fatal("out-of-order apply should fail")
	}
	if ids := s.LiveIDs(); len(ids) != 0 {
		t.Fatalf("refused snapshot changed the view: %v", ids)
	}
	if err := s.Apply(&Snapshot{Seq: 2}); err == nil {
		t.Fatal("duplicate seq should fail")
	}
}

// TestLiveSetMatchesLiveIDs: ForEach, the Analyzer's bulk view of the
// live set, visits exactly the ids LiveIDs lists, and LiveIDs is sorted.
func TestLiveSetMatchesLiveIDs(t *testing.T) {
	s := NewStore()
	must(t, s.Apply(&Snapshot{
		Seq:     1,
		Regions: []heap.RegionID{1},
		Pages: []PageRecord{
			{Key: pk(1, 0), HeaderIDs: []heap.ObjectID{3, 1, 2}},
		},
	}))
	set := make(map[heap.ObjectID]struct{})
	s.ForEach(func(id heap.ObjectID) { set[id] = struct{}{} })
	ids := s.LiveIDs()
	if len(set) != len(ids) {
		t.Fatalf("ForEach visits %d ids != LiveIDs size %d", len(set), len(ids))
	}
	for _, id := range ids {
		if _, ok := set[id]; !ok {
			t.Fatalf("id %d missing from ForEach", id)
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("LiveIDs not sorted")
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestApplyAllocationIndependentOfListedIDs: the view keeps an applied
// page's id slice, so applying one page that lists 100 000 ids allocates no
// more than applying one that lists a single id, give or take 4 KiB of
// allocator accounting (small allocations are counted a span at a time). A
// copy of the ids would be 800 KB.
func TestApplyAllocationIndependentOfListedIDs(t *testing.T) {
	applyBytes := func(n int) uint64 {
		ids := make([]heap.ObjectID, n)
		for i := range ids {
			ids[i] = heap.ObjectID(i + 1)
		}
		snap := &Snapshot{Seq: 1, Regions: []heap.RegionID{1}, Pages: []PageRecord{{Key: pk(1, 0), HeaderIDs: ids}}}
		s := NewStore()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		must(t, s.Apply(snap))
		runtime.ReadMemStats(&after)
		if got := s.LiveIDs(); len(got) != n {
			t.Fatalf("view lists %d ids, want %d", len(got), n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	one, many := applyBytes(1), applyBytes(100_000)
	t.Logf("Apply allocated %d B for 1 listed id, %d B for 100 000", one, many)
	if many > one+4<<10 {
		t.Fatalf("Apply allocated %d B for 100 000 listed ids, more than the %d B for one + 4 KiB", many, one)
	}
}

// BenchmarkStoreApply applies the reference run's decoded snapshot chain
// to a fresh store.
func BenchmarkStoreApply(b *testing.B) {
	snaps, err := ReadDir("../../testdata/artifacts/v3/snaps")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		for _, snap := range snaps {
			if err := s.Apply(snap); err != nil {
				b.Fatal(err)
			}
		}
	}
}
