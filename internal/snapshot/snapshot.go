// Package snapshot defines heap snapshots and the store that reconstructs a
// full live-heap view from a sequence of incremental snapshots.
//
// Every snapshot is a CRIU-style increment (§4.2 of the POLM2 paper): it
// contains only the pages dirtied since the previous snapshot, omits pages
// carrying the no-need bit and lists those that became no-need since the
// previous snapshot, and implicitly drops pages of unmapped (freed)
// regions. The Analyzer therefore cannot look at one snapshot in
// isolation: the Store replays the sequence, carrying clean pages forward
// and discarding no-need and unmapped pages, exactly as CRIU's restore side
// assembles a process image from an incremental dump chain.
package snapshot

import (
	"fmt"
	"sort"
	"time"

	"polm2/internal/heap"
)

// PageRecord is the captured content of one page: the ids of
// the objects whose headers lie on the page. Reading headers out of dumped
// pages is how the paper's Analyzer matches Recorder ids against snapshots
// (§4.3).
type PageRecord struct {
	Key       heap.PageKey
	HeaderIDs []heap.ObjectID
}

// Snapshot is one CRIU-style incremental heap snapshot. The first of a
// chain has every page dirty, so it captures the whole heap.
type Snapshot struct {
	// Seq is the snapshot's position in the dump sequence, starting at 1.
	Seq int
	// Cycle is the GC cycle after which the snapshot was taken.
	Cycle uint64
	// TakenAt is the simulated instant of the dump.
	TakenAt time.Duration
	// Regions lists the regions mapped at dump time. Pages of any other
	// region are gone.
	Regions []heap.RegionID
	// Pages holds the captured page contents.
	Pages []PageRecord
	// NoNeed lists the pages that became no-need (the collector marked
	// them as holding no reachable data) since the previous snapshot; Apply
	// deletes them from the view. A page still no-need from before was
	// deleted then, or never captured, so it is not listed again. Listing
	// every no-need page also rebuilds the same view, since deleting an
	// absent page is a no-op, so such a snapshot is equally valid.
	NoNeed []heap.PageKey
	// SizeBytes is the modeled on-disk size of the snapshot.
	SizeBytes uint64
	// Duration is the modeled time the dump took.
	Duration time.Duration
}

// Store reconstructs the live-heap view from a snapshot sequence.
type Store struct {
	pages   map[heap.PageKey][]heap.ObjectID
	lastSeq int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{pages: make(map[heap.PageKey][]heap.ObjectID)}
}

// Apply folds one snapshot into the view. Snapshots must be applied in
// sequence order. The view keeps each captured page's HeaderIDs slice
// itself rather than a copy, so applying an image allocates nothing per
// listed id: the store only reads those slices, and neither the dumper's
// per-snapshot arenas nor decoded images are mutated after they are built.
// A caller that does mutate an applied image's pages changes the view.
func (s *Store) Apply(snap *Snapshot) error {
	if snap.Seq <= s.lastSeq {
		return fmt.Errorf("snapshot: applying snapshot %d after %d", snap.Seq, s.lastSeq)
	}
	s.lastSeq = snap.Seq

	// Unmapped regions disappear.
	mapped := make(map[heap.RegionID]struct{}, len(snap.Regions))
	for _, r := range snap.Regions {
		mapped[r] = struct{}{}
	}
	for key := range s.pages {
		if _, ok := mapped[key.Region]; !ok {
			delete(s.pages, key)
		}
	}
	// No-need pages hold no reachable data anymore.
	for _, key := range snap.NoNeed {
		delete(s.pages, key)
	}
	// Captured pages overwrite whatever the view held for them.
	for _, pr := range snap.Pages {
		s.pages[pr.Key] = pr.HeaderIDs
	}
	return nil
}

// LiveIDs returns the ids visible in the current view, sorted.
func (s *Store) LiveIDs() []heap.ObjectID {
	var out []heap.ObjectID
	for _, ids := range s.pages {
		out = append(out, ids...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEach calls f for every id visible in the current view, in
// unspecified order. It avoids the allocation and sorting of LiveIDs on the
// Analyzer's hot replay path.
func (s *Store) ForEach(f func(heap.ObjectID)) {
	for _, ids := range s.pages {
		for _, id := range ids {
			f(id)
		}
	}
}
