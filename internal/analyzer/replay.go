package analyzer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"polm2/internal/heap"
	"polm2/internal/snapshot"
)

// chunkBits sizes the replay's survival-count chunks: 64 Ki serials, 256 KiB
// of uint32 counts each.
const (
	chunkBits = 16
	chunkMask = 1<<chunkBits - 1
)

// countChunk holds the survival counts of 64 Ki consecutive serials.
type countChunk [1 << chunkBits]uint32

// Replay is the Analyzer's one fold over a CRIU increment chain (§4.2,
// §4.3). Add applies each image, in sequence order, to a snapshot.Store and
// counts, per allocation serial, the snapshots whose reconstructed view
// lists it; Finish then reads the recorded streams and turns the counts
// into every site's survival buckets. It implements dumper.ImageSink, so a
// profiling run folds each image as the dumper takes it and no page chain
// outlives its view; Analyze folds a decoded chain the same way.
type Replay struct {
	store *snapshot.Store
	// snaps counts the images added: the last survival bucket.
	snaps int
	// listed counts the ids the added images list, duplicates included:
	// the s of the serial-window bound (serialIndex.check).
	listed uint64
	// Only serials in [lo, hi] are counted.
	lo, hi uint64
	// chunks[s>>chunkBits][s&chunkMask] counts the views that listed
	// serial s. A chunk is allocated when one of its serials is first
	// counted and never regrown, so memory follows the serials counted,
	// not their values. last is the chunk most recently counted into and
	// lastKey its key: a page lists its serials ascending, so most counts
	// skip the map.
	chunks  map[uint64]*countChunk
	last    *countChunk
	lastKey uint64
}

// NewReplay returns an empty replay that counts every serial its images
// list: the in-memory feed, registered as the dumper's image sink before
// the recording window is known.
func NewReplay() *Replay {
	return newReplay(0, math.MaxUint64)
}

// newReplay returns an empty replay counting only the serials in [lo, hi].
func newReplay(lo, hi uint64) *Replay {
	return &Replay{store: snapshot.NewStore(), lo: lo, hi: hi, chunks: make(map[uint64]*countChunk)}
}

// Add folds one image into the view and counts every serial the view then
// lists. Images must be added in sequence order. The store keeps the
// image's page slices, which must not be mutated afterwards.
func (r *Replay) Add(snap *snapshot.Snapshot) error {
	if err := r.store.Apply(snap); err != nil {
		return fmt.Errorf("analyzer: replaying snapshots: %w", err)
	}
	r.snaps++
	r.listed += listedIDs(snap)
	// A live serial that no site recorded is counted too: no bucket reads
	// its count.
	r.store.ForEach(func(oid heap.ObjectID) {
		s := uint64(oid)
		if s < r.lo || s > r.hi {
			return
		}
		if key := s >> chunkBits; r.last == nil || key != r.lastKey {
			c := r.chunks[key]
			if c == nil {
				c = new(countChunk)
				r.chunks[key] = c
			}
			r.last, r.lastKey = c, key
		}
		r.last[s&chunkMask]++
	})
	return nil
}

// Finish analyzes the images added so far against the records in
// recordsDir, refusing any loss as Analyze does. The replay is left as it
// was: more images may be added and the replay finished again, which is
// how the online loop re-profiles its growing window.
func (r *Replay) Finish(recordsDir string, opts Options) (*Profile, error) {
	return strict(r.FinishSalvage(recordsDir, opts))
}

// FinishSalvage is Finish salvaging damaged records as AnalyzeSalvage
// does. The serial window is checked against the ids the added images
// listed before the 4 B-per-serial site index is allocated.
func (r *Replay) FinishSalvage(recordsDir string, opts Options) (*Profile, *SalvageReport, error) {
	opts = opts.withDefaults()
	w, err := readEvidence(recordsDir)
	if err != nil {
		return nil, nil, err
	}
	if err := w.idx.check(r.listed); err != nil {
		return nil, w.rep, err
	}
	return r.finish(w, opts)
}

// finish fills the buckets of w's checked window from the counts and
// synthesizes the profile.
func (r *Replay) finish(w *evidenceWalk, opts Options) (*Profile, *SalvageReport, error) {
	r.fill(&w.idx)
	prof, err := synthesize(w.idx.sites, opts)
	if err != nil {
		return nil, w.rep, err
	}
	return prof, w.rep, nil
}

// fill builds idx and fills every site's survival buckets from the counts
// of its recorded serials.
func (r *Replay) fill(idx *serialIndex) {
	idx.build()
	maxBucket := r.snaps
	for _, ev := range idx.sites {
		ev.survived = make([]uint64, maxBucket+1)
	}
	var c *countChunk
	key := uint64(math.MaxUint64)
	for k, pos := range idx.site {
		if pos == 0 {
			continue
		}
		s := idx.lo + uint64(k)
		if s>>chunkBits != key {
			key = s >> chunkBits
			c = r.chunks[key]
		}
		var n uint32
		if c != nil {
			n = c[s&chunkMask]
		}
		// An id listed on two pages of one snapshot counts twice; the
		// cap keeps a forged image inside the buckets.
		idx.sites[pos-1].survived[min(int(n), maxBucket)]++
	}
}

// replayWindow is the slice feed: it folds snaps, in sequence order,
// counting only the serials of idx's window. The window is checked against
// the ids snaps list before any count is taken.
func replayWindow(idx *serialIndex, snaps []*snapshot.Snapshot) (*Replay, error) {
	var listed uint64
	for _, snap := range snaps {
		listed += listedIDs(snap)
	}
	if err := idx.check(listed); err != nil {
		return nil, err
	}
	r := newReplay(1, 0) // an empty window counts nothing
	if idx.n > 0 {
		r.lo, r.hi = idx.lo, idx.hi
	}
	ordered := slices.Clone(snaps)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, snap := range ordered {
		if err := r.Add(snap); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// listedIDs counts the ids an image lists, duplicates included.
func listedIDs(snap *snapshot.Snapshot) uint64 {
	var n uint64
	for _, pr := range snap.Pages {
		n += uint64(len(pr.HeaderIDs))
	}
	return n
}
