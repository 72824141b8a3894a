// Package dumper implements the Dumper component of POLM2 (§3.2, §4.2) and
// the jmap-style baseline it is evaluated against (Figures 3 and 4).
//
// The CRIU-style dumper captures page-level incremental snapshots: it
// includes only pages dirtied since the previous snapshot, skips pages the
// collector marked no-need (no reachable objects), and implicitly drops
// unmapped regions. An image lists as no-need only the pages that became
// no-need since the previous image: a page no-need at both was deleted
// from the view by an earlier image, or never entered it, and no-need
// pages are never copied. It has that one behaviour. Alongside each
// snapshot it records the heap's PageCounts, from which the dump ablation
// prices what a dump with either optimization off would have copied of the
// same heap.
//
// The jmap-style baseline traces the heap and is modeled by the time and
// size of serializing every live object, which is slow and produces large
// dumps — the paper reports 22-minute, 3.8 GB jmap dumps for GraphChi
// against 32-second, 700 MB Dumper snapshots. Figures 3 and 4 compare the
// two by time and size alone, so a jmap dump carries no page images.
package dumper

import (
	"fmt"
	"time"

	"polm2/internal/faultio"
	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

// CostModel converts dump work into simulated time and bytes. Rates are
// calibrated against the paper's observations: CRIU writes raw pages at
// near-device speed while jmap serializes the object graph two orders of
// magnitude slower.
type CostModel struct {
	// CRIUBase is the fixed cost of a CRIU dump (freeze, page-map scan).
	CRIUBase time.Duration
	// CRIUPerPage is the cost per included page.
	CRIUPerPage time.Duration
	// CRIUPageMetaBytes is per-page metadata in the image.
	CRIUPageMetaBytes uint64
	// JmapBase is the fixed cost of a jmap dump.
	JmapBase time.Duration
	// JmapPerLiveByte is the serialization cost per live heap byte.
	JmapPerLiveByte time.Duration
	// JmapPerObject is the per-object walk/serialize cost.
	JmapPerObject time.Duration
	// JmapObjectHeaderBytes is the per-object overhead in the hprof
	// image.
	JmapObjectHeaderBytes uint64
}

// DefaultCostModel returns the calibrated dump cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		CRIUBase:              2 * time.Millisecond,
		CRIUPerPage:           8 * time.Microsecond,
		CRIUPageMetaBytes:     32,
		JmapBase:              20 * time.Millisecond,
		JmapPerLiveByte:       25 * time.Nanosecond,
		JmapPerObject:         300 * time.Nanosecond,
		JmapObjectHeaderBytes: 16,
	}
}

// CRIUDump prices a CRIU dump copying pages of pageSize bytes: its image
// size and the time the application is frozen. Snapshot and the dump
// ablation both call it.
func (m CostModel) CRIUDump(pages int, pageSize uint32) (size uint64, d time.Duration) {
	size = uint64(pages) * (uint64(pageSize) + m.CRIUPageMetaBytes)
	d = m.CRIUBase + time.Duration(pages)*m.CRIUPerPage
	return size, d
}

// JmapDump prices a jmap dump of a heap holding the given live objects and
// bytes: the size of its hprof image and the time serializing it takes.
// Jmap.Snapshot and core.ProfileApp's pause-derived baseline both call it.
func (m CostModel) JmapDump(objects int, bytes uint64) (size uint64, d time.Duration) {
	size = bytes + uint64(objects)*m.JmapObjectHeaderBytes
	d = m.JmapBase + time.Duration(bytes)*m.JmapPerLiveByte + time.Duration(objects)*m.JmapPerObject
	return size, d
}

// Config parameterizes a CRIU-style Dumper.
type Config struct {
	// Cost is the dump cost model. Zero value means DefaultCostModel.
	Cost CostModel
	// PersistDir, when set, writes every snapshot to disk as it is taken
	// (snap-NNNNNN.img, staged and atomically renamed), so a crash
	// mid-run loses only a suffix of whole images.
	PersistDir string
	// Fault optionally injects I/O faults into persisted image writes.
	// Nil writes straight through.
	Fault *faultio.Injector
	// Images, when set, receives every image right after it is persisted.
	// It is the only holder of an image's pages: the Dumper itself keeps
	// just the metadata Snapshots returns.
	Images ImageSink
}

// ImageSink folds each image a Dumper takes, in sequence order, and must
// not mutate it. analyzer.Replay implements it.
type ImageSink interface {
	Add(*snapshot.Snapshot) error
}

// Dumper creates CRIU-style incremental heap snapshots. It implements
// recorder.SnapshotSink.
type Dumper struct {
	h     *heap.Heap
	clock *simclock.Clock
	cfg   Config
	seq   int
	// snaps holds each snapshot's metadata, without its pages; counts
	// the heap's page counts at each.
	snaps  []*snapshot.Snapshot
	counts []heap.PageCounts
	// lastHdr remembers the previous snapshot's header-id arena size so
	// the next snapshot allocates its arena once, up front.
	lastHdr int
	// noNeed is every page the heap reported no-need at the previous
	// snapshot, listed or not, in ascending (region, index) order; spare
	// is the buffer the next snapshot's set is built in.
	noNeed, spare []heap.PageKey
}

// New builds a Dumper over the given heap and clock.
func New(h *heap.Heap, clock *simclock.Clock, cfg Config) *Dumper {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	return &Dumper{h: h, clock: clock, cfg: cfg}
}

// Snapshot captures an incremental snapshot of the heap after the given GC
// cycle.
func (d *Dumper) Snapshot(cycle uint64) error {
	d.seq++
	snap := &snapshot.Snapshot{
		Seq:     d.seq,
		Cycle:   cycle,
		TakenAt: d.clock.Now(),
		Regions: d.h.ActiveRegionIDs(),
	}
	// Counted before the dirty bits are cleared: the heap this dump sees.
	d.counts = append(d.counts, d.h.CountPages())
	// Header ids are copied into one per-snapshot arena instead of one
	// slices.Clone per page: the image sink's view keeps the pages it has
	// not seen overwritten, so the arena cannot be pooled, but a single
	// right-sized allocation (hinted by the previous snapshot) replaces
	// hundreds of small ones.
	arena := make([]heap.ObjectID, 0, d.lastHdr)
	// Pages and the previous no-need set both ascend, so the pages that
	// became no-need since then are one merge walk away.
	noNeed, prev := d.spare[:0], d.noNeed
	d.h.Pages(func(ps heap.PageState) {
		if ps.NoNeed {
			noNeed = append(noNeed, ps.Key)
			for len(prev) > 0 && keyLess(prev[0], ps.Key) {
				prev = prev[1:]
			}
			if len(prev) == 0 || prev[0] != ps.Key {
				snap.NoNeed = append(snap.NoNeed, ps.Key)
			}
			return
		}
		if !ps.Dirty {
			return
		}
		var ids []heap.ObjectID
		if len(ps.Headers) > 0 {
			start := len(arena)
			for _, obj := range ps.Headers {
				arena = append(arena, obj.ID)
			}
			// Full-capacity subslice: appends to one page's ids can
			// never bleed into the next page's.
			ids = arena[start:len(arena):len(arena)]
		}
		snap.Pages = append(snap.Pages, snapshot.PageRecord{
			Key:       ps.Key,
			HeaderIDs: ids,
		})
	})
	d.lastHdr = len(arena)
	d.noNeed, d.spare = noNeed, d.noNeed
	snap.SizeBytes, snap.Duration = d.cfg.Cost.CRIUDump(len(snap.Pages), d.h.Config().PageSize)
	// CRIU clears the kernel soft-dirty bit after each dump.
	d.h.ClearDirtyPages()
	// The application is frozen while CRIU dumps it.
	d.clock.Advance(snap.Duration)
	d.snaps = append(d.snaps, &snapshot.Snapshot{
		Seq:       snap.Seq,
		Cycle:     snap.Cycle,
		TakenAt:   snap.TakenAt,
		SizeBytes: snap.SizeBytes,
		Duration:  snap.Duration,
	})
	if d.cfg.PersistDir != "" {
		if err := snapshot.WriteImage(d.cfg.PersistDir, snap, d.cfg.Fault); err != nil {
			return fmt.Errorf("dumper: persisting snapshot %d: %w", snap.Seq, err)
		}
	}
	if d.cfg.Images != nil {
		if err := d.cfg.Images.Add(snap); err != nil {
			return fmt.Errorf("dumper: folding snapshot %d: %w", snap.Seq, err)
		}
	}
	return nil
}

// keyLess orders page keys as Heap.Pages visits them.
func keyLess(a, b heap.PageKey) bool {
	return a.Region < b.Region || a.Region == b.Region && a.Index < b.Index
}

// Snapshots returns the metadata of every snapshot taken so far, in
// sequence order: Seq, Cycle, TakenAt, SizeBytes and Duration. Regions,
// Pages and NoNeed are nil; the images went to the persisted directory and
// the Images sink.
func (d *Dumper) Snapshots() []*snapshot.Snapshot {
	out := make([]*snapshot.Snapshot, len(d.snaps))
	copy(out, d.snaps)
	return out
}

// PageCounts returns the heap's page counts at every snapshot so far, in
// sequence order, each taken just before that snapshot copied its pages.
func (d *Dumper) PageCounts() []heap.PageCounts {
	return append([]heap.PageCounts(nil), d.counts...)
}

// Jmap models live-object dumps the way the jmap tool takes them: it
// traces the heap itself and charges the serialization of every live
// object. Its snapshots carry only the modeled SizeBytes and Duration, no
// pages. It implements recorder.SnapshotSink so either dumper can drive
// the same pipeline. core.ProfileApp prices its baseline from the
// collector's own trace instead; Jmap is the reference that pricing is
// tested against.
type Jmap struct {
	h     *heap.Heap
	clock *simclock.Clock
	cost  CostModel
	seq   int
	snaps []*snapshot.Snapshot
}

// NewJmap builds a jmap-style dumper.
func NewJmap(h *heap.Heap, clock *simclock.Clock, cost CostModel) *Jmap {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	return &Jmap{h: h, clock: clock, cost: cost}
}

// Snapshot models a live-object dump of the current heap.
func (j *Jmap) Snapshot(cycle uint64) error {
	j.seq++
	live := j.h.Trace()
	snap := &snapshot.Snapshot{Seq: j.seq, Cycle: cycle, TakenAt: j.clock.Now()}
	snap.SizeBytes, snap.Duration = j.cost.JmapDump(live.Objects, live.Bytes)
	j.snaps = append(j.snaps, snap)
	return nil
}

// Snapshots returns all dumps taken so far.
func (j *Jmap) Snapshots() []*snapshot.Snapshot {
	out := make([]*snapshot.Snapshot, len(j.snaps))
	copy(out, j.snaps)
	return out
}

// Tee fans one snapshot request out to several sinks, so a CRIU-style and
// a jmap-style dump can be taken of the identical heap state after the same
// GC cycle. The profiling phase does not use it: tests wire one to hold
// Jmap against the pause-derived baseline.
type Tee struct {
	sinks []Sink
}

// Sink matches recorder.SnapshotSink without importing it (the recorder
// already depends on neither dumper nor snapshot).
type Sink interface {
	Snapshot(cycle uint64) error
}

// NewTee builds a fan-out sink.
func NewTee(sinks ...Sink) *Tee { return &Tee{sinks: sinks} }

// Snapshot forwards to every sink, failing on the first error.
func (t *Tee) Snapshot(cycle uint64) error {
	for i, s := range t.sinks {
		if err := s.Snapshot(cycle); err != nil {
			return fmt.Errorf("dumper: tee sink %d: %w", i, err)
		}
	}
	return nil
}
