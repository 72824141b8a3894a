package heap

import "slices"

// RegionLiveness summarizes what a trace found live inside one region.
type RegionLiveness struct {
	Objects int
	Bytes   uint64
}

// LiveSet is the result of tracing the heap from its roots. Membership is
// implemented with per-object epoch marks rather than a hash set, so
// building a LiveSet allocates almost nothing; a LiveSet is only valid
// until the next Trace call on the same heap (the traversal buffer it views
// is the heap's reusable trace queue).
type LiveSet struct {
	epoch uint64
	objs  []*Object

	// Objects, Bytes and Edges describe the traversal: reachable object
	// count, their total size, and the number of reference edges scanned
	// (counting multiplicity). The collectors' cost models charge for
	// these quantities.
	Objects int
	Bytes   uint64
	Edges   uint64
}

// Marked reports whether obj was reachable when the set was traced.
func (ls *LiveSet) Marked(obj *Object) bool { return obj.mark == ls.epoch }

// Region returns the liveness summary for one region. The summary is stored
// on the region itself, stamped with the trace epoch, so tracing allocates
// no per-region map.
func (ls *LiveSet) Region(r *Region) RegionLiveness {
	if r.traceEpoch != ls.epoch {
		return RegionLiveness{}
	}
	return RegionLiveness{Objects: r.liveObjects, Bytes: r.liveBytes}
}

// IDs returns the reachable object ids in ascending order. The slice is
// freshly allocated.
func (ls *LiveSet) IDs() []ObjectID {
	out := make([]ObjectID, len(ls.objs))
	for i, obj := range ls.objs {
		out[i] = obj.ID
	}
	slices.Sort(out)
	return out
}

// Trace performs a full breadth-first traversal from the root set and
// returns the live set. The simulation traces the whole heap on every
// collection (cheap at simulation scale); the collectors charge pause cost
// only for the work their collection set implies, so policy realism is
// preserved without remembered-set-limited tracing.
//
// Tracing invalidates any LiveSet from a previous Trace of this heap: the
// BFS queue backing is owned by the heap and reused across traces.
func (h *Heap) Trace() *LiveSet {
	h.epoch++
	ls := &LiveSet{epoch: h.epoch}
	queue := h.traceQueue[:0]
	for _, obj := range h.roots {
		obj.mark = h.epoch
		queue = append(queue, obj)
	}
	for head := 0; head < len(queue); head++ {
		obj := queue[head]
		ls.Objects++
		ls.Bytes += uint64(obj.Size)
		r := obj.region
		if r.traceEpoch != h.epoch {
			r.traceEpoch = h.epoch
			r.liveObjects = 0
			r.liveBytes = 0
		}
		r.liveObjects++
		r.liveBytes += uint64(obj.Size)
		// Iterate the edge store inline (rather than through each) so the
		// hottest loop of the simulation pays no closure call per edge.
		// Slot 0 first, then the block's inline slots and spill: an
		// emptied slot 0 can still have a spill behind it.
		refs := &obj.refs
		if refs.inlineLen > 0 {
			ls.Edges += uint64(refs.n0)
			if c := refs.obj0; c.mark != h.epoch {
				c.mark = h.epoch
				queue = append(queue, c)
			}
		}
		b := refs.blk
		if b == nil {
			continue
		}
		for i := int32(1); i < refs.inlineLen; i++ {
			e := &b.inline[i-1]
			ls.Edges += uint64(e.n)
			if e.obj.mark != h.epoch {
				e.obj.mark = h.epoch
				queue = append(queue, e.obj)
			}
		}
		for i := range b.spill {
			e := &b.spill[i]
			ls.Edges += uint64(e.n)
			if e.obj.mark != h.epoch {
				e.obj.mark = h.epoch
				queue = append(queue, e.obj)
			}
		}
	}
	h.traceQueue = queue
	ls.objs = queue
	return ls
}

// MarkNoNeedPages sets the no-need bit on every page of every active region
// that is not covered by any live object's storage. This is the paper's
// §4.2 madvise pass the Recorder triggers before asking the Dumper for a
// snapshot; the Dumper skips no-need pages entirely.
//
// It visits only the live objects, in the order the trace queued them, at
// their current region and offset: the collection that traced live may
// have evacuated them since, and it removed only unmarked objects, so each
// one is still resident. Each region's cover bits collect the pages some
// live object overlaps, and their complement is ORed into the no-need bits
// a word at a time. Dead residents are never read.
func (h *Heap) MarkNoNeedPages(live *LiveSet) {
	for _, r := range h.active {
		r.pages.cover.clearAll()
	}
	pageSize := h.cfg.PageSize
	for _, obj := range live.objs {
		cover := obj.region.pages.cover
		first, last := obj.pageSpan(pageSize)
		for i := first; i <= last; i++ {
			cover.set(i)
		}
	}
	for _, r := range h.active {
		rp := r.pages
		rp.noNeed.orNot(rp.cover, rp.n)
	}
}

// Pages calls f for every page of every active region, in ascending
// (region, index) order. Freed regions are skipped: their memory is
// unmapped from the dumper's point of view.
//
// A page's Headers are read off its region's resident list in one merge
// walk, which relies on the residents lying in ascending, non-overlapping
// offset order: residents are only ever appended at the bump pointer, and
// CheckPageInvariant verifies the order. The walk is made only in regions
// holding a dirty page; every page of a clean region reports no Headers.
// That is all the incremental Dumper needs, since it copies no clean page,
// and it keeps the dump's cost proportional to what it copies.
//
// Headers aliases a per-heap scratch buffer and is valid only during the
// callback: callers that keep header ids (the dumper) copy them out.
func (h *Heap) Pages(f func(PageState)) {
	pageSize := h.cfg.PageSize
	for _, r := range h.active {
		rp := r.pages
		walk := rp.dirty.any()
		// obj is the first resident whose header lies on or after the
		// current page.
		obj := r.head
		for i := uint32(0); i < rp.n; i++ {
			st := PageState{
				Key:    PageKey{Region: r.id, Index: i},
				Dirty:  rp.dirty.get(i),
				NoNeed: rp.noNeed.get(i),
			}
			if walk {
				end := (i + 1) * pageSize
				headers := h.pageHeaders[:0]
				for ; obj != nil && obj.Offset < end; obj = obj.next {
					headers = append(headers, obj)
				}
				h.pageHeaders = headers
				st.Headers = headers
			}
			f(st)
		}
	}
}

// ClearDirtyPages clears the dirty bit of every page of every active
// region. The Dumper calls this after completing a snapshot, exactly as
// CRIU resets the kernel soft-dirty bit (§4.2).
func (h *Heap) ClearDirtyPages() {
	for _, r := range h.active {
		r.pages.dirty.clearAll()
	}
}

// ActiveRegionIDs returns the ids of all non-freed regions in ascending
// order. The returned slice is freshly allocated; callers (the dumper's
// snapshots) may keep it indefinitely.
func (h *Heap) ActiveRegionIDs() []RegionID {
	out := make([]RegionID, len(h.active))
	for i, r := range h.active {
		out[i] = r.id
	}
	return out
}

// CheckRemsetInvariant recomputes every active region's remembered-set size
// from scratch, walking the residents of every active region, and compares
// it with the incrementally maintained counter. It returns the ids of
// regions whose counters disagree, in ascending order; an empty result
// means the invariant holds. Tests use this to validate the incremental
// maintenance in Link/Unlink/Evacuate/Remove.
func (h *Heap) CheckRemsetInvariant() []RegionID {
	want := make(map[*Region]int)
	for _, r := range h.active {
		for obj := r.head; obj != nil; obj = obj.next {
			obj.refs.each(func(child *Object, n int32) {
				if child.region != r {
					want[child.region] += int(n)
				}
			})
		}
	}
	var bad []RegionID
	for _, r := range h.active {
		if r.remsetEntries != want[r] {
			bad = append(bad, r.id)
		}
	}
	return bad
}

// CheckPageInvariant checks the resident-list shape Pages' merge walk
// relies on. For every active region, every resident must point back to
// the region, the list must hold exactly ResidentCount objects, and the
// residents must lie below the bump pointer in ascending, non-overlapping
// offset order. It returns the regions that break it, in ascending order.
// Tests use it to validate Allocate/Evacuate/Remove.
func (h *Heap) CheckPageInvariant() []RegionID {
	var bad []RegionID
	for _, r := range h.active {
		n, end, ok := 0, uint32(0), true
		for obj := r.head; obj != nil; obj = obj.next {
			n++
			if n > r.residents || obj.region != r || obj.Offset < end ||
				obj.Offset > r.used || obj.Size > r.used-obj.Offset {
				ok = false
				break
			}
			end = obj.Offset + obj.Size
		}
		if !ok || n != r.residents {
			bad = append(bad, r.id)
		}
	}
	return bad
}
