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
	h     *Heap
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

// Contains reports whether the object with the given id was reachable.
func (ls *LiveSet) Contains(id ObjectID) bool {
	obj := ls.h.objects[id]
	return obj != nil && obj.mark == ls.epoch
}

// Marked reports whether an already-resolved object was reachable, skipping
// the id lookup on hot collector paths.
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
	ls := &LiveSet{h: h, epoch: h.epoch}
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
func (h *Heap) MarkNoNeedPages(live *LiveSet) {
	for _, r := range h.active {
		rp := r.pages
		words := (rp.n + 63) / 64
		cv := h.noNeedCov
		if uint32(cap(cv)) < words {
			cv = newBitset(rp.n)
			h.noNeedCov = cv
		}
		cv = cv[:words]
		cv.clearAll()
		for obj := r.head; obj != nil; obj = obj.next {
			if !live.Marked(obj) {
				continue
			}
			first, last := obj.pageSpan(h.cfg.PageSize)
			for i := first; i <= last && i < rp.n; i++ {
				cv.set(i)
			}
		}
		for i := uint32(0); i < rp.n; i++ {
			if !cv.get(i) {
				rp.flags.noNeed.set(i)
			}
		}
	}
}

// Pages calls f for every page of every active region, in ascending
// (region, index) order. Freed regions are skipped: their memory is
// unmapped from the dumper's point of view.
//
// The HeaderIDs slice passed to f aliases the page table and is only valid
// for the duration of the callback: callers that keep header ids (the
// dumpers) must copy the slice. Ids appear in placement order, which is
// deterministic because the whole simulation is.
func (h *Heap) Pages(f func(PageState)) {
	for _, r := range h.active {
		rp := r.pages
		for i := uint32(0); i < rp.n; i++ {
			f(PageState{
				Key:       PageKey{Region: r.id, Index: i},
				Dirty:     rp.flags.dirty.get(i),
				NoNeed:    rp.flags.noNeed.get(i),
				HeaderIDs: rp.headers[i],
				Occupied:  rp.coverage[i] > 0,
			})
		}
	}
}

// ClearDirtyPages clears the dirty bit of every page of every active
// region. The Dumper calls this after completing a snapshot, exactly as
// CRIU resets the kernel soft-dirty bit (§4.2).
func (h *Heap) ClearDirtyPages() {
	for _, r := range h.active {
		r.pages.flags.dirty.clearAll()
	}
}

// ActiveRegionIDs returns the ids of all non-freed regions in ascending
// order. The returned slice is freshly allocated; callers (the dumpers'
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

// CheckPageInvariant recomputes every active region's page coverage and
// header lists from its residents and compares them with the incrementally
// maintained page tables, returning the regions that disagree in ascending
// order. Tests use it to validate the bookkeeping in
// Allocate/Evacuate/Remove.
func (h *Heap) CheckPageInvariant() []RegionID {
	var bad []RegionID
	for _, r := range h.active {
		rp := r.pages
		coverage := make([]uint16, rp.n)
		headers := make(map[uint32]map[ObjectID]struct{})
		for obj := r.head; obj != nil; obj = obj.next {
			first, last := obj.pageSpan(h.cfg.PageSize)
			for i := first; i <= last && i < rp.n; i++ {
				coverage[i]++
			}
			hp := obj.headerPage(h.cfg.PageSize)
			if headers[hp] == nil {
				headers[hp] = make(map[ObjectID]struct{})
			}
			headers[hp][obj.ID] = struct{}{}
		}
		ok := true
		for i := uint32(0); i < rp.n && ok; i++ {
			if coverage[i] != rp.coverage[i] {
				ok = false
			}
			if len(headers[i]) != len(rp.headers[i]) {
				ok = false
			}
			for _, hid := range rp.headers[i] {
				if _, present := headers[i][hid]; !present {
					ok = false
				}
			}
		}
		if !ok {
			bad = append(bad, r.id)
		}
	}
	return bad
}
