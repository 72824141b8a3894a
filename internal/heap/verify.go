package heap

import "fmt"

// Verify checks the heap's id-addressed structures against its resident
// lists and returns the first disagreement, or nil:
//
//   - every resident of an active region is in the object index exactly at
//     its id;
//   - the index's table starts at a non-empty chunk and ends by the last
//     serial's;
//   - each index chunk's live count equals its non-nil slots, no chunk is
//     kept empty, the counts sum to the number of residents, and spare
//     chunks hold nothing;
//   - no removed Object is indexed;
//   - every edge block with a position index maps each spill child to its
//     position, holds no other entry and is at most half full, and blocks
//     on the freelist are cleared.
//
// It walks the whole heap; tests and the collector torture run it after
// every collection, next to CheckRemsetInvariant and CheckPageInvariant.
func (h *Heap) Verify() error {
	x := &h.objects
	if len(x.live) != len(x.chunks) {
		return fmt.Errorf("heap: index has %d chunks but %d counts", len(x.chunks), len(x.live))
	}
	total := 0
	for k, c := range x.chunks {
		if c == nil {
			if x.live[k] != 0 {
				return fmt.Errorf("heap: index chunk %d is gone but counts %d objects", x.base+uint64(k), x.live[k])
			}
			continue
		}
		n := int32(0)
		for i, obj := range c {
			if obj == nil {
				continue
			}
			n++
			id := ObjectID((x.base+uint64(k))<<objChunkBits | uint64(i))
			if obj.region == nil {
				return fmt.Errorf("heap: removed %v indexed at id %d", obj, id)
			}
			if obj.ID != id {
				return fmt.Errorf("heap: %v indexed at id %d, not its own", obj, id)
			}
		}
		if n != x.live[k] {
			return fmt.Errorf("heap: index chunk %d counts %d objects but holds %d", x.base+uint64(k), x.live[k], n)
		}
		if n == 0 {
			return fmt.Errorf("heap: empty index chunk %d not on the freelist", x.base+uint64(k))
		}
		total += int(n)
	}
	end := x.base + uint64(len(x.chunks)) - 1
	if len(x.chunks) > 0 && (x.chunks[0] == nil || end > h.idCounter>>objChunkBits) {
		return fmt.Errorf("heap: index table spans chunks %d to %d; it must start non-empty and end by chunk %d", x.base, end, h.idCounter>>objChunkBits)
	}
	if total != x.n {
		return fmt.Errorf("heap: index counts %d objects but its chunks hold %d", x.n, total)
	}
	for j, c := range x.spare {
		for _, obj := range c {
			if obj != nil {
				return fmt.Errorf("heap: spare index chunk %d holds %v", j, obj)
			}
		}
	}

	residents := 0
	for _, r := range h.active {
		for obj := r.head; obj != nil; obj = obj.next {
			residents++
			if x.get(obj.ID) != obj {
				return fmt.Errorf("heap: resident %v missing from the index", obj)
			}
			if err := obj.refs.verify(); err != nil {
				return fmt.Errorf("heap: out-edges of %v: %w", obj, err)
			}
			if err := obj.in.verify(); err != nil {
				return fmt.Errorf("heap: in-edges of %v: %w", obj, err)
			}
		}
	}
	if residents != x.n {
		return fmt.Errorf("heap: %d residents but %d indexed objects", residents, x.n)
	}
	for _, b := range h.blockFree {
		if len(b.spill) != 0 || b.inline != ([edgeInlineCap - 1]edgeRef{}) {
			return fmt.Errorf("heap: free edge block holds edges")
		}
		for _, v := range b.idx {
			if v != 0 {
				return fmt.Errorf("heap: free edge block keeps index entries")
			}
		}
	}
	return nil
}

// VerifyLive checks that every object live lists is still resident and
// marked: in an active region, indexed at its id, and not recycled since
// the trace. A collection removes only unmarked objects, so this holds at
// the end of every cycle, and MarkNoNeedPages, which reads each live
// object's current region, relies on it. It returns the first object that
// breaks it, or nil.
func (h *Heap) VerifyLive(live *LiveSet) error {
	for _, obj := range live.objs {
		if obj.region == nil || obj.region.freed || !live.Marked(obj) || h.objects.get(obj.ID) != obj {
			return fmt.Errorf("heap: live %v is no longer resident", obj)
		}
	}
	return nil
}

// verify checks the set's position index, if it has one, against its
// spill.
func (s *edgeSet) verify() error {
	b := s.blk
	if b == nil || b.idx == nil {
		return nil
	}
	if n := len(b.idx); n&(n-1) != 0 || 2*len(b.spill) > n {
		return fmt.Errorf("index of %d slots for %d spill edges", n, len(b.spill))
	}
	used := 0
	for _, v := range b.idx {
		if v == 0 {
			continue
		}
		used++
		if int(v) > len(b.spill) {
			return fmt.Errorf("index entry %d past the %d spill edges", v-1, len(b.spill))
		}
	}
	if used != len(b.spill) {
		return fmt.Errorf("index holds %d entries for %d spill edges", used, len(b.spill))
	}
	for i := range b.spill {
		slot := b.idxSlot(b.spill[i].obj)
		if slot < 0 || int(b.idx[slot]) != i+1 {
			return fmt.Errorf("index does not map %v to spill position %d", b.spill[i].obj, i)
		}
	}
	return nil
}
