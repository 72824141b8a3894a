package heap

import "testing"

// FuzzEdgeStore drives Link/Unlink/Remove sequences on two hubs whose
// fan-out starts past edgeIdxThreshold, checking the edge stores against
// the map model (shadowGraph) and the order model after every sequence,
// and heap.Verify (which checks each position index against its spill).
// Half the child pool hashes to the last eight slots of a fresh 128-slot
// index, so the hubs' probe runs wrap around the table's end from the
// start and deletions shift entries back across it. Each input byte pair
// is one operation: the first byte picks the kind and the hub, the second
// the child.
func FuzzEdgeStore(f *testing.F) {
	f.Add([]byte{})
	// Unlink every initial child of hub 0, front to back: each deletion
	// lands in the wrapped run.
	var drain []byte
	for c := 0; c < 48; c++ {
		drain = append(drain, 1, byte(c))
	}
	f.Add(drain)
	// Grow hub 1 past the 128-slot index with the plain children, then
	// remove tail children (dropped from both hubs) and hub 0 itself.
	var grow []byte
	for c := 48; c < 96; c++ {
		grow = append(grow, 4, byte(c), 4, byte(c))
	}
	for c := 0; c < 48; c += 3 {
		grow = append(grow, 2, byte(c))
	}
	grow = append(grow, 3, 0, 0, 5, 0, 7, 0, 9)
	f.Add(grow)

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		r, err := h.NewRegion(Young)
		if err != nil {
			t.Fatal(err)
		}
		g := newShadowGraph()
		m := &orderModel{out: make(map[ObjectID]*orderSet), in: make(map[ObjectID]*orderSet)}
		byID := make(map[ObjectID]*Object)
		alloc := func() *Object {
			obj, err := h.Allocate(r, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			byID[obj.ID] = obj
			return obj
		}
		// fresh stands for a hub's freshly built index, to read homes off.
		fresh := &edgeBlock{idx: make([]int32, edgeIdxMinLen)}
		const tailHome = edgeIdxMinLen - 8
		var tail, plain []*Object
		for len(tail) < 48 || len(plain) < 48 {
			obj := alloc()
			if fresh.home(obj) >= tailHome {
				if len(tail) < 48 {
					tail = append(tail, obj)
				}
			} else if len(plain) < 48 {
				plain = append(plain, obj)
			}
		}
		children := append(tail, plain...)
		link := func(p, c *Object) {
			if err := h.Link(p.ID, c.ID); err != nil {
				t.Fatal(err)
			}
			g.link(p.ID, c.ID)
			m.link(p.ID, c.ID)
		}
		remove := func(obj *Object) {
			g.remove(obj.ID)
			m.remove(obj.ID)
			delete(byID, obj.ID)
			h.Remove(obj)
		}
		hubs := [2]*Object{alloc(), alloc()}
		for _, hub := range hubs {
			for _, c := range tail {
				link(hub, c)
			}
			idx := hub.refs.blk.idx
			if len(idx) != edgeIdxMinLen || idx[0] == 0 || idx[len(idx)-1] == 0 {
				t.Fatalf("hub's index of %d slots does not wrap around its end", len(idx))
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			hub := &hubs[ops[i]>>2&1]
			ci := int(ops[i+1]) % len(children)
			c := children[ci]
			switch ops[i] & 3 {
			case 0:
				link(*hub, c)
			case 1:
				err := h.Unlink((*hub).ID, c.ID)
				m.unlink((*hub).ID, c.ID)
				if g.unlink((*hub).ID, c.ID) != (err == nil) {
					t.Fatalf("op %d: Unlink = %v disagrees with the model", i/2, err)
				}
			case 2:
				remove(c)
				children[ci] = alloc()
			case 3:
				remove(*hub)
				*hub = alloc()
			}
		}

		for _, hub := range hubs {
			checkObject(t, hub, g, byID)
			checkOrder(t, hub, m)
		}
		for _, c := range children {
			checkObject(t, c, g, byID)
			checkOrder(t, c, m)
		}
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
		if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
			t.Fatalf("remset invariant broken in %v", bad)
		}
	})
}
