package heap

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// ownedChunks counts the index chunks a heap holds, in use or spare.
func ownedChunks(h *Heap) int {
	n := len(h.objects.spare)
	for _, c := range h.objects.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// indexModel is the map the serial-chunked index replaced: resident
// objects by id, plus edge multiplicities by endpoint ids.
type indexModel struct {
	objs  map[ObjectID]*Object
	edges map[[2]ObjectID]int
}

// TestObjectIndexVsMapModel drives random Allocate/Remove/Link/Unlink by id
// against a map model. Link and Unlink see live ids, stale ids (including
// the old ids of structs a later allocation recycled), ids past the serial
// counter and the never-allocated serial 0; bursts fill several chunks and
// drain them so emptied chunks go to the spare list and come back; and a
// sweep walks a run of objects across a chunk boundary. The object count and
// every lookup must match the model after every operation, and Verify must
// hold throughout.
func TestObjectIndexVsMapModel(t *testing.T) {
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	m := indexModel{objs: map[ObjectID]*Object{}, edges: map[[2]ObjectID]int{}}
	var resident []*Object // model order, for random picks
	var stale []ObjectID   // ids of removed objects
	var cur *Region

	alloc := func() *Object {
		t.Helper()
		size := uint32(16 + rng.Intn(64))
		if cur == nil || cur.Used()+size > h.Config().RegionSize {
			if cur, err = h.NewRegion(Young); err != nil {
				t.Fatal(err)
			}
		}
		obj, err := h.Allocate(cur, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.objs[obj.ID] != nil {
			t.Fatalf("id %#x allocated twice", uint64(obj.ID))
		}
		m.objs[obj.ID] = obj
		resident = append(resident, obj)
		return obj
	}
	remove := func(i int) {
		t.Helper()
		obj := resident[i]
		id := obj.ID
		for k := range m.edges {
			if k[0] == id || k[1] == id {
				delete(m.edges, k)
			}
		}
		h.Remove(obj)
		delete(m.objs, id)
		stale = append(stale, id)
		resident[i] = resident[len(resident)-1]
		resident = resident[:len(resident)-1]
	}
	// pickID returns an id of any kind the index must answer for.
	pickID := func() ObjectID {
		switch r := rng.Intn(10); {
		case r < 7 && len(resident) > 0:
			return resident[rng.Intn(len(resident))].ID
		case r < 9 && len(stale) > 0:
			return stale[rng.Intn(len(stale))]
		case r < 9:
			return ObjectID(h.idCounter + 1 + uint64(rng.Intn(3*objChunkLen)))
		default:
			return 0
		}
	}
	check := func(step int) {
		t.Helper()
		if got := h.Stats().Objects; got != len(m.objs) {
			t.Fatalf("step %d: Stats().Objects = %d, model holds %d", step, got, len(m.objs))
		}
		if step%97 == 0 {
			if err := h.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	link := func(step int, p, c ObjectID) {
		t.Helper()
		err := h.Link(p, c)
		known := m.objs[p] != nil && m.objs[c] != nil
		if known != (err == nil) {
			t.Fatalf("step %d: Link(%#x, %#x) = %v, model knows both: %v", step, uint64(p), uint64(c), err, known)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "unknown endpoint") {
				t.Fatalf("step %d: Link error %q lacks \"unknown endpoint\"", step, err)
			}
			return
		}
		m.edges[[2]ObjectID{p, c}]++
	}
	unlink := func(step int, p, c ObjectID) {
		t.Helper()
		err := h.Unlink(p, c)
		known := m.objs[p] != nil && m.objs[c] != nil
		k := [2]ObjectID{p, c}
		switch {
		case !known:
			if err == nil || !strings.Contains(err.Error(), "unknown endpoint") {
				t.Fatalf("step %d: Unlink(%#x, %#x) with an unknown endpoint = %v", step, uint64(p), uint64(c), err)
			}
		case m.edges[k] == 0:
			if err == nil {
				t.Fatalf("step %d: Unlink of an absent edge succeeded", step)
			}
		default:
			if err != nil {
				t.Fatalf("step %d: Unlink: %v", step, err)
			}
			if m.edges[k]--; m.edges[k] == 0 {
				delete(m.edges, k)
			}
		}
	}

	step := 0
	spareSeen := false
	for round := 0; round < 6; round++ {
		// A burst of about two chunks of serials with graph churn.
		for i := 0; i < 2*objChunkLen; i++ {
			step++
			switch r := rng.Intn(10); {
			case r < 5 || len(resident) == 0:
				alloc()
			case r < 7:
				remove(rng.Intn(len(resident)))
			case r < 9:
				link(step, pickID(), pickID())
			default:
				unlink(step, pickID(), pickID())
			}
			check(step)
		}
		// Drain all but a few residents: whole chunks empty out.
		for len(resident) > 8 {
			step++
			remove(rng.Intn(len(resident)))
			check(step)
		}
		if len(h.objects.spare) > 0 {
			spareSeen = true
		}
	}
	if !spareSeen {
		t.Fatal("no chunk emptied out during the drains")
	}
	// Every chunk the heap holds is in use or spare: the bursts reused
	// emptied chunks instead of allocating one per range of serials.
	if owned, ranges := ownedChunks(h), int(h.idCounter>>objChunkBits)+1; owned >= ranges {
		t.Fatalf("heap holds %d chunks for %d serial ranges: emptied chunks were not reused", owned, ranges)
	}

	// A recycled struct answers to its new id only.
	victim := resident[0]
	old := victim.ID
	remove(0)
	again := alloc()
	if again != victim {
		t.Fatal("the freelist did not hand back the removed struct")
	}
	if h.objects.get(old) != nil || h.objects.get(again.ID) != again {
		t.Fatal("a recycled struct is indexed under its old id")
	}
	link(step, old, again.ID)

	// Sweep across a chunk boundary: allocate up to a few serials past the
	// next multiple of the chunk length, chain the run together by id,
	// then tear it down from the front.
	for h.idCounter%objChunkLen != objChunkLen-4 {
		alloc()
	}
	var run []*Object
	for i := 0; i < 8; i++ {
		run = append(run, alloc())
	}
	if run[0].ID>>objChunkBits == run[7].ID>>objChunkBits {
		t.Fatal("the sweep does not cross a chunk boundary")
	}
	for i := 0; i+1 < len(run); i++ {
		step++
		link(step, run[i].ID, run[i+1].ID)
	}
	for _, obj := range run {
		step++
		for i := range resident {
			if resident[i] == obj {
				remove(i)
				break
			}
		}
		check(step)
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range resident {
		if h.objects.get(obj.ID) != obj {
			t.Fatalf("%v lost from the index", obj)
		}
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateCycleKeepsIndexChunks runs the churn of the gc package's
// BenchmarkSteadyStateGCCycle (a rooted working set, then eden bursts of
// 2048 objects that die) and requires the index to take no chunk once
// warm: every emptied chunk comes back from the spare list. A cycle whose
// serials straddle a chunk boundary empties two chunks at once, so a spare
// list capped at one chunk drops one of them and takes a fresh 32 KiB chunk
// every other cycle; the host bytes the warm cycles allocate show that.
func TestSteadyStateCycleKeepsIndexChunks(t *testing.T) {
	h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	old, err := h.NewRegion(GenID(1))
	if err != nil {
		t.Fatal(err)
	}
	retained := make([]*Object, 512)
	for i := range retained {
		if retained[i], err = h.Allocate(old, 512, 1); err != nil {
			t.Fatal(err)
		}
		h.PinRoot(retained[i])
	}
	eden := make([]*Object, 0, 2048)
	cycle := func() {
		r, err := h.NewRegion(Young)
		if err != nil {
			t.Fatal(err)
		}
		eden = eden[:0]
		for i := 0; i < cap(eden); i++ {
			obj, err := h.Allocate(r, 256, 2)
			if err != nil {
				t.Fatal(err)
			}
			eden = append(eden, obj)
		}
		for _, obj := range eden {
			h.Remove(obj)
		}
		h.FreeRegion(r)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	warm := ownedChunks(h)
	const cycles = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got := ownedChunks(h); got != warm || warm > 3 {
		t.Fatalf("heap holds %d index chunks after %d cycles, %d once warm (want at most 3)", got, cycles, warm)
	}
	// A cycle allocates a Region struct and, every few cycles, a longer
	// chunk table: a few hundred bytes, far below one chunk.
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle > uint64(unsafe.Sizeof(objChunk{}))/8 {
		t.Fatalf("a warm cycle allocates %d host bytes: it takes index chunks", perCycle)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnKeepsIndexTableShort allocates 256 chunks' worth of serials
// with at most one object live at a time. The table drops its leading
// empty chunks, so it spans at most the chunk of the live object and the
// next one, and once warm the churn allocates no host memory: neither a
// chunk nor a longer chunk table.
func TestChurnKeepsIndexTableShort(t *testing.T) {
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.NewRegion(Young)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Object
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if r.Used()+16 > h.Config().RegionSize {
				if prev != nil {
					h.Remove(prev)
					prev = nil
				}
				h.FreeRegion(r)
				if r, err = h.NewRegion(Young); err != nil {
					t.Fatal(err)
				}
			}
			obj, err := h.Allocate(r, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				h.Remove(prev)
			}
			prev = obj
			if len(h.objects.chunks) > 2 {
				t.Fatalf("serial %d: index table spans %d chunks with one object live", obj.ID, len(h.objects.chunks))
			}
		}
	}
	churn(4 * objChunkLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(252 * objChunkLen)
	runtime.ReadMemStats(&after)
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	// Each filled region is a new Region struct; the index adds nothing.
	regions := uint64(252*objChunkLen*16) / uint64(h.Config().RegionSize)
	if perRegion := (after.TotalAlloc - before.TotalAlloc) / regions; perRegion > uint64(unsafe.Sizeof(Region{}))*2 {
		t.Fatalf("the churn allocates %d host bytes per region filled", perRegion)
	}
	if got := h.objects.base; got != h.idCounter>>objChunkBits {
		t.Fatalf("index table starts at chunk %d, the live object is in chunk %d", got, h.idCounter>>objChunkBits)
	}
}

// TestVerifyFlagsCorruption breaks each fact Verify checks, one at a time,
// on a heap holding a hub with a position index, a removed object, a
// spare chunk and a freed edge block, and requires Verify to name it.
func TestVerifyFlagsCorruption(t *testing.T) {
	type fixture struct {
		h           *Heap
		hub, child  *Object // child is on the hub's spill
		gone        *Object // removed; its struct is on the freelist
		goneSlot    int     // gone's slot in chunk, now empty
		chunk, last int     // the hub's chunk and the index's last chunk
	}
	cases := []struct {
		name    string
		want    string
		corrupt func(f fixture)
	}{
		{"count drifts", "counts", func(f fixture) { f.h.objects.live[f.chunk]++ }},
		{"count table short", "counts", func(f fixture) { f.h.objects.live = f.h.objects.live[:f.last] }},
		{"dropped chunk still counted", "is gone", func(f fixture) {
			f.h.objects.live = append(f.h.objects.live, 1)
			f.h.objects.chunks = append(f.h.objects.chunks, nil)
		}},
		{"removed object indexed", "removed", func(f fixture) {
			f.h.objects.chunks[f.chunk][f.goneSlot] = f.gone
			f.h.objects.live[f.chunk]++
			f.h.objects.n++
		}},
		{"object off its serial", "not its own", func(f fixture) {
			c := f.h.objects.chunks[f.chunk]
			s := f.hub.ID & (objChunkLen - 1)
			c[s], c[s+1] = c[s+1], c[s]
		}},
		{"empty chunk kept", "not on the freelist", func(f fixture) {
			f.h.objects.chunks = append(f.h.objects.chunks, new(objChunk))
			f.h.objects.live = append(f.h.objects.live, 0)
		}},
		{"base drifts", "not its own", func(f fixture) { f.h.objects.base++ }},
		{"table starts empty", "index table spans", func(f fixture) {
			x := &f.h.objects
			x.chunks = append([]*objChunk{nil}, x.chunks...)
			x.live = append([]int32{0}, x.live...)
			x.base--
		}},
		{"table runs past the counter", "index table spans", func(f fixture) {
			f.h.objects.chunks = append(f.h.objects.chunks, nil)
			f.h.objects.live = append(f.h.objects.live, 0)
		}},
		{"object count drifts", "index counts", func(f fixture) { f.h.objects.n++ }},
		{"spare chunk holds an object", "spare", func(f fixture) { f.h.objects.spare[0][5] = f.hub }},
		{"resident unindexed", "missing from the index", func(f fixture) {
			f.h.objects.remove(f.child.ID)
		}},
		{"index entry moved", "does not map", func(f fixture) {
			// To an empty slot past the end of its probe run.
			b := f.hub.refs.blk
			i := b.idxSlot(f.child)
			j := (i + 1) & (len(b.idx) - 1)
			for b.idx[j] != 0 {
				j = (j + 1) & (len(b.idx) - 1)
			}
			b.idx[i], b.idx[j] = 0, b.idx[i]
		}},
		{"index entry past the spill", "past the", func(f fixture) {
			b := f.hub.refs.blk
			b.idx[b.idxSlot(f.child)] = int32(len(b.spill) + 1)
		}},
		{"extra index entry", "entries for", func(f fixture) {
			b := f.hub.refs.blk
			for i := range b.idx {
				if b.idx[i] == 0 {
					b.idx[i] = 1
					break
				}
			}
		}},
		{"index over half full", "slots for", func(f fixture) {
			b := f.hub.refs.blk
			b.idx = b.idx[:len(b.idx)/4]
		}},
		{"in-edge index broken", "in-edges", func(f fixture) {
			b := f.hub.in.blk
			b.idx[b.idxSlot(f.child)] = 0
		}},
		{"free block keeps edges", "free edge block holds", func(f fixture) {
			f.h.blockFree[0].inline[0] = edgeRef{obj: f.hub, n: 1}
		}},
		{"free block keeps index entries", "keeps index entries", func(f fixture) {
			f.h.blockFree[0].idx[3] = 1
		}},
	}
	build := func(t *testing.T) fixture {
		t.Helper()
		h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		r := mustRegion(t, h, Young)
		hub := mustAlloc(t, h, r, 64)
		gone := mustAlloc(t, h, r, 64)
		var children []*Object
		for i := 0; i < 3*edgeIdxThreshold; i++ {
			children = append(children, mustAlloc(t, h, r, 64))
		}
		for _, c := range children {
			if err := h.Link(hub.ID, c.ID); err != nil {
				t.Fatal(err)
			}
			// Each child references the hub back, so the hub's
			// in-edges are indexed too.
			if err := h.Link(c.ID, hub.ID); err != nil {
				t.Fatal(err)
			}
		}
		// A second hub, removed, leaves a block with an index on the
		// freelist.
		dead := mustAlloc(t, h, r, 64)
		for _, c := range children {
			if err := h.Link(dead.ID, c.ID); err != nil {
				t.Fatal(err)
			}
		}
		h.Remove(dead)
		// A chunk's worth of serials that die leaves a spare chunk.
		for i := 0; i < objChunkLen; i++ {
			h.Remove(mustAlloc(t, h, r, 16))
		}
		goneSlot := int(gone.ID & (objChunkLen - 1))
		h.Remove(gone)
		if len(h.objects.spare) == 0 || len(h.blockFree) == 0 {
			t.Fatal("fixture holds no spare chunk or free block")
		}
		if err := h.Verify(); err != nil {
			t.Fatalf("intact heap flagged: %v", err)
		}
		return fixture{h: h, hub: hub, child: children[len(children)/2], gone: gone, goneSlot: goneSlot,
			chunk: int(uint64(hub.ID)>>objChunkBits - h.objects.base), last: len(h.objects.chunks) - 1}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := build(t)
			tc.corrupt(f)
			err := f.h.Verify()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
