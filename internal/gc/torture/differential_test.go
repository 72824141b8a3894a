package torture

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"polm2/internal/gc"
	"polm2/internal/gc/c4"
	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/trace"
)

// replay runs one seeded mutation script against col. Every decision comes
// from the seed, never from the collector, so the same seed allocates the
// same object ids, roots the same objects and links the same edges under
// every collector. One in four allocations targets one of gens when gens
// is non-empty. After each forced collection replay records the sorted ids
// reachable from the roots, and for C4 — which sweeps every region it
// examines — requires the heap's residents to be exactly that set.
func replay(t *testing.T, col gc.Collector, seed int64, gens []heap.GenID) [][]heap.ObjectID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := col.Heap()
	type tracked struct {
		obj *heap.Object
		ttl int
	}
	var live []tracked
	var reachable [][]heap.ObjectID
	for step := 1; step <= 12000; step++ {
		pick, gen := rng.Intn(4), rng.Intn(3)
		target := heap.Young
		if len(gens) > 0 && pick == 0 {
			target = gens[gen]
		}
		size := uint32(32 + rng.Intn(2048))
		if rng.Intn(200) == 0 {
			size = uint32(17*1024 + rng.Intn(8*1024)) // humongous
		}
		obj, err := col.Allocate(size, heap.SiteID(rng.Intn(20)+1), target)
		if err != nil {
			t.Fatalf("%s: step %d: %v", col.Name(), step, err)
		}
		if rng.Intn(5) == 0 {
			h.PinRoot(obj)
			if len(live) > 0 && rng.Intn(2) == 0 {
				if err := h.Link(obj.ID, live[rng.Intn(len(live))].obj.ID); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, tracked{obj, 10 + rng.Intn(4000)})
		}
		if step%64 == 0 {
			kept := live[:0]
			for _, tr := range live {
				if tr.ttl -= 64; tr.ttl > 0 {
					kept = append(kept, tr)
				} else {
					h.UnpinRoot(tr.obj)
				}
			}
			live = kept
		}
		if step%1500 != 0 {
			continue
		}
		if err := col.ForceCollect(); err != nil {
			t.Fatalf("%s: forced collection: %v", col.Name(), err)
		}
		ids := h.Trace().IDs()
		reachable = append(reachable, ids)
		if _, ok := col.(*c4.Collector); ok {
			var residents []heap.ObjectID
			for _, r := range h.ActiveRegions() {
				for obj := r.FirstResident(); obj != nil; obj = obj.NextResident() {
					residents = append(residents, obj.ID)
				}
			}
			slices.Sort(residents)
			if !slices.Equal(residents, ids) {
				t.Fatalf("C4 after forced collection %d: %d residents, %d reachable", len(reachable), len(residents), len(ids))
			}
		}
	}
	return reachable
}

// subject is one collector configuration under the differential test.
type subject struct {
	name    string
	col     gc.Collector
	targets []heap.GenID
}

// subjects builds the four configurations the differential test compares:
// G1 (first, the reference), NG2C without and with pretenured targets, and
// C4. G1 and C4 get NG2C's dynamic generations as targets too and must
// ignore them.
func subjects(t *testing.T) []subject {
	t.Helper()
	heapCfg := heap.Config{RegionSize: 32 * 1024, PageSize: 4096, MaxBytes: 160 * 32 * 1024}
	cfg := ng2c.Config{Heap: heapCfg, YoungBytes: 8 * 32 * 1024}
	g1Col, err := ng2c.NewG1(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	young, err := ng2c.New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pret, err := ng2c.New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := []heap.GenID{pret.NewGeneration(), pret.NewGeneration(), pret.NewGeneration()}
	c4Col, err := c4.New(simclock.New(), c4.Config{Heap: heapCfg})
	if err != nil {
		t.Fatal(err)
	}
	return []subject{
		{"G1", g1Col, gens},
		{"NG2C-young", young, nil},
		{"NG2C-pretenured", pret, gens},
		{"C4", c4Col, gens},
	}
}

// TestCollectorsAgreeOnReachability is the cross-collector differential:
// one mutation script, four collectors, and after every forced collection
// the same reachable set under each. A collector that loses a live object,
// drops an edge while evacuating or resurrects a dead one disagrees with
// the others.
func TestCollectorsAgreeOnReachability(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		subs := subjects(t)
		want := replay(t, subs[0].col, seed, subs[0].targets)
		if len(want) == 0 || len(want[len(want)-1]) == 0 {
			t.Fatalf("seed %d: script left nothing reachable to compare", seed)
		}
		for _, s := range subs[1:] {
			got := replay(t, s.col, seed, s.targets)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s made %d checkpoints, G1 %d", seed, s.name, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("seed %d, forced collection %d: %s reaches %d objects, G1 %d",
						seed, i+1, s.name, len(got[i]), len(want[i]))
				}
			}
		}
	}
}

// TestPausePhasesSumToPause holds every traced pause of every collector to
// the trace's contract: its phase spans add up to the cycle span exactly.
func TestPausePhasesSumToPause(t *testing.T) {
	for _, s := range subjects(t) {
		replay(t, s.col, 7, s.targets)
		pauses := s.col.Pauses()
		var buf bytes.Buffer
		gc.TracePauses(trace.New(trace.Options{Writer: &buf}), gc.DefaultCostModel(), pauses)
		recs, err := trace.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cycles := 0
		for i := 0; i < len(recs); {
			cycle := recs[i]
			if cycle.Name != "cycle" {
				t.Fatalf("%s: record %d is %q, want a cycle span", s.name, i, cycle.Name)
			}
			var sum int64
			for i++; i < len(recs) && recs[i].Name == "phase"; i++ {
				sum += recs[i].Dur
			}
			if sum != cycle.Dur {
				t.Fatalf("%s: %s cycle %d: phases sum to %d ns, pause is %d ns",
					s.name, cycle.Str("gc_kind"), cycle.Int("cycle"), sum, cycle.Dur)
			}
			cycles++
		}
		if cycles == 0 || cycles != len(pauses) {
			t.Fatalf("%s: traced %d cycles of %d pauses", s.name, cycles, len(pauses))
		}
	}
}
