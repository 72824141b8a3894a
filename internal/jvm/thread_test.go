package jvm

import (
	"math/rand"
	"testing"

	"polm2/internal/heap"
)

// TestThreadPinsFollowFrames drives a seeded script of nested Enter, Call,
// Alloc, Return and ReleaseLocals against a reference model of the pin
// rule: each frame owns a list of pins, a returning frame hands its list
// to the caller, the last frame's return drops it, and ReleaseLocals drops
// the running frame's. After every step the heap must root exactly the
// objects the model holds, and the objects a step released must be roots
// no longer.
func TestThreadPinsFollowFrames(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vm := newVM(t)
		h := vm.Heap()
		th := vm.NewThread("t")
		var model [][]*heap.Object
		for step := 0; step < 3000; step++ {
			op, obj, err := scriptStep(rng, th)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			var released []*heap.Object
			switch op {
			case "Enter", "Call":
				model = append(model, nil)
			case "Alloc":
				model[len(model)-1] = append(model[len(model)-1], obj)
			case "Return":
				top := model[len(model)-1]
				model = model[:len(model)-1]
				if len(model) > 0 {
					model[len(model)-1] = append(model[len(model)-1], top...)
				} else {
					released = top
				}
			case "ReleaseLocals":
				released = model[len(model)-1]
				model[len(model)-1] = nil
			}

			pinned := 0
			for _, frame := range model {
				for _, obj := range frame {
					if !obj.IsRoot() {
						t.Fatalf("seed %d step %d (%s): %v is held by a frame but not rooted", seed, step, op, obj)
					}
					pinned++
				}
			}
			for _, obj := range released {
				if obj.IsRoot() {
					t.Fatalf("seed %d step %d (%s): released %v is still rooted", seed, step, op, obj)
				}
			}
			if got := h.RootCount(); got != pinned {
				t.Fatalf("seed %d step %d (%s): heap roots %d objects, frames hold %d", seed, step, op, got, pinned)
			}
			if th.Depth() != len(model) {
				t.Fatalf("seed %d step %d (%s): depth %d, model %d", seed, step, op, th.Depth(), len(model))
			}
		}
	}
}

// scriptStep runs one step of a seeded script of nested Enter, Call,
// Alloc, Return and ReleaseLocals on th, at most eight frames deep, and
// returns the step's name and, for Alloc, the new object.
func scriptStep(rng *rand.Rand, th *Thread) (string, *heap.Object, error) {
	switch r := rng.Intn(100); {
	case th.Depth() == 0 || (r < 3 && th.Depth() < 8):
		th.Enter("Main", "run")
		return "Enter", nil, nil
	case r < 25 && th.Depth() < 8:
		th.Call(1+rng.Intn(4), "C", "m")
		return "Call", nil, nil
	case r < 65:
		obj, err := th.Alloc(1+rng.Intn(4), uint32(16+rng.Intn(240)))
		return "Alloc", obj, err
	case r < 90:
		th.Return()
		return "Return", nil, nil
	default:
		th.ReleaseLocals()
		return "ReleaseLocals", nil, nil
	}
}

// TestSiteKeyFollowsFrames drives the same script and checks that the
// path fingerprint Call and Alloc build frame by frame is the one Intern
// computes from a whole trace: at every Alloc, interning the thread's
// trace returns the new object's site. Traces are also interned before
// the thread first allocates at them, and the thread's Alloc must then
// find the id Intern gave.
func TestSiteKeyFollowsFrames(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vm := newVM(t)
		sites := vm.Sites()
		th := vm.NewThread("t")
		allocated := make(map[heap.SiteID]bool)
		early := make(map[heap.SiteID]bool)
		found := 0
		for step := 0; step < 3000; step++ {
			if th.Depth() > 0 && rng.Intn(4) == 0 {
				// Intern a trace the thread may allocate at later.
				tr := th.Trace()
				tr[len(tr)-1].Line = 1 + rng.Intn(4)
				if id := sites.Intern(tr); !allocated[id] {
					early[id] = true
				}
			}
			op, obj, err := scriptStep(rng, th)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if op != "Alloc" {
				continue
			}
			if got := sites.Intern(th.Trace()); got != obj.Site {
				t.Fatalf("seed %d step %d: Intern(%v) = site %d, Alloc gave site %d", seed, step, th.Trace(), got, obj.Site)
			}
			if early[obj.Site] && !allocated[obj.Site] {
				found++
			}
			allocated[obj.Site] = true
		}
		if found == 0 {
			t.Fatalf("seed %d: no Alloc met a trace interned before it", seed)
		}
	}
}

// mutatorLoop runs n request-loop iterations: call a helper that
// allocates, return the object to the caller, then drop the caller's
// locals.
func mutatorLoop(tb testing.TB, th *Thread, n int) {
	for i := 0; i < n; i++ {
		th.Call(3, "Helper", "make")
		if _, err := th.Alloc(7, 16); err != nil {
			tb.Fatal(err)
		}
		th.Return()
		th.ReleaseLocals()
	}
}

// TestMutatorSteadyStateAllocatesNothing pins the host cost of the
// mutator's call path. Once young collections have warmed the heap's
// Object freelist, an iteration allocates nothing; the only host
// allocations left are a Region per 1024 iterations and a collection's
// bookkeeping per 8192, which AllocsPerRun's integer average reports as 0.
func TestMutatorSteadyStateAllocatesNothing(t *testing.T) {
	vm := newVM(t)
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	mutatorLoop(t, th, 20000)
	if vm.Heap().Stats().FreeObjects == 0 {
		t.Fatal("warm-up left the Object freelist empty; no young collection ran")
	}
	if got := testing.AllocsPerRun(10000, func() { mutatorLoop(t, th, 1) }); got != 0 {
		t.Fatalf("mutator iteration makes %v host allocations, want 0", got)
	}
}

func BenchmarkMutatorCallAlloc(b *testing.B) {
	vm := newVM(b)
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	mutatorLoop(b, th, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	mutatorLoop(b, th, b.N)
}
