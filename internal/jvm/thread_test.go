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
			var released []*heap.Object
			var op string
			switch r := rng.Intn(100); {
			case len(model) == 0 || (r < 3 && len(model) < 8):
				op = "Enter"
				th.Enter("Main", "run")
				model = append(model, nil)
			case r < 25 && len(model) < 8:
				op = "Call"
				th.Call(1+rng.Intn(4), "C", "m")
				model = append(model, nil)
			case r < 65:
				op = "Alloc"
				obj, err := th.Alloc(1+rng.Intn(4), uint32(16+rng.Intn(240)))
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				model[len(model)-1] = append(model[len(model)-1], obj)
			case r < 90:
				op = "Return"
				th.Return()
				top := model[len(model)-1]
				model = model[:len(model)-1]
				if len(model) > 0 {
					model[len(model)-1] = append(model[len(model)-1], top...)
				} else {
					released = top
				}
			default:
				op = "ReleaseLocals"
				th.ReleaseLocals()
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
