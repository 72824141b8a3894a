package c4

import (
	"testing"
	"time"

	"polm2/internal/heap"
	"polm2/internal/simclock"
)

func testConfig() Config {
	return Config{
		Heap: heap.Config{
			RegionSize: 16 * 1024,
			PageSize:   4096,
			MaxBytes:   32 * 16 * 1024,
		},
	}
}

func TestRequiresMaxBytes(t *testing.T) {
	cfg := testConfig()
	cfg.Heap.MaxBytes = 0
	if _, err := New(simclock.New(), cfg); err == nil {
		t.Fatal("C4 without MaxBytes should fail")
	}
}

func TestAllPausesUnder10ms(t *testing.T) {
	c, err := New(simclock.New(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.Heap()
	var keep []*heap.Object
	for i := 0; i < 3000; i++ {
		obj, err := c.Allocate(512, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			h.PinRoot(obj)
			keep = append(keep, obj)
			if len(keep) > 100 {
				old := keep[0]
				keep = keep[1:]
				h.UnpinRoot(old)
			}
		}
	}
	pauses := c.Pauses()
	if len(pauses) == 0 {
		t.Fatal("no concurrent cycles ran")
	}
	for _, p := range pauses {
		if p.Duration >= 10*time.Millisecond {
			t.Fatalf("C4 pause %v >= 10ms", p.Duration)
		}
	}
}

func TestMutatorFactorAboveOne(t *testing.T) {
	c, err := New(simclock.New(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f := c.MutatorFactor(); f <= 1.0 {
		t.Fatalf("C4 mutator factor = %v, want > 1 (barrier tax)", f)
	}
}

func TestPreReservedBytes(t *testing.T) {
	cfg := testConfig()
	c, err := New(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PreReservedBytes(); got != cfg.Heap.MaxBytes {
		t.Fatalf("PreReservedBytes = %d, want %d", got, cfg.Heap.MaxBytes)
	}
}

func TestCycleReclaimsGarbage(t *testing.T) {
	c, err := New(simclock.New(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Allocate(512, 1, heap.Young); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if got := c.Heap().Stats().Objects; got != 0 {
		t.Fatalf("garbage survived a cycle: %d objects", got)
	}
}

func TestCompactionPreservesLiveObjects(t *testing.T) {
	c, err := New(simclock.New(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.Heap()
	var keep []*heap.Object
	for i := 0; i < 500; i++ {
		obj, err := c.Allocate(512, 1, heap.Young)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			h.PinRoot(obj)
			keep = append(keep, obj)
		}
	}
	if err := c.ForceCollect(); err != nil {
		t.Fatal(err)
	}
	for _, obj := range keep {
		if obj.Region() == nil {
			t.Fatal("cycle lost a live object")
		}
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken: %v", bad)
	}
}
