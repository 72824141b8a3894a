package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestZeroValueStartsAtZero(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v, want 5ms", got)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); got != 3*time.Second+5*time.Millisecond {
		t.Fatalf("Now() = %v, want 3.005s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(10 * time.Millisecond)
	if got := c.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("AdvanceTo past instant moved clock to %v", got)
	}
	if got := c.AdvanceTo(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("AdvanceTo future instant = %v, want 20ms", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(goroutines*perG) * time.Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("concurrent Advance lost updates: Now() = %v, want %v", got, want)
	}
}
