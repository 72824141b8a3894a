package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoSingleFlight(t *testing.T) {
	var c memo[int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, 50)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.get("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var c memo[int]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.get("k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute retried %d times, want 1", calls)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var c memo[string]
	a, _ := c.get("a", func() (string, error) { return "A", nil })
	b, _ := c.get("b", func() (string, error) { return "B", nil })
	if a != "A" || b != "B" {
		t.Fatalf("got %q/%q", a, b)
	}
}

// TestMemoNestedGet ensures a compute function may fetch another key from
// the same memo — the Run cache computes profiles through the profile
// cache this way.
func TestMemoNestedGet(t *testing.T) {
	var c memo[int]
	v, err := c.get("outer", func() (int, error) {
		inner, err := c.get("inner", func() (int, error) { return 2, nil })
		return inner * 10, err
	})
	if err != nil || v != 20 {
		t.Fatalf("got %d, %v", v, err)
	}
}

// TestMemoForgetsStopped checks that a computation stopped before it
// started is not cached: the next get of the key computes it.
func TestMemoForgetsStopped(t *testing.T) {
	var c memo[int]
	if _, err := c.get("k", func() (int, error) { return 0, fmt.Errorf("wrapped: %w", errStopped) }); !errors.Is(err, errStopped) {
		t.Fatalf("err = %v, want errStopped", err)
	}
	v, err := c.get("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("got %d, %v after a stopped computation, want 3", v, err)
	}
}
