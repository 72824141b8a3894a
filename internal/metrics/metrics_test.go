package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Len() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSamplePercentileNearestRank(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{5, 1, 4, 2, 3} { // unsorted on purpose
		s.Add(v * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{20, 1 * time.Millisecond},
		{40, 2 * time.Millisecond},
		{50, 3 * time.Millisecond},
		{90, 5 * time.Millisecond},
		{100, 5 * time.Millisecond},
		{1, 1 * time.Millisecond},
	}
	for _, tc := range tests {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSamplePercentileBoundsPanic(t *testing.T) {
	for _, p := range []float64{0, -1, 100.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			var s Sample
			s.Add(time.Millisecond)
			s.Percentile(p)
		}()
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(10 * time.Millisecond)
	if s.Max() != 10*time.Millisecond {
		t.Fatal("Max before second Add wrong")
	}
	s.Add(20 * time.Millisecond)
	if got := s.Max(); got != 20*time.Millisecond {
		t.Fatalf("Max after interleaved Add = %v, want 20ms", got)
	}
}

// TestSampleConcurrentReads queries one finished sample from several
// goroutines at once, as the bench renderers do with a cached run's pause
// sample. The queries must only read; the race detector fails the test if
// one of them writes.
func TestSampleConcurrentReads(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{9, 3, 7, 1, 8, 2, 6, 4, 5} {
		s.Add(v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Percentile(50); got != 5 {
				t.Errorf("Percentile(50) = %v, want 5", got)
			}
			if got := s.Max(); got != 9 {
				t.Errorf("Max = %v, want 9", got)
			}
			if got := s.Values(); got[0] != 1 || got[len(got)-1] != 9 {
				t.Errorf("Values = %v, not in order", got)
			}
		}()
	}
	wg.Wait()
}

func TestSampleSumMean(t *testing.T) {
	var s Sample
	s.Add(2 * time.Millisecond)
	s.Add(4 * time.Millisecond)
	if s.Sum() != 6*time.Millisecond {
		t.Fatalf("Sum = %v, want 6ms", s.Sum())
	}
	if s.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v, want 3ms", s.Mean())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestSamplePercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(time.Duration(v) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return s.Percentile(100) == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Values() is sorted and preserves multiset membership.
func TestSampleValuesSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Sample
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		vals := s.Values()
		if len(vals) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEdgesValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("NewHistogram(nil) should fail")
	}
	if _, err := NewHistogram([]time.Duration{2, 2}); err == nil {
		t.Error("non-increasing edges should fail")
	}
	if _, err := NewHistogram([]time.Duration{3, 1}); err == nil {
		t.Error("decreasing edges should fail")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0)
	h.Add(9 * time.Millisecond)
	h.Add(10 * time.Millisecond) // boundary goes to the upper bucket
	h.Add(99 * time.Millisecond)
	h.Add(100 * time.Millisecond)
	h.Add(time.Second)
	want := []int{2, 2, 2}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts() = %v, want %v", got, want)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("Total() = %d, want 6", h.Total())
	}
}

func TestHistogramLabels(t *testing.T) {
	h, err := NewHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d, want 3", h.NumBuckets())
	}
	wants := []string{"[0,10ms)", "[10ms,100ms)", "[100ms,+inf)"}
	for i, w := range wants {
		if got := h.BucketLabel(i); got != w {
			t.Errorf("BucketLabel(%d) = %q, want %q", i, got, w)
		}
	}
}

// Property: histogram total always equals the number of Adds, regardless of
// the values' relationship to the edges.
func TestHistogramTotalProperty(t *testing.T) {
	edges := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	f := func(raw []int64) bool {
		h, err := NewHistogram(edges)
		if err != nil {
			return false
		}
		for _, v := range raw {
			if v < 0 {
				v = -v
			}
			h.Add(time.Duration(v))
		}
		return h.Total() == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesValidation(t *testing.T) {
	if _, err := NewTimeSeries(0); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewTimeSeries(-time.Second); err == nil {
		t.Error("negative width should fail")
	}
}

func TestTimeSeriesRecordAndSlice(t *testing.T) {
	ts, err := NewTimeSeries(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts.Record(0, 3)
	ts.Record(999*time.Millisecond, 1)
	ts.Record(1*time.Second, 5)
	ts.Record(4*time.Second, 2)
	want := []int64{4, 5, 0, 0, 2}
	got := ts.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Buckets() = %v, want %v", got, want)
		}
	}
	slice := ts.Slice(1*time.Second, 7*time.Second)
	wantSlice := []int64{5, 0, 0, 2, 0, 0}
	for i := range wantSlice {
		if slice[i] != wantSlice[i] {
			t.Fatalf("Slice() = %v, want %v", slice, wantSlice)
		}
	}
}

func TestTimeSeriesNegativeInstantPanics(t *testing.T) {
	ts, err := NewTimeSeries(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Record at negative instant did not panic")
		}
	}()
	ts.Record(-time.Second, 1)
}

// Property: the sum over all buckets equals the sum of recorded counts.
func TestTimeSeriesConservationProperty(t *testing.T) {
	f := func(instants []uint32, counts []uint8) bool {
		ts, err := NewTimeSeries(100 * time.Millisecond)
		if err != nil {
			return false
		}
		n := len(instants)
		if len(counts) < n {
			n = len(counts)
		}
		var want int64
		for i := 0; i < n; i++ {
			c := int64(counts[i])
			ts.Record(time.Duration(instants[i])*time.Microsecond, c)
			want += c
		}
		var got int64
		for _, b := range ts.Buckets() {
			got += b
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
