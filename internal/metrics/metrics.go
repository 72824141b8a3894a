// Package metrics provides the measurement primitives used by the POLM2
// evaluation harness: exact percentile samples for pause-time distributions
// (Figure 5), fixed-interval histograms (Figure 6), and per-second time
// series (Figure 8).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Sample accumulates durations and answers exact order statistics over them.
// It is sized for GC pause logs (thousands of entries per run), where exact
// percentiles are affordable and remove estimator noise from the
// reproduction.
//
// Add keeps the observations in ascending order, so the queries only read
// and any number of goroutines may query a finished sample at once.
//
// The zero value is an empty sample ready for use.
type Sample struct {
	values []time.Duration
}

// Add inserts one observation in order.
func (s *Sample) Add(d time.Duration) {
	i := sort.Search(len(s.values), func(i int) bool { return s.values[i] > d })
	s.values = slices.Insert(s.values, i, d)
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Max returns the largest observation, or zero for an empty sample.
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

// Sum returns the total of all observations.
func (s *Sample) Sum() time.Duration {
	var total time.Duration
	for _, v := range s.values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean, or zero for an empty sample.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.Sum() / time.Duration(len(s.values))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, which matches how the paper reports pause
// percentiles. It returns zero for an empty sample and panics on a
// percentile outside (0, 100].
func (s *Sample) Percentile(p float64) time.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v outside (0, 100]", p))
	}
	if len(s.values) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.values))))
	if rank < 1 {
		rank = 1
	}
	return s.values[rank-1]
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []time.Duration {
	return slices.Clone(s.values)
}

// PaperPercentiles are the percentiles reported along the x-axis of the
// paper's Figure 5, in order.
var PaperPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// TimeSeries accumulates event counts into fixed-width time buckets. The
// benchmark harness uses one-second buckets to regenerate the
// transactions-per-second series of Figure 8.
type TimeSeries struct {
	width   time.Duration
	buckets []int64
}

// NewTimeSeries builds a series with the given bucket width.
func NewTimeSeries(width time.Duration) (*TimeSeries, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: time series bucket width must be positive, got %v", width)
	}
	return &TimeSeries{width: width}, nil
}

// Record adds n events at simulated instant t. Instants before zero panic;
// the simulation clock never goes negative, so such a call is a bug.
func (ts *TimeSeries) Record(t time.Duration, n int64) {
	if t < 0 {
		panic(fmt.Sprintf("metrics: time series record at negative instant %v", t))
	}
	idx := int(t / ts.width)
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += n
}

// Buckets returns a copy of the per-bucket totals.
func (ts *TimeSeries) Buckets() []int64 {
	out := make([]int64, len(ts.buckets))
	copy(out, ts.buckets)
	return out
}

// Slice returns the bucket totals covering [from, to), padding with zeros if
// the series ends before to.
func (ts *TimeSeries) Slice(from, to time.Duration) []int64 {
	if to < from {
		panic(fmt.Sprintf("metrics: time series slice [%v,%v) is inverted", from, to))
	}
	lo := int(from / ts.width)
	hi := int((to + ts.width - 1) / ts.width)
	out := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if i < len(ts.buckets) {
			out = append(out, ts.buckets[i])
		} else {
			out = append(out, 0)
		}
	}
	return out
}
