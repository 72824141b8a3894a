package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// This file extends the daemon-side registry beyond plain counters:
// labeled metric names, point-in-time gauges, and fixed-bucket latency
// histograms, all rendered into the same sorted text exposition the
// /metricsz endpoint has served since the daemon existed. The rendering is
// deliberately rigid — sorted family names, fixed bucket order, integer
// nanosecond sums — because the exposition format itself is pinned by a
// golden test: dashboards and scrape configs must never be broken by an
// accidental formatting drift.

// Label is one key="value" pair attached to a metric name.
type Label struct {
	Key   string
	Value string
}

// LabelName renders a metric name with labels, e.g.
//
//	LabelName("evidence_instances", Label{"app", "Cassandra"}, Label{"workload", "WI"})
//	// evidence_instances{app="Cassandra",workload="WI"}
//
// Labels are sorted by key so the same label set always produces the same
// name however the caller ordered it. Values are escaped (backslash,
// quote, newline) so arbitrary app/workload strings cannot corrupt the
// exposition.
func LabelName(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Gauge is a point-in-time value, safe for concurrent use. Unlike Counter
// it can move in both directions: the daemon uses gauges for fleet facts
// that shrink as well as grow (instances contributing evidence, ring
// occupancy). The zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyEdges are the bucket edges the daemon's request-latency
// histograms use: a coarse log scale from 100µs to 1s. Requests beyond the
// last edge land in the +Inf overflow bucket.
func DefaultLatencyEdges() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond,
		500 * time.Microsecond,
		time.Millisecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
	}
}

// LatencyHistogram counts duration observations into fixed buckets,
// lock-free on the observation path: the fleet path needs concurrent
// Observe and a stable text exposition. Bucket i holds the observations in
// (edge[i-1], edge[i]], closed above, as the exposition's le labels say.
//
// Rendering is cumulative, one line per bucket edge plus +Inf, then the
// observation count and the sum in integer nanoseconds:
//
//	name_bucket{le="1ms"} 3
//	...
//	name_bucket{le="+Inf"} 7
//	name_count 7
//	name_sum_ns 9876543
type LatencyHistogram struct {
	edges  []time.Duration
	counts []atomic.Uint64 // len(edges)+1; last is the +Inf overflow
	sum    atomic.Int64    // nanoseconds
}

func newLatencyHistogram(edges []time.Duration) (*LatencyHistogram, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("metrics: latency histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("metrics: latency histogram edges not strictly increasing at index %d (%v <= %v)",
				i, edges[i], edges[i-1])
		}
	}
	owned := make([]time.Duration, len(edges))
	copy(owned, edges)
	return &LatencyHistogram{
		edges:  owned,
		counts: make([]atomic.Uint64, len(edges)+1),
	}, nil
}

// Observe records one duration. Negative observations clamp to zero: a
// latency below zero is a clock bug upstream, and poisoning the histogram
// would hide rather than surface it.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.edges), func(i int) bool { return d <= h.edges[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the total observed duration.
func (h *LatencyHistogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// writeExposition renders the histogram family under name. Bucket counts
// are loaded once into a snapshot first: rendering must present a single
// cumulative view even while observations land concurrently.
func (h *LatencyHistogram) writeExposition(w *strings.Builder, name string) {
	snapshot := make([]uint64, len(h.counts))
	for i := range h.counts {
		snapshot[i] = h.counts[i].Load()
	}
	sum := h.sum.Load()
	var cum uint64
	for i, edge := range h.edges {
		cum += snapshot[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, edge, cum)
	}
	cum += snapshot[len(snapshot)-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum_ns %d\n", name, sum)
}
