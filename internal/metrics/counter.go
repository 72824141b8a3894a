package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The zero value is ready.
//
// Counters back the plan-distribution daemon's /metricsz endpoint; unlike
// the simulation-side Sample and TimeSeries types they count real
// (wall-clock-world) events, so they must be lock-free on the hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry names a set of counters, gauges and latency histograms and
// renders them as one text exposition sorted by metric name. A name
// identifies exactly one metric of one kind — re-registering it as a
// different kind panics, since two subsystems silently sharing "x" as a
// counter and a gauge is a programming error, not a runtime condition.
// The zero value is unusable; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LatencyHistogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*LatencyHistogram),
	}
}

// checkFree panics when name is already registered as a kind other than
// the one being requested (caller holds the lock).
func (r *Registry) checkFree(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use. Two calls
// with the same name return the same counter. Attach labels by building
// the name with LabelName.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		r.checkFree(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Attach labels
// by building the name with LabelName.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		r.checkFree(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it with the
// given bucket edges on first use (nil edges mean DefaultLatencyEdges).
// Later calls return the existing histogram; its edges are fixed at
// creation, and re-registering with different edges panics — a histogram
// whose buckets change shape mid-flight renders nonsense.
func (r *Registry) Histogram(name string, edges []time.Duration) *LatencyHistogram {
	if strings.ContainsAny(name, "{}") {
		panic(fmt.Sprintf("metrics: histogram name %q may not carry labels: the le bucket label owns the brace syntax", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		if edges != nil && !equalEdges(h.edges, edges) {
			panic(fmt.Sprintf("metrics: histogram %q re-registered with different edges", name))
		}
		return h
	}
	r.checkFree(name, "histogram")
	if edges == nil {
		edges = DefaultLatencyEdges()
	}
	h, err := newLatencyHistogram(edges)
	if err != nil {
		panic(err.Error()) // edges are compile-time literals at every call site
	}
	r.hists[name] = h
	return h
}

func equalEdges(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteTo renders the full exposition: every metric family sorted by name,
// counters and gauges as "name value" lines, histograms as cumulative
// bucket lines followed by _count and _sum_ns. The byte-level format is
// pinned by a golden test; see exposition.go.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.gauges {
		names = append(names, name)
	}
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(&b, "%s %d\n", name, r.counters[name].Value())
		case r.gauges[name] != nil:
			fmt.Fprintf(&b, "%s %d\n", name, r.gauges[name].Value())
		default:
			r.hists[name].writeExposition(&b, name)
		}
	}
	r.mu.Unlock()

	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
