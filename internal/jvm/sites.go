package jvm

import "polm2/internal/heap"

// SiteTable interns allocation stack traces into heap.SiteIDs. The Recorder
// persists the table once per profiling run (§3.2: "allocation stack traces
// are only flushed to disk at the end of the application execution").
type SiteTable struct {
	traces []StackTrace // index = SiteID - 1
	// byHash keys every site by its path fingerprint, which the engine
	// keeps up to date on each frame so the hot allocation path never
	// rebuilds a stack trace. Fingerprints hash every frame and call line
	// with FNV-1a; a 64-bit collision between distinct traces of one run
	// is vanishingly unlikely and would only merge two profiling sites.
	byHash map[uint64]heap.SiteID
}

// NewSiteTable returns an empty site table.
func NewSiteTable() *SiteTable {
	return &SiteTable{byHash: make(map[uint64]heap.SiteID)}
}

// fingerprint hashes trace the way Thread.Call and Thread.Alloc build a
// path fingerprint frame by frame: each frame's (class, method) after the
// caller's call line, then the allocation line.
func fingerprint(trace StackTrace) uint64 {
	h := uint64(fnvOffset)
	for i, loc := range trace {
		if i > 0 {
			h = hashLine(h, trace[i-1].Line)
		}
		h = hashFrame(h, loc.Class, loc.Method)
	}
	if len(trace) > 0 {
		h = hashLine(h, trace[len(trace)-1].Line)
	}
	return h
}

// Intern returns the id for the given trace, assigning a fresh one on first
// sight. Ids start at 1; zero remains "unknown site".
func (t *SiteTable) Intern(trace StackTrace) heap.SiteID {
	key := fingerprint(trace)
	if id, ok := t.byHash[key]; ok {
		return id
	}
	return t.intern(key, trace)
}

// intern assigns a fresh id to trace, whose fingerprint key has no id yet.
func (t *SiteTable) intern(key uint64, trace StackTrace) heap.SiteID {
	t.traces = append(t.traces, trace.Clone())
	id := heap.SiteID(len(t.traces))
	t.byHash[key] = id
	return id
}

// Trace returns the stack trace for an id, or nil for an unknown id.
func (t *SiteTable) Trace(id heap.SiteID) StackTrace {
	if id == 0 || int(id) > len(t.traces) {
		return nil
	}
	return t.traces[id-1]
}

// Len returns the number of interned traces.
func (t *SiteTable) Len() int { return len(t.traces) }

// All returns every (id, trace) pair ordered by id.
func (t *SiteTable) All() []SiteEntry {
	out := make([]SiteEntry, len(t.traces))
	for i, tr := range t.traces {
		out[i] = SiteEntry{ID: heap.SiteID(i + 1), Trace: tr}
	}
	return out
}

// SiteEntry pairs a site id with its stack trace.
type SiteEntry struct {
	ID    heap.SiteID
	Trace StackTrace
}
