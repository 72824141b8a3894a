package analyzer

import (
	"fmt"
	"sort"

	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
)

// Estimator selects how a site's target generation is derived from its
// survival-count distribution.
type Estimator int

// Estimators. The paper uses the mode: "the number of collections that most
// objects allocated in a particular stack trace survive" (§3.3). The 90th
// percentile variant is an ablation.
const (
	EstimatorMode Estimator = iota + 1
	EstimatorP90
)

// siteEvidence is the per-site survival evidence assembled by replaying the
// snapshot sequence against the allocation records.
type siteEvidence struct {
	id    heap.SiteID
	trace jvm.StackTrace
	// traceString is trace.String(), rendered once when the site is first
	// seen; it becomes SiteStat.Trace.
	traceString string
	// survived[k] counts objects seen live in exactly k snapshots.
	survived []uint64
	total    uint64
	// tainted counts allocations whose evidence came from damaged
	// recordings (see SiteStat.Tainted).
	tainted uint64
}

// sortedSites returns the table's site ids in ascending order.
func sortedSites(table map[heap.SiteID]jvm.StackTrace) []heap.SiteID {
	siteIDs := make([]heap.SiteID, 0, len(table))
	for id := range table {
		siteIDs = append(siteIDs, id)
	}
	sort.Slice(siteIDs, func(i, j int) bool { return siteIDs[i] < siteIDs[j] })
	return siteIDs
}

// addSiteEvidence registers one site's recorded stream and returns the
// site's evidence.
func addSiteEvidence(idx *serialIndex, sid heap.SiteID, trace jvm.StackTrace, st recorder.Stream) *siteEvidence {
	ev := &siteEvidence{id: sid, trace: trace, traceString: trace.String(), total: uint64(st.Len())}
	idx.add(ev, st)
	return ev
}

// serialIndex maps recorded allocation serials (the ids as uint64s) to
// their sites: a profiling run's recorded serials are dense, so one slice
// over their window [lo, hi] replaces an id-to-site map. The survival
// counts live in the Replay.
type serialIndex struct {
	// sites lists the evidence in the order add saw it (ascending site
	// id: the evidence walk adds sites in that order); streams holds each
	// site's recorded stream until build indexes it.
	sites   []*siteEvidence
	streams []recorder.Stream
	// n counts the recorded ids, duplicates included; lo and hi bound
	// their serials.
	n, lo, hi uint64
	// site[s-lo] is the 1-based position in sites of the site that
	// recorded serial s, 0 if none did.
	site []uint32
}

// add registers one site's recorded stream, taking its count and serial
// bounds from the decode.
func (x *serialIndex) add(ev *siteEvidence, st recorder.Stream) {
	x.sites = append(x.sites, ev)
	x.streams = append(x.streams, st)
	if st.Len() == 0 {
		return
	}
	lo, hi := st.Bounds()
	if x.n == 0 || lo < x.lo {
		x.lo = lo
	}
	if x.n == 0 || hi > x.hi {
		x.hi = hi
	}
	x.n += uint64(st.Len())
}

// check refuses a serial window wider than 2(n + s) + 65 536 values for n
// recorded ids and s = listed, the ids the replayed snapshots list
// (duplicates included in both): a recording's serials are a run of the
// allocation counter, which a torn recording thins to its surviving
// prefixes but whose live objects the snapshots still list. A wider window
// is refused as corrupt before anything proportional to it is allocated.
// Every recorded id takes at least one stream byte, so the index stays
// proportional to the stream and snapshot bytes read.
func (x *serialIndex) check(listed uint64) error {
	if x.n > 0 && x.hi-x.lo >= 2*(x.n+listed)+1<<16 {
		return fmt.Errorf("analyzer: %w: recorded serials span [%d, %d], more than 2(n + s) + 65536 values for n = %d recorded ids and s = %d snapshot-listed ids",
			recorder.ErrCorrupt, x.lo, x.hi, x.n, listed)
	}
	return nil
}

// build allocates the index, 4 B per serial of the checked window, and
// walks every stream's serials into it, assigning each its site. An id
// recorded by two sites belongs to the later one; both still count it in
// their totals.
func (x *serialIndex) build() {
	var span uint64
	if x.n > 0 {
		span = x.hi - x.lo + 1
	}
	x.site = make([]uint32, span)
	for i, st := range x.streams {
		pos := uint32(i + 1)
		st.Serials(func(s uint64) { x.site[s-x.lo] = pos })
	}
	x.streams = nil
}

// targetGen estimates the site's target generation from its survival
// distribution: zero keeps the site young (uninstrumented).
func (ev *siteEvidence) targetGen(est Estimator) int {
	if ev.total < minSamples {
		return 0
	}
	var old uint64
	for k := 1; k < len(ev.survived); k++ {
		old += ev.survived[k]
	}
	if float64(old) < minOldFraction*float64(ev.total) {
		// Most objects at this site die before the first snapshot:
		// they follow the weak generational hypothesis and belong in
		// the young generation.
		return 0
	}
	var gen int
	switch est {
	case EstimatorP90:
		// Smallest k such that at least 90% of objects survived
		// fewer than or exactly k snapshots.
		threshold := (ev.total*9 + 9) / 10
		var cum uint64
		for k, n := range ev.survived {
			cum += n
			if cum >= threshold {
				gen = k
				break
			}
		}
	default: // EstimatorMode
		// Ties prefer the higher bucket: a site whose objects survive
		// "at least k" snapshots uniformly (objects that outlive the
		// whole profiling window produce flat tails) belongs with the
		// longest-lived generation it reaches.
		var best uint64
		for k := 1; k < len(ev.survived); k++ {
			if ev.survived[k] >= best && ev.survived[k] > 0 {
				best = ev.survived[k]
				gen = k
			}
		}
	}
	if gen > maxGen {
		gen = maxGen
	}
	return gen
}
