package analyzer

import (
	"fmt"
	"sort"

	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
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

// gatherEvidence implements the first half of §3.3's algorithm:
//
//   - load allocation stack traces, associating a bucket sequence to each;
//   - load allocated object ids into bucket zero of their stack trace;
//   - replay snapshots in creation order, moving every object found live
//     into the next bucket.
//
// The result is, per site, the distribution of "number of snapshots
// survived".
func gatherEvidence(recordsDir string, snaps []*snapshot.Snapshot) (map[heap.SiteID]*siteEvidence, error) {
	table, err := recorder.LoadSiteTable(recordsDir)
	if err != nil {
		return nil, err
	}

	evidence := make(map[heap.SiteID]*siteEvidence, len(table))
	idSite := make(map[heap.ObjectID]heap.SiteID)
	for _, sid := range sortedSites(table) {
		ids, err := recorder.ReadIDs(recordsDir, sid)
		if err != nil {
			return nil, err
		}
		addSiteEvidence(evidence, idSite, sid, table[sid], ids)
	}
	if err := replaySnapshots(evidence, idSite, snaps); err != nil {
		return nil, err
	}
	return evidence, nil
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

// addSiteEvidence registers one site's recorded ids.
func addSiteEvidence(evidence map[heap.SiteID]*siteEvidence, idSite map[heap.ObjectID]heap.SiteID, sid heap.SiteID, trace jvm.StackTrace, ids []heap.ObjectID) {
	evidence[sid] = &siteEvidence{id: sid, trace: trace, traceString: trace.String(), total: uint64(len(ids))}
	for _, oid := range ids {
		idSite[oid] = sid
	}
}

// replaySnapshots replays the snapshot sequence through the store, counting
// how many snapshots each recorded object appears in, and fills every
// site's survival buckets.
func replaySnapshots(evidence map[heap.SiteID]*siteEvidence, idSite map[heap.ObjectID]heap.SiteID, snaps []*snapshot.Snapshot) error {
	idSurvived := make(map[heap.ObjectID]int)
	store := snapshot.NewStore()
	ordered := make([]*snapshot.Snapshot, len(snaps))
	copy(ordered, snaps)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, snap := range ordered {
		if err := store.Apply(snap); err != nil {
			return fmt.Errorf("analyzer: replaying snapshots: %w", err)
		}
		store.ForEach(func(oid heap.ObjectID) {
			if _, recorded := idSite[oid]; recorded {
				idSurvived[oid]++
			}
		})
	}

	maxBucket := len(ordered)
	for _, ev := range evidence {
		ev.survived = make([]uint64, maxBucket+1)
	}
	for oid, sid := range idSite {
		evidence[sid].survived[idSurvived[oid]]++
	}
	return nil
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
