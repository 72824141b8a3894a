package analyzer

import (
	"fmt"
	"strings"

	"polm2/internal/heap"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// SiteLoss records the damage met while reading one site's id stream.
type SiteLoss struct {
	Site  heap.SiteID `json:"site"`
	Trace string      `json:"trace,omitempty"`
	// Salvage is the stream decode account; nil when the file itself was
	// unreadable.
	Salvage *recorder.StreamSalvage `json:"salvage,omitempty"`
	// Err is set when the stream file could not be read at all.
	Err string `json:"err,omitempty"`
	// Degraded reports that the site was forced to the young/dynamic
	// fallback because its surviving evidence fell below the confidence
	// floor.
	Degraded bool `json:"degraded,omitempty"`
}

// SalvageReport accounts for everything AnalyzeSalvage could not recover.
// A clean report means the salvage analysis saw exactly what a strict one
// would have.
type SalvageReport struct {
	// Table is the site-table decode account.
	Table *recorder.TableSalvage `json:"table,omitempty"`
	// Sites lists streams that lost data (damaged, unreadable, or
	// degraded). Streams that only miss their commit trailer with no byte
	// loss — live recordings — are not listed.
	Sites []SiteLoss `json:"sites,omitempty"`
	// Snapshots is the snapshot-directory salvage account; nil when the
	// snapshots were handed over in memory.
	Snapshots *snapshot.DirSalvage `json:"snapshots,omitempty"`
	// LostBytes totals bytes dropped across all streams.
	LostBytes int64 `json:"lost_bytes,omitempty"`
	// DegradedSites counts sites forced to the young/dynamic fallback.
	DegradedSites int `json:"degraded_sites,omitempty"`
	// first is the first failure a strict read met, in walk order: the
	// site table's, then the lowest site's stream's; nil when every
	// artifact decoded completely. Analyze refuses with it.
	first error
}

// fail records err unless an earlier failure is already recorded.
func (r *SalvageReport) fail(err error) {
	if r.first == nil {
		r.first = err
	}
}

// Clean reports whether nothing was lost: every artifact decoded fully.
func (r *SalvageReport) Clean() bool {
	if r == nil {
		return true
	}
	if r.Table != nil && !r.Table.Complete {
		return false
	}
	if len(r.Sites) > 0 || r.DegradedSites > 0 {
		return false
	}
	if r.Snapshots != nil && !r.Snapshots.Clean() {
		return false
	}
	return true
}

// String renders the report as a one-line operator log message.
func (r *SalvageReport) String() string {
	if r.Clean() {
		return "salvage: all artifacts intact"
	}
	var parts []string
	if r.Table != nil && !r.Table.Complete {
		parts = append(parts, fmt.Sprintf("site table incomplete (%s)", r.Table.Reason))
	}
	if len(r.Sites) > 0 {
		parts = append(parts, fmt.Sprintf("%d damaged streams (%d bytes lost)", len(r.Sites), r.LostBytes))
	}
	if r.DegradedSites > 0 {
		parts = append(parts, fmt.Sprintf("%d sites degraded to young", r.DegradedSites))
	}
	if r.Snapshots != nil && !r.Snapshots.Clean() {
		parts = append(parts, fmt.Sprintf("snapshots %d/%d usable", r.Snapshots.Usable, r.Snapshots.Total))
	}
	return "salvage: " + strings.Join(parts, "; ")
}

// AnalyzeSalvage runs §3.3's pipeline over the Analyzer's one evidence
// walk: it loads the allocation stack traces, loads every site's recorded
// ids into bucket zero, and folds the snapshots into a Replay in creation
// order, moving every object found live into the next bucket. Instead of
// refusing damaged artifacts it analyzes the longest trustworthy prefix of
// each and reports what was lost; Analyze is this walk refusing any loss.
// A site whose surviving stream decoded below the confidence floor is
// tainted in full, which degrades it to the safe young/dynamic fallback
// rather than instrumenting it from evidence that may be misleading. The
// error is non-nil only when no analysis is possible at all: the site
// table file is unreadable, the synthesis itself fails, or the surviving
// streams' serials span more than 2(n + s) + 65 536 values for n recorded
// ids and s ids listed across snaps, which no real recording produces and
// is refused with an error wrapping recorder.ErrCorrupt before anything
// proportional to the span is allocated.
func AnalyzeSalvage(recordsDir string, snaps []*snapshot.Snapshot, opts Options) (*Profile, *SalvageReport, error) {
	opts = opts.withDefaults()
	w, err := readEvidence(recordsDir)
	if err != nil {
		return nil, nil, err
	}
	r, err := replayWindow(&w.idx, snaps)
	if err != nil {
		return nil, w.rep, err
	}
	return r.finish(w, opts)
}

// evidenceWalk is the first half of the evidence walk: the site table and
// every site's recorded stream, read and salvaged.
type evidenceWalk struct {
	idx serialIndex
	rep *SalvageReport
}

// readEvidence loads the site table and every site's stream from
// recordsDir, accounting for damage in the walk's report. Its error is
// non-nil only when the site table file is unreadable.
func readEvidence(recordsDir string) (*evidenceWalk, error) {
	table, tsal, err := recorder.SalvageSiteTable(recordsDir)
	if err != nil {
		return nil, err
	}
	w := &evidenceWalk{rep: &SalvageReport{Table: tsal}}
	rep := w.rep
	rep.fail(tsal.Err())
	for _, sid := range sortedSites(table) {
		st, sal, err := recorder.SalvageIDs(recordsDir, sid)
		if err != nil {
			rep.fail(err)
			// The stream never made it to disk: the site contributes no
			// evidence and stays uninstrumented.
			rep.Sites = append(rep.Sites, SiteLoss{Site: sid, Trace: table[sid].String(), Err: err.Error(), Degraded: true})
			rep.DegradedSites++
			continue
		}
		rep.fail(sal.Err())
		ev := addSiteEvidence(&w.idx, sid, table[sid], st)
		if sal.LostBytes == 0 && (sal.Complete || sal.Frames > 0) {
			// Fully decoded — a live stream missing only its commit
			// trailer is not damage. One without a single verified frame
			// (an empty file) is: a stream exists only once it has ids.
			continue
		}
		loss := SiteLoss{Site: sid, Trace: table[sid].String(), Salvage: sal}
		rep.LostBytes += sal.LostBytes
		if sal.Confidence() < confidenceFloor {
			loss.Degraded = true
			rep.DegradedSites++
			// The whole site's surviving evidence is untrusted: taint it
			// all, which synthesize and a later fleet merge read as
			// below the floor.
			ev.tainted = ev.total
		}
		rep.Sites = append(rep.Sites, loss)
	}
	return w, nil
}

// AnalyzeSalvageDir is AnalyzeSalvage over an on-disk snapshot directory:
// the snapshot chain is salvaged with snapshot.ReadDirSalvage and its
// account is included in the report.
func AnalyzeSalvageDir(recordsDir, snapsDir string, opts Options) (*Profile, *SalvageReport, error) {
	snaps, dsal, err := snapshot.ReadDirSalvage(snapsDir)
	if err != nil {
		return nil, nil, err
	}
	prof, rep, err := AnalyzeSalvage(recordsDir, snaps, opts)
	if rep != nil {
		rep.Snapshots = dsal
	}
	return prof, rep, err
}
