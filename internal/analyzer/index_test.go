package analyzer

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// mapModelSurvived is the replay the serial index replaced, kept as its
// model: one map from id to its last recording site, one from id to the
// number of snapshots that listed it, and the buckets filled per distinct
// id.
func mapModelSurvived(sites []heap.SiteID, streams map[heap.SiteID][]heap.ObjectID, snaps []*snapshot.Snapshot) (map[heap.SiteID][]uint64, error) {
	idSite := make(map[heap.ObjectID]heap.SiteID)
	for _, sid := range sites {
		for _, oid := range streams[sid] {
			idSite[oid] = sid
		}
	}
	idSurvived := make(map[heap.ObjectID]int)
	store := snapshot.NewStore()
	ordered := slices.Clone(snaps)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, snap := range ordered {
		if err := store.Apply(snap); err != nil {
			return nil, err
		}
		store.ForEach(func(oid heap.ObjectID) {
			if _, recorded := idSite[oid]; recorded {
				idSurvived[oid]++
			}
		})
	}
	out := make(map[heap.SiteID][]uint64, len(sites))
	for _, sid := range sites {
		out[sid] = make([]uint64, len(ordered)+1)
	}
	for oid, sid := range idSite {
		out[sid][idSurvived[oid]]++
	}
	return out, nil
}

// randomRecording builds site streams over the serial window [lo, lo+size)
// in allocation order, then adds within-site and cross-site duplicate ids.
func randomRecording(rng *rand.Rand, lo uint64, size int) ([]heap.SiteID, map[heap.SiteID][]heap.ObjectID) {
	sites := make([]heap.SiteID, 1+rng.Intn(6))
	for i := range sites {
		sites[i] = heap.SiteID(2*i + 1)
	}
	streams := make(map[heap.SiteID][]heap.ObjectID, len(sites))
	for s := lo; s < lo+uint64(size); s++ {
		if rng.Intn(4) == 0 {
			continue // allocated but never recorded
		}
		sid := sites[rng.Intn(len(sites))]
		streams[sid] = append(streams[sid], heap.ObjectID(s))
	}
	for d := rng.Intn(20); d > 0; d-- {
		from, to := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
		if ids := streams[from]; len(ids) > 0 {
			streams[to] = append(streams[to], ids[rng.Intn(len(ids))])
		}
	}
	return sites, streams
}

// randomSnapshots lists, in shuffled slice order, snapshots of distinct
// serials around and inside the recording window, plus ids far outside it:
// some live objects were never recorded. Each maps no region, so each
// replaces the whole view, as the first increment of a chain does.
func randomSnapshots(rng *rand.Rand, lo uint64, size int) []*snapshot.Snapshot {
	snaps := make([]*snapshot.Snapshot, rng.Intn(6))
	for i := range snaps {
		var ids []heap.ObjectID
		for s := lo - min(lo, 20); s < lo+uint64(size)+20; s++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, heap.ObjectID(s))
			}
		}
		for j := rng.Intn(4); j > 0; j-- {
			ids = append(ids, heap.ObjectID(rng.Uint64()))
		}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		snap := &snapshot.Snapshot{Seq: i + 1}
		for page := uint32(0); len(ids) > 0; page++ {
			k := min(len(ids), 1+rng.Intn(40))
			snap.Pages = append(snap.Pages, snapshot.PageRecord{
				Key: heap.PageKey{Region: 1, Index: page}, HeaderIDs: ids[:k],
			})
			ids = ids[k:]
		}
		snaps[i] = snap
	}
	rng.Shuffle(len(snaps), func(a, b int) { snaps[a], snaps[b] = snaps[b], snaps[a] })
	return snaps
}

// replayFeed folds snaps into a replay through one of its two feeds and
// fills idx's buckets from it. The slice feed is Analyze's: counts bounded
// to the window, images sorted by the fold. The image feed is a profiling
// run's: an unbounded replay handed each image in sequence order, as the
// dumper hands them, with the window checked when it finishes.
func replayFeed(idx *serialIndex, snaps []*snapshot.Snapshot, imageFeed bool) error {
	if !imageFeed {
		r, err := replayWindow(idx, snaps)
		if err != nil {
			return err
		}
		r.fill(idx)
		return nil
	}
	ordered := slices.Clone(snaps)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	r := NewReplay()
	for _, snap := range ordered {
		if err := r.Add(snap); err != nil {
			return err
		}
	}
	if err := idx.check(r.listed); err != nil {
		return err
	}
	r.fill(idx)
	return nil
}

// TestSerialIndexMatchesMapModel holds the serial index and both replay
// feeds to the map-based replay they replaced: equal buckets for every
// site, with duplicate ids across and within sites, a recording window
// starting well above zero as an online window's does, and unrecorded ids
// in the snapshots.
func TestSerialIndexMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		var lo uint64
		if trial%3 != 0 {
			lo = uint64(rng.Intn(1 << 24))
		}
		size := 1 + rng.Intn(400)
		sites, streams := randomRecording(rng, lo, size)
		snaps := randomSnapshots(rng, lo, size)

		want, err := mapModelSurvived(sites, streams, snaps)
		if err != nil {
			t.Fatal(err)
		}
		recorded := recordedStreams(t, streams)
		for _, imageFeed := range []bool{false, true} {
			evidence := make(map[heap.SiteID]*siteEvidence, len(sites))
			var idx serialIndex
			for _, sid := range sites {
				evidence[sid] = addSiteEvidence(&idx, sid, jvm.StackTrace{{Class: "C", Method: "m", Line: int(sid)}}, recorded[sid])
			}
			if err := replayFeed(&idx, snaps, imageFeed); err != nil {
				t.Fatalf("trial %d (image feed %v): %v", trial, imageFeed, err)
			}
			for _, sid := range sites {
				ev := evidence[sid]
				if !slices.Equal(ev.survived, want[sid]) {
					t.Fatalf("trial %d (lo %d, image feed %v): site %d survived %v, map model %v", trial, lo, imageFeed, sid, ev.survived, want[sid])
				}
				if ev.total != uint64(len(streams[sid])) {
					t.Fatalf("trial %d: site %d total %d, recorded %d", trial, sid, ev.total, len(streams[sid]))
				}
			}
		}
	}
}

// TestReplayCapsRepeatedListings: an image may list one id on two pages.
// The id then counts twice in one snapshot, and the count is capped at the
// last bucket instead of indexing past it.
func TestReplayCapsRepeatedListings(t *testing.T) {
	recorded := recordedStreams(t, map[heap.SiteID][]heap.ObjectID{1: {7, 8}})
	twice := []heap.ObjectID{7}
	snap := &snapshot.Snapshot{Seq: 1, Pages: []snapshot.PageRecord{
		{Key: heap.PageKey{Region: 1, Index: 0}, HeaderIDs: twice},
		{Key: heap.PageKey{Region: 1, Index: 1}, HeaderIDs: twice},
	}}
	for _, imageFeed := range []bool{false, true} {
		evidence := make(map[heap.SiteID]*siteEvidence)
		var idx serialIndex
		evidence[1] = addSiteEvidence(&idx, 1, jvm.StackTrace{{Class: "C", Method: "m", Line: 1}}, recorded[1])
		if err := replayFeed(&idx, []*snapshot.Snapshot{snap}, imageFeed); err != nil {
			t.Fatal(err)
		}
		if got := evidence[1].survived; !slices.Equal(got, []uint64{1, 1}) {
			t.Fatalf("image feed %v: survived = %v, want [1 1]", imageFeed, got)
		}
	}
}

// recordedStreams records each site's ids through the recorder's own
// writer and reads every stream back as Analyze does. A site with no ids
// gets the empty Stream.
func recordedStreams(t testing.TB, streams map[heap.SiteID][]heap.ObjectID) map[heap.SiteID]recorder.Stream {
	t.Helper()
	dir := t.TempDir()
	rec, err := recorder.New(recorder.Config{Dir: dir}, nil, jvm.NewSiteTable(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for sid, ids := range streams {
		for _, id := range ids {
			rec.RecordAlloc(sid, &heap.Object{ID: id})
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := make(map[heap.SiteID]recorder.Stream, len(streams))
	for sid, ids := range streams {
		if len(ids) == 0 {
			continue
		}
		if out[sid], err = recorder.ReadIDs(dir, sid); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recordSerials writes a records directory holding one site whose stream
// records the given serials, through the recorder's own writer.
func recordSerials(t testing.TB, serials ...uint64) (string, heap.SiteID) {
	t.Helper()
	dir := t.TempDir()
	sites := jvm.NewSiteTable()
	sid := sites.Intern(jvm.StackTrace{{Class: "Main", Method: "run", Line: 1}})
	rec, err := recorder.New(recorder.Config{Dir: dir}, nil, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range serials {
		rec.RecordAlloc(sid, &heap.Object{ID: heap.ObjectID(s)})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, sid
}

// TestAnalyzeRefusesSparseSerials: a CRC-valid stream whose serials span
// 2^63 values cannot be indexed by serial. Both analyses, and both ways of
// finishing a replay, refuse it as corrupt instead of allocating the span;
// the bound itself admits a span of exactly 2n + 65 536.
func TestAnalyzeRefusesSparseSerials(t *testing.T) {
	dir, _ := recordSerials(t, 1<<63, 1)
	if _, err := Analyze(dir, nil, Options{}); !errors.Is(err, recorder.ErrCorrupt) {
		t.Fatalf("Analyze: err = %v, want ErrCorrupt", err)
	}
	if _, err := NewReplay().Finish(dir, Options{}); !errors.Is(err, recorder.ErrCorrupt) {
		t.Fatalf("Replay.Finish: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := NewReplay().FinishSalvage(dir, Options{}); !errors.Is(err, recorder.ErrCorrupt) {
		t.Fatalf("Replay.FinishSalvage: err = %v, want ErrCorrupt", err)
	}
	_, _, err := AnalyzeSalvage(dir, nil, Options{})
	if !errors.Is(err, recorder.ErrCorrupt) {
		t.Fatalf("AnalyzeSalvage: err = %v, want ErrCorrupt", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "span [1, 9223372036854775808]") || !strings.Contains(msg, "n = 2 recorded ids") {
		t.Fatalf("refusal does not name the span and the id count: %s", msg)
	}

	const lo = 1 << 40
	for _, tc := range []struct {
		hi uint64
		ok bool
	}{{lo + 2*2 + 1<<16 - 1, true}, {lo + 2*2 + 1<<16, false}} {
		var idx serialIndex
		recorded := recordedStreams(t, map[heap.SiteID][]heap.ObjectID{1: {heap.ObjectID(lo), heap.ObjectID(tc.hi)}})
		idx.add(&siteEvidence{}, recorded[1])
		if err := idx.check(0); (err == nil) != tc.ok {
			t.Fatalf("span %d for 2 ids: check err = %v, want ok=%v", tc.hi-lo+1, err, tc.ok)
		}
	}
}

// FuzzAnalyzeSalvage replaces one id stream of a small profiling run with
// arbitrary bytes. Salvage analysis must never panic: it returns a profile
// and its report, or a typed refusal.
func FuzzAnalyzeSalvage(f *testing.F) {
	dir, snaps := profileRun(f, 400)
	victim, _ := largestStream(f, dir)
	path := streamPath(dir, victim)
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	sparseDir, sparseSite := recordSerials(f, 1<<63, 1)
	sparse, err := os.ReadFile(streamPath(sparseDir, sparseSite))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(sparse)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prof, rep, err := AnalyzeSalvage(dir, snaps, Options{})
		if err != nil {
			if !errors.Is(err, recorder.ErrCorrupt) && !errors.Is(err, recorder.ErrTruncated) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if prof == nil || rep == nil {
			t.Fatalf("no error but profile %v, report %v", prof, rep)
		}
	})
}
