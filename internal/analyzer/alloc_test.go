package analyzer

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// TestAnalyzeAllocatesNoPerIDCopy: Analyze reads the recorded serials
// straight from the decoded streams. Over 200 000 ids recorded at four
// sites, its total allocation stays under the stream bytes it reads, 8 B
// per serial of the window (the site index and the replay's counts) and a fixed
// slack for the site table, the evidence and the synthesis. A per-id copy
// of the records, 8 B an id grown by appends, exceeds that several times.
func TestAnalyzeAllocatesNoPerIDCopy(t *testing.T) {
	const n, slack = 200_000, 256 << 10
	dir, sites, streamBytes := recordWindow(t, n)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof, err := Analyze(dir, nil, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Sites) != len(sites) {
		t.Fatalf("profile holds %d sites, want %d", len(prof.Sites), len(sites))
	}
	limit := streamBytes + 8*n + slack
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Analyze allocated %d bytes over %d ids in %d stream bytes (limit %d)", got, n, streamBytes, limit)
	if got > limit {
		t.Fatalf("Analyze allocated %d bytes over %d recorded ids, more than the %d stream bytes + 8 B x %d serials + %d slack = %d",
			got, n, streamBytes, n, slack, limit)
	}
}

// TestFinishAllocatesOnlyTheSiteIndex: a replay that has already folded a
// snapshot listing every one of the same 200 000 recorded ids finishes
// within the stream bytes, 4 B per serial of the window (the site index)
// and the same slack. The survival counts were taken as the images were
// added, so finishing copies neither them nor the images.
func TestFinishAllocatesOnlyTheSiteIndex(t *testing.T) {
	const n, slack = 200_000, 256 << 10
	dir, sites, streamBytes := recordWindow(t, n)
	snap := &snapshot.Snapshot{Seq: 1, Regions: []heap.RegionID{1}}
	ids := make([]heap.ObjectID, n)
	for i := range ids {
		ids[i] = heap.ObjectID(i + 1)
	}
	for page := 0; len(ids) > 0; page++ {
		k := min(len(ids), 32)
		snap.Pages = append(snap.Pages, snapshot.PageRecord{Key: heap.PageKey{Region: 1, Index: uint32(page)}, HeaderIDs: ids[:k]})
		ids = ids[k:]
	}
	r := NewReplay()
	if err := r.Add(snap); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof, err := r.Finish(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Sites) != len(sites) {
		t.Fatalf("profile holds %d sites, want %d", len(prof.Sites), len(sites))
	}
	var survived uint64
	for _, s := range prof.Sites {
		if len(s.Buckets) != 2 {
			t.Fatalf("site %s buckets %v, want every id in bucket 1", s.Trace, s.Buckets)
		}
		survived += s.Buckets[1]
	}
	if survived != n {
		t.Fatalf("%d ids survived the snapshot, want %d", survived, n)
	}
	limit := streamBytes + 4*n + slack
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Finish allocated %d bytes over %d ids in %d stream bytes (limit %d)", got, n, streamBytes, limit)
	if got > limit {
		t.Fatalf("Finish allocated %d bytes over %d recorded ids, more than the %d stream bytes + 4 B x %d serials + %d slack = %d",
			got, n, streamBytes, n, slack, limit)
	}
}

// recordWindow records serials 1..n at four sites drawn at random and
// returns the records directory, the sites and the stream bytes on disk.
func recordWindow(t *testing.T, n uint64) (string, []heap.SiteID, uint64) {
	t.Helper()
	dir := t.TempDir()
	table := jvm.NewSiteTable()
	sites := make([]heap.SiteID, 4)
	for i := range sites {
		sites[i] = table.Intern(jvm.StackTrace{{Class: "Main", Method: "run", Line: i + 1}})
	}
	rec, err := recorder.New(recorder.Config{Dir: dir}, nil, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for s := uint64(1); s <= n; s++ {
		rec.RecordAlloc(sites[rng.Intn(len(sites))], &heap.Object{ID: heap.ObjectID(s)})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var streamBytes uint64
	for _, sid := range sites {
		info, err := os.Stat(streamPath(dir, sid))
		if err != nil {
			t.Fatal(err)
		}
		streamBytes += uint64(info.Size())
	}
	return dir, sites, streamBytes
}

// BenchmarkAnalyzeReferenceRun analyzes the checked-in reference profiling
// run, records and snapshots decoded as Analyze is handed them.
func BenchmarkAnalyzeReferenceRun(b *testing.B) {
	const artifacts = "../../testdata/artifacts/v3"
	snaps, err := snapshot.ReadDir(filepath.Join(artifacts, "snaps"))
	if err != nil {
		b.Fatal(err)
	}
	records := filepath.Join(artifacts, "records")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchProfile, err = Analyze(records, snaps, Options{App: "Cassandra", Workload: "WI"}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProfile keeps the benchmarked analysis from being optimized away.
var benchProfile *Profile

// BenchmarkReplayAdd folds the reference run's decoded snapshot chain into
// a fresh replay: the per-image cost a profiling run pays as the dumper
// dumps.
func BenchmarkReplayAdd(b *testing.B) {
	snaps, err := snapshot.ReadDir("../../testdata/artifacts/v3/snaps")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReplay()
		for _, snap := range snaps {
			if err := r.Add(snap); err != nil {
				b.Fatal(err)
			}
		}
	}
}
