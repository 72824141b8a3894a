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
// per serial of the window (the index's two uint32 slices) and a fixed
// slack for the site table, the evidence and the synthesis. A per-id copy
// of the records, 8 B an id grown by appends, exceeds that several times.
func TestAnalyzeAllocatesNoPerIDCopy(t *testing.T) {
	const n, slack = 200_000, 256 << 10
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
		rec.RecordAlloc(sites[rng.Intn(len(sites))], &heap.Object{ID: heap.IDOf(s)})
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
