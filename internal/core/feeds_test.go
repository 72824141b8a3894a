package core_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/snapshot"
)

// TestProfileAppPersistsSnapshots holds ProfileApp's two feeds of the
// Analyzer to each other: the profile it folded from the images as the
// dumper took them must equal, as JSON byte for byte, Analyze over the
// images it persisted, read back with snapshot.ReadDir. It runs on the
// stub application and on one real target.
func TestProfileAppPersistsSnapshots(t *testing.T) {
	for _, tc := range []struct {
		app      core.App
		workload string
		duration time.Duration
	}{
		{core.StubApp, "w", 3 * time.Minute},
		{lucene.New(), lucene.Workload, 2 * time.Minute},
	} {
		t.Run(tc.app.Name(), func(t *testing.T) {
			dir := t.TempDir()
			res, err := core.ProfileApp(tc.app, tc.workload, core.ProfileOptions{
				Duration:    tc.duration,
				RecordsDir:  t.TempDir(),
				SnapshotDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != len(res.Snapshots) || len(loaded) < 2 {
				t.Fatalf("persisted %d snapshots, took %d", len(loaded), len(res.Snapshots))
			}
			for i, meta := range res.Snapshots {
				if meta.Seq != loaded[i].Seq || meta.Cycle != loaded[i].Cycle || meta.SizeBytes != loaded[i].SizeBytes {
					t.Fatalf("snapshot %d: took seq %d cycle %d (%d B), persisted seq %d cycle %d (%d B)", i,
						meta.Seq, meta.Cycle, meta.SizeBytes, loaded[i].Seq, loaded[i].Cycle, loaded[i].SizeBytes)
				}
			}
			reanalyzed, err := analyzer.Analyze(res.RecordsDir, loaded, analyzer.Options{App: tc.app.Name(), Workload: tc.workload})
			if err != nil {
				t.Fatal(err)
			}
			folded, err := json.Marshal(res.Profile)
			if err != nil {
				t.Fatal(err)
			}
			fromDisk, err := json.Marshal(reanalyzed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(folded, fromDisk) {
				t.Fatalf("off-line re-analysis diverged from the folded profile:\nfolded    %s\nfrom disk %s", folded, fromDisk)
			}
			if res.Profile.InstrumentedSites() == 0 {
				t.Fatalf("degenerate run: %s/%s instrumented nothing", tc.app.Name(), tc.workload)
			}
		})
	}
}
