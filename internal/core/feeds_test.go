package core_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/graphchi"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/snapshot"
)

// TestProfileAppPersistsSnapshots holds ProfileApp's two feeds of the
// Analyzer to each other: the profile it folded from the images as the
// dumper took them must equal, as JSON byte for byte, Analyze over the
// images it persisted, read back with snapshot.ReadDir. It runs on the
// stub application and on four real targets.
//
// It also pins what the benchmark's analysis ablations rely on: the
// Analyzer is a pure function of the site evidence a profile carries, so
// re-synthesizing the profile under each ablation's options
// (analyzer.MergeProfiles) equals analyzing the persisted artifacts under
// them.
func TestProfileAppPersistsSnapshots(t *testing.T) {
	for _, tc := range []struct {
		app      core.App
		workload string
		duration time.Duration
	}{
		{core.StubApp, "w", 3 * time.Minute},
		{lucene.New(), lucene.Workload, 2 * time.Minute},
		{cassandra.New(), cassandra.WorkloadWI, 2 * time.Minute},
		{cassandra.New(), cassandra.WorkloadRI, 2 * time.Minute},
		{graphchi.New(), graphchi.WorkloadPR, 2 * time.Minute},
	} {
		name := tc.app.Name()
		if len(tc.app.Workloads()) > 1 {
			name += "-" + tc.workload
		}
		t.Run(name, func(t *testing.T) {
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
			for _, opts := range []analyzer.Options{
				{DisableConflictResolution: true},
				{DisableHoisting: true},
				{Estimator: analyzer.EstimatorP90},
			} {
				opts.App, opts.Workload = tc.app.Name(), tc.workload
				merged, err := analyzer.MergeProfiles(opts, res.Profile)
				if err != nil {
					t.Fatal(err)
				}
				analyzed, err := analyzer.Analyze(res.RecordsDir, loaded, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(merged)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(analyzed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%+v: re-synthesized profile diverged from the analysis:\nre-synthesized %s\nanalyzed       %s", opts, got, want)
				}
			}
		})
	}
}
