package analyzer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// streamPath names a site's id-stream file the way the recorder lays it
// out on disk.
func streamPath(dir string, sid heap.SiteID) string {
	return filepath.Join(dir, fmt.Sprintf("site-%06d.bin", sid))
}

// largestStream returns the site whose id stream holds the most bytes —
// the best victim for partial-truncation tests, since a bigger file spans
// more frames and leaves a salvageable prefix.
func largestStream(t testing.TB, dir string) (heap.SiteID, int64) {
	t.Helper()
	sites, err := recorder.Streams(dir)
	if err != nil || len(sites) == 0 {
		t.Fatalf("no streams recorded: %v", err)
	}
	var best heap.SiteID
	var bestSize int64
	for _, sid := range sites {
		info, err := os.Stat(streamPath(dir, sid))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > bestSize {
			best, bestSize = sid, info.Size()
		}
	}
	return best, bestSize
}

// TestAnalyzeSalvageCleanMatchesStrict pins the core salvage contract: on
// undamaged artifacts AnalyzeSalvage produces byte-for-byte the profile a
// strict Analyze does, with a clean report.
func TestAnalyzeSalvageCleanMatchesStrict(t *testing.T) {
	dir, snaps := profileRun(t, 800)
	opts := Options{App: "mini", Workload: "test"}

	want, err := Analyze(dir, snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := AnalyzeSalvage(dir, snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean artifacts produced a dirty report: %s", rep)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("salvage profile differs from strict:\nstrict  %s\nsalvage %s", wantJSON, gotJSON)
	}
}

// TestAnalyzeSalvageDamagedStreamDegrades truncates the biggest id stream
// to a quarter and checks the loss is accounted and, below the confidence
// floor, the site is degraded to the safe fallback instead of instrumented
// from a misleading fraction of its evidence.
func TestAnalyzeSalvageDamagedStreamDegrades(t *testing.T) {
	dir, snaps := profileRun(t, 800)
	victim, size := largestStream(t, dir)
	if err := os.Truncate(streamPath(dir, victim), size/4); err != nil {
		t.Fatal(err)
	}

	prof, rep, err := AnalyzeSalvage(dir, snaps, Options{App: "mini", Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("salvage produced no profile")
	}
	if rep.Clean() {
		t.Fatalf("truncated stream left a clean report: %s", rep)
	}
	if rep.LostBytes == 0 {
		t.Fatal("no bytes accounted as lost")
	}
	if rep.DegradedSites == 0 {
		t.Fatalf("quarter-truncated stream not degraded under the %v floor: %s", confidenceFloor, rep)
	}
	victimTrace := ""
	for _, loss := range rep.Sites {
		if loss.Site == victim {
			victimTrace = loss.Trace
			if loss.Salvage == nil || loss.Salvage.LostBytes == 0 {
				t.Fatalf("victim loss carries no salvage account: %+v", loss)
			}
			if !loss.Degraded {
				t.Fatalf("victim not degraded: %+v", loss)
			}
		}
	}
	if victimTrace == "" {
		t.Fatalf("victim site %d missing from the report: %s", victim, rep)
	}
	// The degraded site must not be pretenured: its evidence stays at the
	// young generation.
	for _, s := range prof.Sites {
		if s.Trace == victimTrace && s.Gen > 0 {
			t.Fatalf("degraded site still assigned gen %d", s.Gen)
		}
	}
}

// TestSalvageAndMergeDegradeAlike pins the one distrust rule: a stream
// salvaged below the confidence floor is degraded by the salvage walk, and
// a fleet merge of that profile alone, which sees only the site's Tainted
// and Allocated sums, makes the same decision for every site and emits the
// same directives.
func TestSalvageAndMergeDegradeAlike(t *testing.T) {
	dir, snaps := profileRun(t, 800)
	clean, err := Analyze(dir, snaps, Options{App: "mini", Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// The victim is the lowest pretenured site, so degrading it changes
	// the plan.
	table, err := recorder.LoadSiteTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	pretenured := make(map[string]bool)
	for _, s := range clean.Sites {
		pretenured[s.Trace] = s.Gen > 0
	}
	var victim heap.SiteID
	for _, sid := range sortedSites(table) {
		if pretenured[table[sid].String()] {
			victim = sid
			break
		}
	}
	if victim == 0 {
		t.Fatal("the clean run pretenures no site")
	}
	info, err := os.Stat(streamPath(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(streamPath(dir, victim), info.Size()/4); err != nil {
		t.Fatal(err)
	}
	salvaged, rep, err := AnalyzeSalvage(dir, snaps, Options{App: "mini", Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedSites != 1 {
		t.Fatalf("DegradedSites = %d, want the victim alone: %s", rep.DegradedSites, rep)
	}
	if len(salvaged.Calls)+len(salvaged.Allocs) >= len(clean.Calls)+len(clean.Allocs) {
		t.Fatalf("degrading the victim removed no directive: %+v %+v", salvaged.Calls, salvaged.Allocs)
	}

	merged, err := MergeProfiles(Options{}, salvaged)
	if err != nil {
		t.Fatal(err)
	}
	gens := make(map[string]int, len(salvaged.Sites))
	for _, s := range salvaged.Sites {
		gens[s.Trace] = s.Gen
	}
	if len(merged.Sites) != len(salvaged.Sites) {
		t.Fatalf("merge lists %d sites, salvage %d", len(merged.Sites), len(salvaged.Sites))
	}
	for _, s := range merged.Sites {
		if want, ok := gens[s.Trace]; !ok || s.Gen != want {
			t.Errorf("site %s: merge gen %d, salvage gen %d (listed %v)", s.Trace, s.Gen, want, ok)
		}
	}
	type directives struct {
		Allocs      []AllocDirective
		Calls       []CallDirective
		Generations int
	}
	got, _ := json.Marshal(directives{merged.Allocs, merged.Calls, merged.Generations})
	want, _ := json.Marshal(directives{salvaged.Allocs, salvaged.Calls, salvaged.Generations})
	if !bytes.Equal(got, want) {
		t.Fatalf("merge directives differ from salvage:\nmerge   %s\nsalvage %s", got, want)
	}
}

// TestAnalyzeSalvageMissingStream deletes one stream entirely: the site
// stays in the table, contributes nothing, and is reported with a read
// error and forced degradation.
func TestAnalyzeSalvageMissingStream(t *testing.T) {
	dir, snaps := profileRun(t, 800)
	victim, _ := largestStream(t, dir)
	if err := os.Remove(streamPath(dir, victim)); err != nil {
		t.Fatal(err)
	}

	prof, rep, err := AnalyzeSalvage(dir, snaps, Options{App: "mini", Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("salvage produced no profile")
	}
	found := false
	for _, loss := range rep.Sites {
		if loss.Site == victim {
			found = true
			if loss.Err == "" {
				t.Fatalf("missing stream reported without an error: %+v", loss)
			}
			if !loss.Degraded {
				t.Fatalf("missing stream not degraded: %+v", loss)
			}
		}
	}
	if !found {
		t.Fatalf("missing stream absent from the report: %s", rep)
	}
	if rep.DegradedSites == 0 {
		t.Fatal("degraded count not incremented")
	}
}

// TestAnalyzeSalvageDirDamagedSnapshots persists the snapshots, damages an
// image mid-chain, and checks AnalyzeSalvageDir folds the directory salvage
// account into the report while still producing a profile.
func TestAnalyzeSalvageDirDamagedSnapshots(t *testing.T) {
	dir, snaps := profileRun(t, 800)
	if len(snaps) < 3 {
		t.Fatalf("run produced only %d snapshots", len(snaps))
	}
	snapDir := t.TempDir()
	for _, s := range snaps {
		if err := snapshot.WriteImage(snapDir, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	victim := filepath.Join(snapDir, snapshot.FileName(snaps[len(snaps)/2].Seq))
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	prof, rep, err := AnalyzeSalvageDir(dir, snapDir, Options{App: "mini", Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("salvage produced no profile")
	}
	if rep.Snapshots == nil {
		t.Fatal("directory salvage account missing from the report")
	}
	if rep.Snapshots.Clean() {
		t.Fatalf("damaged image left a clean snapshot account: %+v", rep.Snapshots)
	}
	if rep.Snapshots.Usable >= rep.Snapshots.Total {
		t.Fatalf("snapshot account implausible: %+v", rep.Snapshots)
	}
	if rep.Clean() {
		t.Fatal("report clean despite snapshot damage")
	}
}
