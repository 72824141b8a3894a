package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// artifacts points at the checked-in v3 profiling artifacts.
const artifacts = "../../testdata/artifacts/v3"

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update to accept):\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestVerifyGolden pins polm2-inspect verify's output on the checked-in
// artifacts, which must be reported fully intact.
func TestVerifyGolden(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		var buf bytes.Buffer
		clean, err := verifyArtifacts(&buf, artifacts)
		if err != nil {
			t.Fatal(err)
		}
		if !clean {
			t.Fatalf("pristine artifacts reported damaged:\n%s", buf.String())
		}
		checkGolden(t, "verify-v3.golden", buf.Bytes())
	})
	// The same artifacts stamped with the retired version 2: every stream
	// and image is refused, none is reinterpreted as the current format.
	t.Run("v2", func(t *testing.T) {
		dir := copyArtifacts(t)
		streams, _ := filepath.Glob(filepath.Join(dir, "records", "site-*.bin"))
		images, _ := filepath.Glob(filepath.Join(dir, "snaps", "snap-*.img"))
		if len(streams) == 0 || len(images) == 0 {
			t.Fatalf("%d streams and %d images to stamp", len(streams), len(images))
		}
		for _, f := range append(streams, images...) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = 2 // the version byte after the 4-byte magic
			if err := os.WriteFile(f, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		clean, err := verifyArtifacts(&buf, dir)
		if err != nil {
			t.Fatal(err)
		}
		if clean {
			t.Fatalf("version-2 artifacts reported intact:\n%s", buf.String())
		}
		checkGolden(t, "verify-v2.golden", buf.Bytes())
	})
}

// copyArtifacts copies the reference artifacts into a fresh directory.
func copyArtifacts(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, sub := range []string{"records", "snaps"} {
		src := filepath.Join(artifacts, sub)
		dst := filepath.Join(dir, sub)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestReferenceRunProfile pins the checked-in reference run to the profile
// it was saved with: strictly analyzing its records and images must
// reproduce profile.json byte for byte. A codec that decodes different ids
// from the same bytes drifts the profile even where listing and salvage
// goldens still pass.
func TestReferenceRunProfile(t *testing.T) {
	snaps, err := snapshot.ReadDir(filepath.Join(artifacts, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := analyzer.Analyze(filepath.Join(artifacts, "records"), snaps,
		analyzer.Options{App: "Cassandra", Workload: "WI"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n') // Profile.Save's trailing newline
	want, err := os.ReadFile(filepath.Join(artifacts, "profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reference run re-analyzes to a different profile (%d bytes, want %d):\n%s", len(got), len(want), got)
	}
}

// TestSnapshotsGolden pins the snapshot listing of the checked-in images.
func TestSnapshotsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := showSnapshots(&buf, filepath.Join(artifacts, "snaps")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshots-v3.golden", buf.Bytes())
}

// TestProfilesGolden pins the repository listing. The store is rebuilt in
// a temporary directory from fixed offline seeds on every run, so the
// listing exercises the full store write/read path and must still come out
// byte-identical. Each row shows the seed's plan, re-derived from its site
// evidence: Cassandra/WI lists the one generation its sites derive, not
// the two its hand-written directives claim.
func TestProfilesGolden(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*analyzer.Profile{
		{
			App: "Cassandra", Workload: "WI", Generations: 2, Conflicts: 1,
			Allocs: []analyzer.AllocDirective{
				{Loc: "Memtable.put:10", Gen: 2, Direct: true},
				{Loc: "Cell.make:4", Gen: 1, Direct: true},
			},
			Sites: []analyzer.SiteStat{
				{Trace: "S.serve:1;Memtable.put:10", Allocated: 9000, Buckets: []uint64{1000, 3000, 5000}, Gen: 2},
				{Trace: "S.serve:1;Cell.make:4", Allocated: 4000, Buckets: []uint64{1500, 2500}, Gen: 1, Tainted: 250},
			},
		},
		{
			App: "Lucene", Workload: "default", Generations: 1,
			Allocs: []analyzer.AllocDirective{{Loc: "Index.add:7", Gen: 1, Direct: true}},
			Sites: []analyzer.SiteStat{
				{Trace: "Main.run:1;Index.add:7", Allocated: 500, Buckets: []uint64{100, 400}, Gen: 1},
			},
		},
	} {
		if err := store.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := showProfiles(&buf, dir); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "profiles.golden", buf.Bytes())
}

// TestProfilesListsEvidenceOnlyKeys: a key a daemon only ever merged has
// no seed, and is listed from its instances' evidence.
func TestProfilesListsEvidenceOnlyKeys(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []uint64{9000, 500} {
		ev := &analyzer.Profile{App: "Cassandra", Workload: "WI", Sites: []analyzer.SiteStat{
			{Trace: "S.serve:1;Memtable.put:10", Allocated: n, Buckets: []uint64{n / 10, n - n/10}},
		}}
		if err := store.PutEvidenceStamped(fmt.Sprintf("inst-%d", i), profilestore.Stamp{Seq: 1, Origin: "d"}, ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := showProfiles(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "Cassandra/WI ") || !strings.Contains(out, " 9500 ") || !strings.HasSuffix(out, "1 profiles\n") {
		t.Fatalf("listing misses the evidence-only key:\n%s", out)
	}
}

// TestPlanPrintsStoredPlan: polm2-inspect plan prints the store's plan for
// the key in the store's encoding, the bytes a daemon's ETag addresses.
func TestPlanPrintsStoredPlan(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []uint64{100, 50} {
		ev := &analyzer.Profile{App: "Cassandra", Workload: "WI", Sites: []analyzer.SiteStat{
			{Trace: "S.serve:1;Memtable.put:10", Allocated: n, Buckets: []uint64{n / 10, n - n/10}},
		}}
		if err := store.PutEvidenceStamped(fmt.Sprintf("inst-%d", i), profilestore.Stamp{}, ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := showPlan(&buf, dir, "Cassandra/WI"); err != nil {
		t.Fatal(err)
	}
	p, err := store.Get("Cassandra", "WI")
	if err != nil {
		t.Fatal(err)
	}
	want, err := profilestore.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) || len(p.Sites) != 1 || p.Sites[0].Allocated != 150 {
		t.Fatalf("plan printed\n%s\nwant the 150-allocation merge\n%s", buf.Bytes(), want)
	}
	for _, key := range []string{"Cassandra", "/WI", "Cassandra/RI"} {
		if err := showPlan(io.Discard, dir, key); err == nil {
			t.Errorf("plan %q printed a plan", key)
		}
	}
}

// TestRolloutGolden pins the rollout state view. The store is rebuilt from
// fixed controller documents on every run, so the listing exercises the
// real PutRollout/Rollout round trip; the key without a document proves
// rollout-off keys are skipped, not misreported.
func TestRolloutGolden(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []profilestore.Key{{App: "Cassandra", Workload: "WI"}, {App: "Cassandra", Workload: "RO"}, {App: "Lucene", Workload: "default"}} {
		p := &analyzer.Profile{App: k.App, Workload: k.Workload, Sites: []analyzer.SiteStat{
			{Trace: "Main.run:1;Index.add:7", Allocated: 500, Buckets: []uint64{100, 400}},
		}}
		if err := store.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	docs := map[[2]string]string{
		{"Cassandra", "WI"}: `{"snapshot":{"state":"canary",
			"stable_etag":"\"9b8c7d6e5f40112233445566\"",
			"candidate_etag":"\"3f2a9c11d4e5aabbccddeeff\"",
			"canaries":3,"promotions":2,"rollbacks":0}}`,
		{"Lucene", "default"}: `{"snapshot":{"state":"rolled_back",
			"stable_etag":"\"0011223344556677deadbeef\"",
			"quarantined":["\"feedfacecafe001122334455\""],
			"canaries":2,"promotions":1,"rollbacks":1}}`,
	}
	for k, doc := range docs {
		if err := store.PutRollout(k[0], k[1], []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := showRollout(&buf, dir); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rollout.golden", buf.Bytes())
}

// TestSyncGolden pins the replication view. The store is rebuilt from
// fixed stamped (and one deliberately unstamped) evidence documents on
// every run, so the listing exercises the PutEvidenceStamped/EvidenceAll
// round trip — stamps surviving the disk format is exactly what the
// subcommand exists to show.
func TestSyncGolden(t *testing.T) {
	dir := t.TempDir()
	store, err := profilestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	site := func(trace string, n uint64) analyzer.SiteStat {
		return analyzer.SiteStat{Trace: trace, Allocated: n, Buckets: []uint64{n}, Gen: 1}
	}
	puts := []struct {
		instance string
		stamp    profilestore.Stamp
		profile  *analyzer.Profile
	}{
		{"inst-1", profilestore.Stamp{Seq: 3, Origin: "daemon-a"},
			&analyzer.Profile{App: "Cassandra", Workload: "WI", Generations: 2,
				Sites: []analyzer.SiteStat{site("S.serve:1;Memtable.put:10", 9000), site("S.serve:1;Cell.make:4", 4000)}}},
		{"inst-2", profilestore.Stamp{Seq: 5, Origin: "daemon-b"},
			&analyzer.Profile{App: "Cassandra", Workload: "WI", Generations: 2,
				Sites: []analyzer.SiteStat{site("S.serve:1;Memtable.put:10", 500)}}},
		{"inst-legacy", profilestore.Stamp{},
			&analyzer.Profile{App: "Lucene", Workload: "default", Generations: 1,
				Sites: []analyzer.SiteStat{site("Main.run:1;Index.add:7", 500)}}},
	}
	for _, p := range puts {
		if err := store.PutEvidenceStamped(p.instance, p.stamp, p.profile); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := showSync(&buf, dir); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sync.golden", buf.Bytes())
}

// TestSyncEmptyStore keeps the subcommand graceful on a store no fleet
// has uploaded to.
func TestSyncEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := profilestore.Open(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := showSync(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no evidence documents found")) {
		t.Fatalf("empty-store output = %q", buf.String())
	}
}

// TestRolloutEmptyStore keeps the subcommand graceful on a store the
// controller never touched.
func TestRolloutEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := profilestore.Open(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := showRollout(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no rollout state found")) {
		t.Fatalf("empty-store output = %q", buf.String())
	}
}

// TestVerifyReportsDamage corrupts a copy of the reference artifacts and checks
// verify flags it without failing hard.
func TestVerifyReportsDamage(t *testing.T) {
	dir := copyArtifacts(t)
	streams, err := filepath.Glob(filepath.Join(dir, "records", "site-*.bin"))
	if err != nil || len(streams) == 0 {
		t.Fatalf("no streams copied: %v", err)
	}
	info, err := os.Stat(streams[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(streams[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	clean, err := verifyArtifacts(&buf, dir)
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatalf("truncated stream went unreported:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"DAMAGED", "damage found"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("verify output missing %q:\n%s", want, out)
		}
	}
}
