package profilestore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// corrupt overwrites the stored seed for (app, workload) with broken JSON.
func corrupt(t *testing.T, s *Store, app, workload string) string {
	t.Helper()
	path := s.evidencePath(Key{App: app, Workload: workload}, SeedInstance)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry to corrupt is missing: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"instance":"__seed__","profile":{"app":"Cassandra","generations":`), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(path)
}

// TestAuditFlagsCorruptEntry checks Audit scans past damage: the corrupt
// document is reported with its decode error while healthy entries keep
// their keys, and the scan itself never fails.
func TestAuditFlagsCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"WI", "RW", "RI"} {
		if err := s.Put(sampleProfile("Cassandra", w)); err != nil {
			t.Fatal(err)
		}
	}
	victim := corrupt(t, s, "Cassandra", "RW")

	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || len(rep.Entries) != 3 {
		t.Fatalf("audit = %+v, want 3 entries with 1 corrupt", rep)
	}
	for _, e := range rep.Entries {
		if e.File == victim {
			if e.Err == "" {
				t.Fatalf("corrupt entry reported healthy: %+v", e)
			}
			if e.Key != (Key{}) {
				t.Fatalf("corrupt entry carries a key: %+v", e)
			}
			continue
		}
		if e.Err != "" || e.Key.App != "Cassandra" {
			t.Fatalf("healthy entry misreported: %+v", e)
		}
	}
}

// TestAuditCleanStore pins the no-damage baseline.
func TestAuditCleanStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleProfile("Lucene", "default")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || len(rep.Entries) != 1 || rep.Entries[0].Err != "" {
		t.Fatalf("clean store audit = %+v", rep)
	}
}

// TestGetCorruptSurfacesError checks Get does not mask corruption as
// absence: the load error comes back, not ErrNotFound.
func TestGetCorruptSurfacesError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleProfile("Cassandra", "WI")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, "Cassandra", "WI")
	_, err = s.Get("Cassandra", "WI")
	if err == nil {
		t.Fatal("corrupt profile loaded")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("corruption reported as absence: %v", err)
	}
}

// TestSelectSkipsCorruptEntry checks the fallback policy under damage: when
// the requested workload's entry is corrupt but exactly one healthy profile
// remains for the app, Select degrades to it instead of failing.
func TestSelectSkipsCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"WI", "RW"} {
		if err := s.Put(sampleProfile("Cassandra", w)); err != nil {
			t.Fatal(err)
		}
	}
	// An unrelated app must not participate in the fallback.
	if err := s.Put(sampleProfile("GraphChi", "pagerank")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, "Cassandra", "RW")

	got, err := s.Select("Cassandra", "RW")
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "Cassandra" || got.Workload != "WI" {
		t.Fatalf("fallback chose %s/%s, want Cassandra/WI", got.App, got.Workload)
	}
}

// TestSelectCorruptNoFallbackFails checks corruption is surfaced, not
// hidden, when no unambiguous healthy fallback exists.
func TestSelectCorruptNoFallbackFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"WI", "RW", "RI"} {
		if err := s.Put(sampleProfile("Cassandra", w)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, s, "Cassandra", "RI")

	_, err = s.Select("Cassandra", "RI")
	if err == nil {
		t.Fatal("corrupt entry selected despite two ambiguous fallbacks")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("corruption reported as absence: %v", err)
	}
}
