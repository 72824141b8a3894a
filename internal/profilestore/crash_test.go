package profilestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"polm2/internal/analyzer"
	"polm2/internal/faultio"
)

// storeFiles reads every file the store's globs see, keyed by its path
// relative to dir.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, glob := range []string{"*.rollout.json", filepath.Join("evidence", "*.evidence.json")} {
		paths, err := filepath.Glob(filepath.Join(dir, glob))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				t.Fatal(err)
			}
			out[rel] = data
		}
	}
	return out
}

// TestCrashSweepKeepsEveryFileWhole replays a fixed write sequence under
// crash#k for every k. Each store write is one write syscall, so the
// first k writes reach the disk and the rest are lost. After a reopen
// without faults every file the store's globs see holds exactly the bytes
// its last landed write published (or its seeded bytes), and every read
// path succeeds: a lost write leaves the previous version, never an empty
// file.
func TestCrashSweepKeepsEveryFileWhole(t *testing.T) {
	plan := func(version uint64) *analyzer.Profile {
		return seedProfile("Cassandra", "WI", 100*version)
	}
	seed := func(s *Store) error {
		if err := s.Put(plan(2)); err != nil {
			return err
		}
		for i, inst := range []string{"inst-a", "inst-b"} {
			if err := s.PutEvidenceStamped(inst, Stamp{Seq: 1, Origin: "d1"}, evProfile("Cassandra", "WI", uint64(10+i))); err != nil {
				return err
			}
		}
		return s.PutRollout("Cassandra", "WI", []byte(`{"state":"stable"}`))
	}
	writes := []func(s *Store) error{
		func(s *Store) error { return s.Put(plan(3)) },
		func(s *Store) error {
			return s.PutEvidenceStamped("inst-a", Stamp{Seq: 2, Origin: "d1"}, evProfile("Cassandra", "WI", 20))
		},
		func(s *Store) error {
			return s.PutEvidenceStamped("inst-b", Stamp{Seq: 2, Origin: "d1"}, evProfile("Cassandra", "WI", 21))
		},
		func(s *Store) error {
			return s.PutEvidenceStamped("inst-c", Stamp{Seq: 1, Origin: "d1"}, evProfile("Cassandra", "WI", 22))
		},
		func(s *Store) error { return s.PutRollout("Cassandra", "WI", []byte(`{"state":"canary"}`)) },
		func(s *Store) error { return s.Put(plan(4)) },
	}

	// want[j] is the store's file set after the first j writes land,
	// recorded from a fault-free replay.
	ref, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := seed(ref); err != nil {
		t.Fatal(err)
	}
	want := []map[string][]byte{storeFiles(t, ref.Dir())}
	for _, w := range writes {
		if err := w(ref); err != nil {
			t.Fatal(err)
		}
		want = append(want, storeFiles(t, ref.Dir()))
	}

	for k := 1; k <= len(writes); k++ {
		t.Run(fmt.Sprintf("crash#%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed(s); err != nil {
				t.Fatal(err)
			}
			spec, err := faultio.ParseSpec(fmt.Sprintf("crash#%d", k))
			if err != nil {
				t.Fatal(err)
			}
			s.SetFault(faultio.New(spec))
			for i, w := range writes {
				if err := w(s); err != nil {
					t.Fatalf("write %d surfaced an error the process could not observe: %v", i+1, err)
				}
			}

			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := storeFiles(t, dir)
			if len(got) != len(want[k]) {
				t.Fatalf("store holds %v, want %v", sortedNames(got), sortedNames(want[k]))
			}
			for name, data := range want[k] {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("%s = %q, want %q", name, got[name], data)
				}
			}
			if _, audit, err := s.EvidenceAll(); err != nil || audit.Corrupt != 0 {
				t.Fatalf("EvidenceAll after crash#%d: %v, audit %+v", k, err, audit)
			}
			if _, err := s.Get("Cassandra", "WI"); err != nil {
				t.Fatalf("Get after crash#%d: %v", k, err)
			}
			if _, err := s.Rollout("Cassandra", "WI"); err != nil {
				t.Fatalf("Rollout after crash#%d: %v", k, err)
			}
		})
	}
}

func sortedNames(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
