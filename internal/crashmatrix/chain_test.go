package crashmatrix

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"polm2"
	"polm2/internal/core"
	"polm2/internal/heap"
	"polm2/internal/snapshot"
)

// TestLostImageResurrectsNothing profiles Cassandra-WI as the matrix's
// pristine run does, persisting its images, and keeps beside them the same
// images listing every page the heap reported no-need (the full listing),
// where an image lists only the pages that became no-need since the
// previous one. It then deletes or truncates each middle image k in turn:
// ReadDirSalvage must keep images 1..k-1, and they must rebuild the view of
// the full listing's images 1..k-1. A lost image ends the chain, so no page
// it would have deleted comes back, and nothing a later image relies on is
// read.
func TestLostImageResurrectsNothing(t *testing.T) {
	snapDir := t.TempDir()
	s, err := core.NewSim(core.CollectorNG2C, nil, core.RunOptions{Duration: 45 * time.Second, Scale: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.VM().Heap()
	var full []*snapshot.Snapshot
	var listed, fullListed int
	rec, err := s.Record(core.ProfileOptions{RecordsDir: t.TempDir(), SnapshotDir: snapDir, SnapshotEvery: 2},
		func(snap *snapshot.Snapshot) {
			img := *snap
			img.NoNeed = nil
			h.Pages(func(ps heap.PageState) {
				if ps.NoNeed {
					img.NoNeed = append(img.NoNeed, ps.Key)
				}
			})
			full = append(full, &img)
			listed += len(snap.NoNeed)
			fullListed += len(img.NoNeed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drive(polm2.AppByName("Cassandra"), "WI"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	n := len(full)
	if n < 4 || listed >= fullListed {
		t.Fatalf("degenerate run: %d images list %d no-need keys, the full listing %d", n, listed, fullListed)
	}
	t.Logf("%d images list %d no-need keys, the full listing %d", n, listed, fullListed)
	// views[i] is the full listing's view after images 1..i.
	views := make([][]heap.ObjectID, n+1)
	store := snapshot.NewStore()
	for i, img := range full {
		if err := store.Apply(img); err != nil {
			t.Fatal(err)
		}
		views[i+1] = store.LiveIDs()
	}
	files := make([][]byte, n+1)
	for seq := 1; seq <= n; seq++ {
		if files[seq], err = os.ReadFile(filepath.Join(snapDir, snapshot.FileName(seq))); err != nil {
			t.Fatal(err)
		}
	}

	for k := 2; k < n; k++ {
		for _, damage := range []string{"delete", "truncate"} {
			t.Run(fmt.Sprintf("%s-%d", damage, k), func(t *testing.T) {
				dir := t.TempDir()
				for seq := 1; seq <= n; seq++ {
					data := files[seq]
					if seq == k {
						if damage == "delete" {
							continue
						}
						data = data[:len(data)/2]
					}
					if err := os.WriteFile(filepath.Join(dir, snapshot.FileName(seq)), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				snaps, sal, err := snapshot.ReadDirSalvage(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(snaps) != k-1 || sal.Usable != k-1 || sal.Clean() {
					t.Fatalf("salvage kept %d images (%+v), want the %d before the damage", len(snaps), sal, k-1)
				}
				store := snapshot.NewStore()
				for _, img := range snaps {
					if err := store.Apply(img); err != nil {
						t.Fatal(err)
					}
				}
				if got := store.LiveIDs(); !slices.Equal(got, views[k-1]) {
					t.Fatalf("salvaged prefix holds %d ids, the full listing's images 1..%d hold %d", len(got), k-1, len(views[k-1]))
				}
			})
		}
	}
}
