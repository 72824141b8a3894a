package snapshot

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"polm2/internal/heap"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seq:     3,
		Cycle:   17,
		TakenAt: 90 * time.Second,
		Regions: []heap.RegionID{1, 2, 9},
		NoNeed:  []heap.PageKey{{Region: 2, Index: 5}, {Region: 9, Index: 0}},
		Pages: []PageRecord{
			{Key: heap.PageKey{Region: 1, Index: 0}, HeaderIDs: []heap.ObjectID{100, 42, 7}},
			{Key: heap.PageKey{Region: 9, Index: 3}, HeaderIDs: []heap.ObjectID{55}},
			{Key: heap.PageKey{Region: 9, Index: 4}},
		},
		SizeBytes: 12288,
		Duration:  4 * time.Millisecond,
	}
}

// normalize sorts a snapshot's slices the way the codec canonicalizes them:
// each page's ids ascending, which is allocation order.
func normalize(s *Snapshot) {
	for i := range s.Pages {
		slices.Sort(s.Pages[i].HeaderIDs)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A page decodes in ascending id order, whatever order it was written
	// in.
	if ids := got.Pages[0].HeaderIDs; !slices.Equal(ids, []heap.ObjectID{7, 42, 100}) {
		t.Fatalf("page ids decoded as %v, want ascending [7 42 100]", ids)
	}
	normalize(want)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCodecRoundTripAllocatedIDs round-trips pages of ids the heap would
// actually hand out: runs of nearby allocation serials, listed in any
// order. Each page must decode to exactly its ids in serial order, and the
// serial deltas must keep an id to about a byte on disk.
func TestCodecRoundTripAllocatedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := &Snapshot{Seq: 1, Regions: []heap.RegionID{1, 2, 3, 4}}
	serial, nIDs := uint64(0), 0
	for r := heap.RegionID(1); r <= 4; r++ {
		for idx := uint32(0); idx < 16; idx++ {
			pr := PageRecord{Key: heap.PageKey{Region: r, Index: idx}}
			for n := 8 + rng.Intn(32); n > 0; n-- {
				serial += 1 + uint64(rng.Intn(3)) // other sites' allocations interleave
				pr.HeaderIDs = append(pr.HeaderIDs, heap.ObjectID(serial))
			}
			rng.Shuffle(len(pr.HeaderIDs), func(i, j int) {
				pr.HeaderIDs[i], pr.HeaderIDs[j] = pr.HeaderIDs[j], pr.HeaderIDs[i]
			})
			nIDs += len(pr.HeaderIDs)
			s.Pages = append(s.Pages, pr)
		}
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	normalize(s)
	if !reflect.DeepEqual(s, got) {
		t.Fatal("allocated ids did not round-trip")
	}
	if size > 2*nIDs {
		t.Fatalf("%d ids took %d bytes; serial deltas should keep them near one byte each", nIDs, size)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not an image")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("PSNP\x63")); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Truncated image.
	var buf bytes.Buffer
	if err := sampleSnapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestWriteDirReadDir(t *testing.T) {
	dir := t.TempDir()
	a := sampleSnapshot()
	a.Seq = 1 // chain base: ReadDir refuses a rootless chain
	b := sampleSnapshot()
	b.Seq = 2
	writeImages(t, dir, []*Snapshot{b, a}, nil)
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("ReadDir order wrong: %+v", got)
	}
}

func TestReadDirEmpty(t *testing.T) {
	got, err := ReadDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty dir returned %d snapshots", len(got))
	}
}

// Property: any randomly generated snapshot round-trips through the codec,
// and the reconstructed store views agree.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Snapshot{
			Seq:       1 + rng.Intn(1000),
			Cycle:     uint64(rng.Intn(5000)),
			TakenAt:   time.Duration(rng.Intn(1 << 30)),
			SizeBytes: uint64(rng.Intn(1 << 20)),
			Duration:  time.Duration(rng.Intn(1 << 20)),
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			s.Regions = append(s.Regions, heap.RegionID(rng.Intn(1000)))
		}
		seenRegion := make(map[heap.RegionID]bool)
		dedup := s.Regions[:0]
		for _, r := range s.Regions {
			if !seenRegion[r] {
				seenRegion[r] = true
				dedup = append(dedup, r)
			}
		}
		s.Regions = dedup
		seenKey := make(map[heap.PageKey]bool)
		for i, n := 0, rng.Intn(10); i < n; i++ {
			key := heap.PageKey{Region: heap.RegionID(rng.Intn(100)), Index: uint32(rng.Intn(64))}
			if seenKey[key] {
				continue
			}
			seenKey[key] = true
			s.NoNeed = append(s.NoNeed, key)
		}
		seenKey = make(map[heap.PageKey]bool)
		for i, n := 0, rng.Intn(15); i < n; i++ {
			pr := PageRecord{Key: heap.PageKey{Region: heap.RegionID(rng.Intn(100)), Index: uint32(rng.Intn(64))}}
			if seenKey[pr.Key] {
				continue
			}
			seenKey[pr.Key] = true
			seenID := make(map[heap.ObjectID]bool)
			for j, m := 0, rng.Intn(8); j < m; j++ {
				id := heap.ObjectID(rng.Uint64())
				if !seenID[id] {
					seenID[id] = true
					pr.HeaderIDs = append(pr.HeaderIDs, id)
				}
			}
			s.Pages = append(s.Pages, pr)
		}

		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		// Compare via store views: order-insensitive equivalence.
		sa, sb := NewStore(), NewStore()
		if err := sa.Apply(s); err != nil {
			return false
		}
		if err := sb.Apply(got); err != nil {
			return false
		}
		return reflect.DeepEqual(sa.LiveIDs(), sb.LiveIDs()) &&
			got.Seq == s.Seq && got.Cycle == s.Cycle && got.SizeBytes == s.SizeBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceImagesReencode pins the image bytes: every checked-in
// image decodes, and writing the decoded snapshot reproduces the file
// byte for byte.
func TestReferenceImagesReencode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(refSnapDir, "snap-*.img"))
	if err != nil || len(paths) != 17 {
		t.Fatalf("%d reference images: %v", len(paths), err)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Read(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := s.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: re-encoding gave %d bytes, not the checked-in %d", filepath.Base(path), got.Len(), len(want))
		}
	}
}
