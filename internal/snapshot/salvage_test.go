package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polm2/internal/faultio"
)

// refSnapDir holds the checked-in images of the current format.
const refSnapDir = "../../testdata/artifacts/v3/snaps"

// TestV1ImageRefused: an image of an earlier version is refused as
// corrupt rather than decoded — version 1 is the unframed pre-CRC format,
// version 2 stored hash-valued ids where version 3 stores serial deltas,
// so reading its pages as v3 would yield plausible but wrong ids — and an
// empty image is a tear before the header.
func TestV1ImageRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(refSnapDir, FileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine image refused: %v", err)
	}
	for _, version := range []byte{1, 2} {
		old := append([]byte(nil), data...)
		old[len(imageFormat.Magic)] = version
		if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version-%d image: err = %v, want ErrCorrupt", version, err)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty image: err = %v, want ErrTruncated", err)
	}
}

func TestReadTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSnapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation anywhere before the trailer reports ErrTruncated.
	for _, cut := range []int{5, 7, len(full) / 2, len(full) - 2} {
		_, err := Read(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// A bit flip in a section payload reports ErrCorrupt.
	for _, off := range []int{6, 12, len(full) / 2, len(full) - 3} {
		mangled := append([]byte(nil), full...)
		mangled[off] ^= 0x10
		_, err := Read(bytes.NewReader(mangled))
		if err == nil {
			t.Errorf("flip at %d: accepted", off)
			continue
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Errorf("flip at %d: untyped error %v", off, err)
		}
	}
	// An absurd section length is corrupt, not an allocation attempt.
	huge := append([]byte(nil), full[:5]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Read(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge section err = %v", err)
	}
}

// writeImages publishes each snapshot with WriteImage, the way the Dumper
// persists them as they are taken.
func writeImages(t *testing.T, dir string, snaps []*Snapshot, fio *faultio.Injector) {
	t.Helper()
	for _, s := range snaps {
		if err := WriteImage(dir, s, fio); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteDirAtomicNoTemporaries(t *testing.T) {
	dir := t.TempDir()
	a := sampleSnapshot()
	a.Incremental = false // chain base: ReadDir refuses a rootless chain
	b := sampleSnapshot()
	b.Seq = 4
	writeImages(t, dir, []*Snapshot{a, b}, nil)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temporary %s left behind", e.Name())
		}
	}
	if _, err := ReadDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDirCrashLeavesNoAmbiguousImage(t *testing.T) {
	dir := t.TempDir()
	var snaps []*Snapshot
	for i := 1; i <= 6; i++ {
		s := sampleSnapshot()
		s.Seq = i
		snaps = append(snaps, s)
	}
	plan, err := faultio.ParseSpec("crash#3")
	if err != nil {
		t.Fatal(err)
	}
	writeImages(t, dir, snaps, faultio.New(plan))
	// Every published image decodes; the crash lost a suffix, never a
	// half-written file.
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("published images must be whole: %v", err)
	}
	if len(got) == 0 || len(got) >= 6 {
		t.Fatalf("crash published %d of 6 images", len(got))
	}
	for i, s := range got {
		if s.Seq != i+1 {
			t.Fatalf("published images are not a prefix: %+v", got)
		}
	}
}

func TestReadDirSalvagePrefixAndGap(t *testing.T) {
	dir := t.TempDir()
	var snaps []*Snapshot
	for i := 1; i <= 5; i++ {
		s := sampleSnapshot()
		s.Seq = i
		snaps = append(snaps, s)
	}
	writeImages(t, dir, snaps, nil)

	// Clean directory: everything usable.
	got, sal, err := ReadDirSalvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() || len(got) != 5 {
		t.Fatalf("clean dir salvage = %+v", sal)
	}

	// Truncate image 3: images 1-2 remain usable, 3-5 drop.
	if err := os.Truncate(filepath.Join(dir, FileName(3)), 9); err != nil {
		t.Fatal(err)
	}
	got, sal, err = ReadDirSalvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || sal.Usable != 2 || sal.Total != 5 || len(sal.Dropped) != 3 {
		t.Fatalf("truncated salvage: %d snaps, %+v", len(got), sal)
	}

	// A missing image severs the chain the same way.
	writeImages(t, dir, snaps, nil)
	if err := os.Remove(filepath.Join(dir, FileName(2))); err != nil {
		t.Fatal(err)
	}
	got, sal, err = ReadDirSalvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || sal.Usable != 1 {
		t.Fatalf("gap salvage: %d snaps, %+v", len(got), sal)
	}
}

func TestReadDirSalvageFullSnapshotRestartsChain(t *testing.T) {
	dir := t.TempDir()
	var snaps []*Snapshot
	for i := 1; i <= 5; i++ {
		s := sampleSnapshot()
		s.Seq = i
		snaps = append(snaps, s)
	}
	snaps[3].Incremental = false // image 4 is a full dump
	writeImages(t, dir, snaps, nil)
	if err := os.Truncate(filepath.Join(dir, FileName(2)), 9); err != nil {
		t.Fatal(err)
	}
	got, sal, err := ReadDirSalvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 1 usable, 2 damaged, 3 dropped (incremental after break), 4 full
	// restarts the chain, 5 chains onto it.
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 4 || got[2].Seq != 5 {
		t.Fatalf("salvage = %+v (%+v)", got, sal)
	}
	// The salvaged sequence replays through the store without error.
	store := NewStore()
	for _, s := range got {
		if err := store.Apply(s); err != nil {
			t.Fatal(err)
		}
	}
}
