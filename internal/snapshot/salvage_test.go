package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polm2/internal/faultio"
	"polm2/internal/framelog"
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
	a.Seq = 1 // chain base: ReadDir refuses a rootless chain
	b := sampleSnapshot()
	b.Seq = 2
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

// imageWithFlag encodes s with its header flag byte set to flag, framed
// afresh so every CRC holds and only the flag check can refuse it.
func imageWithFlag(t *testing.T, s *Snapshot, flag byte) []byte {
	t.Helper()
	hdr := s.encodeHeader()
	off := 0
	for range 3 { // seq, cycle, instant precede the flag
		_, n := binary.Uvarint(hdr[off:])
		off += n
	}
	if hdr[off] != 1 {
		t.Fatalf("header flag byte at %d is %d, want 1", off, hdr[off])
	}
	hdr[off] = flag
	var buf bytes.Buffer
	fw, err := framelog.NewWriter(bufio.NewWriter(&buf), imageFormat)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{hdr, s.encodeRegions(), s.encodeNoNeed(), s.encodePages()} {
		if err := fw.Frame(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Commit(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeaderFlagRefused: every image is an increment, so a header flag
// other than 1 is damage. Read refuses it as corrupt, and ReadDirSalvage
// drops it and every image after it.
func TestHeaderFlagRefused(t *testing.T) {
	for _, flag := range []byte{0, 2} {
		t.Run(fmt.Sprintf("flag=%d", flag), func(t *testing.T) {
			bad := sampleSnapshot()
			if _, err := Read(bytes.NewReader(imageWithFlag(t, bad, 1))); err != nil {
				t.Fatalf("re-framed image with flag 1 refused: %v", err)
			}
			if _, err := Read(bytes.NewReader(imageWithFlag(t, bad, flag))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flag %d: err = %v, want ErrCorrupt", flag, err)
			}

			dir := t.TempDir()
			var snaps []*Snapshot
			for i := 1; i <= 4; i++ {
				s := sampleSnapshot()
				s.Seq = i
				snaps = append(snaps, s)
			}
			writeImages(t, dir, snaps, nil)
			if err := os.WriteFile(filepath.Join(dir, FileName(2)), imageWithFlag(t, snaps[1], flag), 0o644); err != nil {
				t.Fatal(err)
			}
			got, sal, err := ReadDirSalvage(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Seq != 1 || sal.Usable != 1 || sal.Total != 4 || len(sal.Dropped) != 3 {
				t.Fatalf("salvage = %d snaps, %+v", len(got), sal)
			}
			if !strings.HasPrefix(sal.Dropped[0], FileName(2)+": ") || !errors.Is(sal.first, ErrCorrupt) {
				t.Fatalf("flagged image not dropped as corrupt: %q (first %v)", sal.Dropped[0], sal.first)
			}
			for i, seq := range []int{3, 4} {
				if want := FileName(seq) + ": incremental after broken chain"; sal.Dropped[1+i] != want {
					t.Fatalf("dropped[%d] = %q, want %q", 1+i, sal.Dropped[1+i], want)
				}
			}
			if _, err := ReadDir(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadDir err = %v, want ErrCorrupt", err)
			}
		})
	}
}
