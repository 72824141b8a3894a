package recorder

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polm2/internal/faultio"
	"polm2/internal/heap"
)

// refRecDir holds the checked-in recordings of the current format.
const refRecDir = "../../testdata/artifacts/v3/records"

// TestMagicBitFlipsRefused flips each bit of byte 0 of every checked-in
// stream: a damaged magic must be refused as corrupt, never reinterpreted
// as some other encoding of plausible ids. An empty stream is a tear
// before the header.
func TestMagicBitFlipsRefused(t *testing.T) {
	sites, err := Streams(refRecDir)
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, sid := range sites {
		data, err := os.ReadFile(filepath.Join(refRecDir, streamFile(sid)))
		if err != nil {
			t.Fatal(err)
		}
		if _, sal := decodeStream(data); sal.Err() != nil {
			t.Fatalf("site %d: pristine stream refused: %v", sid, sal.Err())
		}
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), data...)
			flipped[0] ^= 1 << bit
			if _, sal := decodeStream(flipped); !errors.Is(sal.Err(), ErrCorrupt) {
				t.Errorf("site %d, byte 0 bit %d flipped: err = %v, want ErrCorrupt", sid, bit, sal.Err())
			}
			cases++
		}
	}
	if cases != 136 {
		t.Fatalf("swept %d flips, want 136 (17 streams x 8 bits)", cases)
	}
	if _, sal := decodeStream(nil); !errors.Is(sal.Err(), ErrTruncated) {
		t.Fatalf("empty stream: err = %v, want ErrTruncated", sal.Err())
	}
}

// TestV1ArtifactsRefused: streams of earlier versions are refused with
// typed errors and salvage recovers nothing from them — version 1 is a
// stream of bare uvarints, version 2 framed raw ids where version 3 frames
// serial deltas, so its frames would decode into plausible but wrong ids.
// A site table without the version header is refused too.
func TestV1ArtifactsRefused(t *testing.T) {
	dir := t.TempDir()
	var v1 []byte
	for id := uint64(1); id <= 100; id++ {
		v1 = binary.AppendUvarint(v1, id*7)
	}
	v2, err := os.ReadFile(recordStream(t, dir, 2, 100, true))
	if err != nil {
		t.Fatal(err)
	}
	v2[len(streamFormat.Magic)] = 2
	for _, c := range []struct {
		version int
		data    []byte
	}{{1, v1}, {2, v2}} {
		if err := writeBytes(filepath.Join(dir, streamFile(1)), c.data); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIDs(dir, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("v%d stream: err = %v, want ErrCorrupt", c.version, err)
		}
		ids, sal, err := salvageIDs(dir, 1)
		if err != nil || len(ids) != 0 || sal.LostBytes != int64(len(c.data)) {
			t.Errorf("v%d stream salvage: %d ids, %+v, %v", c.version, len(ids), sal, err)
		}
	}

	if err := writeBytes(filepath.Join(dir, SiteTableFile), []byte("1\tMain.run:10\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSiteTable(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 site table: err = %v, want ErrCorrupt", err)
	}
	if _, tsal, err := SalvageSiteTable(dir); err != nil || tsal.Complete {
		t.Fatalf("v1 site table salvage: %+v, %v", tsal, err)
	}
}

// recordStream writes one framed stream of sequential ids and returns its
// path, leaving the stream committed (Close) or live (Flush only).
func recordStream(t *testing.T, dir string, site heap.SiteID, n int, commit bool) string {
	t.Helper()
	path := filepath.Join(dir, streamFile(site))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := w.appendID(heap.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if commit {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestLiveStreamStrictRefusesSalvageAccepts(t *testing.T) {
	dir := t.TempDir()
	recordStream(t, dir, 3, 5000, false)

	if _, err := ReadIDs(dir, 3); !errors.Is(err, ErrTruncated) {
		t.Fatalf("strict read of a live stream: err = %v, want ErrTruncated", err)
	}
	ids, sal, err := salvageIDs(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5000 {
		t.Fatalf("salvaged %d ids, want all 5000 (flush seals frames)", len(ids))
	}
	if sal.Complete || sal.LostBytes != 0 || sal.Confidence() != 1 {
		t.Fatalf("live-stream salvage = %+v", sal)
	}
}

func TestStreamTypedErrorsAndSalvagePrefix(t *testing.T) {
	dir := t.TempDir()
	path := recordStream(t, dir, 9, 5000, true)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation mid-stream: strict refuses with ErrTruncated, salvage
	// recovers a non-empty prefix.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIDs(dir, 9); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated strict err = %v", err)
	}
	ids, sal, err := salvageIDs(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || len(ids) >= 5000 || sal.Frames == 0 {
		t.Fatalf("truncated salvage: %d ids, %+v", len(ids), sal)
	}
	for i, id := range ids {
		if id != heap.ObjectID(i+1) {
			t.Fatalf("salvaged id %d = %d, not a prefix", i, id)
		}
	}

	// A flipped payload bit: the damaged frame and everything after drop,
	// the prefix before it survives.
	mangled := append([]byte(nil), full...)
	mangled[len(mangled)/2] ^= 0x40
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIDs(dir, 9); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("bit-flip strict err = %v", err)
	}
	ids, sal, err = salvageIDs(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) >= 5000 || sal.Complete {
		t.Fatalf("bit-flip salvage recovered too much: %d ids, %+v", len(ids), sal)
	}

	// Trailing junk after the commit trailer: corrupt in strict mode, but
	// salvage keeps every committed id.
	junk := append(append([]byte(nil), full...), 0xde, 0xad)
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIDs(dir, 9); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing-junk strict err = %v", err)
	}
	ids, _, err = salvageIDs(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5000 {
		t.Fatalf("trailing-junk salvage = %d ids, want 5000", len(ids))
	}
}

func TestSiteTableFooterDetectsTruncation(t *testing.T) {
	vm := newEngine(t)
	dir := t.TempDir()
	rec, err := New(Config{Dir: dir}, vm.Heap(), vm.Sites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	for line := 10; line < 20; line++ {
		if _, err := th.Alloc(line, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, SiteTableFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), siteTableHeader) {
		t.Fatalf("v2 site table missing header: %q", data[:20])
	}
	if _, err := LoadSiteTable(dir); err != nil {
		t.Fatal(err)
	}

	// Cut the footer off: strict load refuses, salvage recovers the
	// entries and says why it is incomplete.
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	cut := strings.Join(lines[:len(lines)-3], "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, SiteTableFile), []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSiteTable(dir); !errors.Is(err, ErrTruncated) {
		t.Fatalf("footerless strict err = %v", err)
	}
	got, tsal, err := SalvageSiteTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tsal.Complete || len(got) != len(lines)-4 {
		t.Fatalf("footerless salvage: %d sites, %+v", len(got), tsal)
	}
}

func TestSiteTableSalvageSkipsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	table := siteTableHeader + "\n1\tMain.run:10\ngarbage-without-tab\n2\tMain.run:11\n" + siteTableFooter + "3\n"
	if err := writeBytes(filepath.Join(dir, SiteTableFile), []byte(table)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSiteTable(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("malformed strict err = %v", err)
	}
	got, tsal, err := SalvageSiteTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || tsal.BadLines != 1 || tsal.Complete {
		t.Fatalf("malformed salvage: %d sites, %+v", len(got), tsal)
	}
}

func TestRecorderUnderTornFault(t *testing.T) {
	vm := newEngine(t)
	dir := t.TempDir()
	// Tear 8 KiB in, past the first frames, so a verified prefix survives
	// the cut. An id costs about one byte on disk, so 32 000 allocations
	// put the tear a quarter of the way into the stream.
	plan, err := faultio.ParseSpec("torn:site-*.bin@8192")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(Config{Dir: dir, Fault: faultio.New(plan)}, vm.Heap(), vm.Sites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	var site heap.SiteID
	for i := 0; i < 32000; i++ {
		obj, err := th.Alloc(10, 64)
		if err != nil {
			t.Fatal(err)
		}
		site = obj.Site
		if i%1000 == 999 {
			th.ReleaseLocals()
		}
	}
	// The fault is silent: the recorder believes everything succeeded.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadIDs(dir, site); err == nil {
		t.Fatal("strict read of a torn stream should fail")
	}
	ids, sal, err := salvageIDs(dir, site)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || len(ids) >= 32000 {
		t.Fatalf("torn salvage recovered %d of 32000 ids", len(ids))
	}
	if sal.Complete || sal.LostBytes == 0 {
		t.Fatalf("torn salvage account = %+v", sal)
	}
	// The table was not matched by the glob and survives whole.
	if _, err := LoadSiteTable(dir); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCrashLosesSuffixOnly(t *testing.T) {
	vm := newEngine(t)
	dir := t.TempDir()
	plan, err := faultio.ParseSpec("crash#2")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(Config{Dir: dir, Fault: faultio.New(plan)}, vm.Heap(), vm.Sites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	th := vm.NewThread("t")
	th.Enter("Main", "run")
	// The crash fires on the third write syscall. The stream goes out in
	// 32 KiB buffer flushes at about a byte per id, so 160 000 allocations
	// make it span five flushes and the crash cuts it mid-stream.
	var site heap.SiteID
	for i := 0; i < 160000; i++ {
		obj, err := th.Alloc(10, 64)
		if err != nil {
			t.Fatal(err)
		}
		site = obj.Site
		if i%1000 == 999 {
			th.ReleaseLocals()
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash cut the stream short but what landed is decodable.
	ids, sal, err := salvageIDs(dir, site)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Complete {
		t.Fatal("crashed stream cannot carry a commit trailer")
	}
	if len(ids) == 0 || len(ids) >= 160000 {
		t.Fatalf("crash salvage recovered %d of 160000 ids", len(ids))
	}
	// The site table's atomic rename was skipped after the crash: the
	// final file never appears, rather than appearing half-written.
	if _, err := os.Stat(filepath.Join(dir, SiteTableFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("site table after crash: %v", err)
	}
}
