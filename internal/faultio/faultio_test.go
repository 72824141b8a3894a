package faultio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	plan, err := ParseSpec("seed=7;torn:site-*.bin@100;crash#2500;missing:sites.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || len(plan.Faults) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Faults[0].Kind != KindTorn || plan.Faults[0].Match != "site-*.bin" ||
		plan.Faults[0].Offset != 100 || !plan.Faults[0].OffsetSet {
		t.Fatalf("torn fault = %+v", plan.Faults[0])
	}
	if plan.Faults[1].Kind != KindCrash || plan.Faults[1].AfterOps != 2500 {
		t.Fatalf("crash fault = %+v", plan.Faults[1])
	}
	if plan.Faults[2].Kind != KindMissing || plan.Faults[2].Match != "sites.tsv" {
		t.Fatalf("missing fault = %+v", plan.Faults[2])
	}
	// Round-trip through String.
	again, err := ParseSpec(plan.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Fatalf("round-trip mismatch:\n%+v\n%+v", plan, again)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, spec := range []string{"", "seed=1", "explode", "torn:[", "crash#-1", "seed=x;torn", "torn:a.bin@-3", "truncate:a.bin"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q should not parse", spec)
		}
	}
}

// create opens name in dir through in, failing the test on error.
func create(t *testing.T, in *Injector, dir, name string) io.WriteCloser {
	t.Helper()
	w, err := in.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// contents returns what reached the disk for name in dir.
func contents(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNilInjectorPassesThrough(t *testing.T) {
	var in *Injector
	dir := t.TempDir()
	w := create(t, in, dir, "a.bin")
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, dir, "a.bin"); string(got) != "hello" {
		t.Fatalf("a.bin = %q", got)
	}
}

func TestTornWriterCutsAtOffset(t *testing.T) {
	plan, err := ParseSpec("torn:a.bin@5")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := create(t, New(plan), dir, "a.bin")
	file := w.(*faultWriter).f.(*os.File)
	// The writer must claim success for every byte.
	for _, chunk := range []string{"abc", "defg", "hij"} {
		n, err := w.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("write %q = %d, %v", chunk, n, err)
		}
	}
	// The tear closes the file it cut: nothing holds it open until Close.
	if _, err := file.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("file still open after the tear: write err = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, dir, "a.bin"); string(got) != "abcde" {
		t.Fatalf("persisted %q, want torn prefix \"abcde\"", got)
	}
}

func TestBitFlipFlipsExactlyOneBit(t *testing.T) {
	plan, err := ParseSpec("bitflip:a.bin@2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := create(t, New(plan), dir, "a.bin")
	payload := []byte{0, 0, 0, 0}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := contents(t, dir, "a.bin")
	if len(got) != 4 || got[0] != 0 || got[1] != 0 || got[3] != 0 {
		t.Fatalf("persisted % x", got)
	}
	if b := got[2]; b == 0 || b&(b-1) != 0 {
		t.Fatalf("byte 2 = %08b, want exactly one bit set", b)
	}
	if payload[2] != 0 {
		t.Fatal("caller's buffer was mangled")
	}
}

func TestCrashDropsEverythingAfterK(t *testing.T) {
	plan, err := ParseSpec("crash#2")
	if err != nil {
		t.Fatal(err)
	}
	in := New(plan)
	dir := t.TempDir()
	wa := create(t, in, dir, "a.bin")
	wb := create(t, in, dir, "b.bin")
	wa.Write([]byte("one"))   // op 1: persists
	wb.Write([]byte("two"))   // op 2: persists
	wa.Write([]byte("three")) // op 3: lost
	wb.Write([]byte("four"))  // op 4: lost
	if !in.Crashed() {
		t.Fatal("injector did not crash")
	}
	wa.Close()
	wb.Close()
	if a, b := contents(t, dir, "a.bin"), contents(t, dir, "b.bin"); string(a) != "one" || string(b) != "two" {
		t.Fatalf("persisted a=%q b=%q", a, b)
	}
}

func TestCreateMissingFileNeverAppears(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParseSpec("missing:gone.bin")
	if err != nil {
		t.Fatal(err)
	}
	in := New(plan)
	f, err := in.Create(filepath.Join(dir, "gone.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.bin")); !os.IsNotExist(err) {
		t.Fatalf("file exists: %v", err)
	}
	// Non-matching files are created normally.
	g, err := in.Create(filepath.Join(dir, "kept.bin"))
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("ok"))
	g.Close()
	data, err := os.ReadFile(filepath.Join(dir, "kept.bin"))
	if err != nil || string(data) != "ok" {
		t.Fatalf("kept.bin = %q, %v", data, err)
	}
}

// TestSpecErrorTexts pins the error texts of the outer grammar both
// parsers share.
func TestSpecErrorTexts(t *testing.T) {
	for _, tc := range []struct {
		parse func(string) error
		spec  string
		want  string
	}{
		{func(s string) error { _, err := ParseSpec(s); return err }, "seed=x;torn", `faultio: bad seed "x"`},
		{func(s string) error { _, err := ParseSpec(s); return err }, "seed=3", `faultio: spec "seed=3" plans no faults`},
		{func(s string) error { _, err := ParseNetSpec(s); return err }, "seed=x;drop%5", `faultio: bad seed "x"`},
		{func(s string) error { _, err := ParseNetSpec(s); return err }, " ; ", `faultio: net spec " ; " plans no faults`},
	} {
		if err := tc.parse(tc.spec); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("spec %q: err = %v, want prefix %q", tc.spec, err, tc.want)
		}
	}
}

// TestPublishWholeOrNothing: a publish either replaces the file with
// everything written or leaves the previous version in place, whether the
// file was swallowed, cut by a crash, or its writer failed.
func TestPublishWholeOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	check := func(label, want string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil || string(data) != want {
			t.Fatalf("%s: doc.json = %q, %v; want %q", label, data, err, want)
		}
	}
	var direct *Injector
	if err := direct.Publish(path, writeString("v1")); err != nil {
		t.Fatal(err)
	}
	check("nil injector", "v1")

	missing, err := ParseSpec("missing:doc.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := New(missing).Publish(path, writeString("v2")); err != nil {
		t.Fatal(err)
	}
	check("missing file", "v1")

	// crash#1: the first publish's one write lands, the second's is cut
	// after its temporary was created.
	crash, err := ParseSpec("crash#1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(crash)
	if err := in.Publish(path, writeString("v3")); err != nil {
		t.Fatal(err)
	}
	check("before the crash", "v3")
	if err := in.Publish(path, writeString("v4")); err != nil {
		t.Fatal(err)
	}
	check("crash mid-write", "v3")
	if err := in.Publish(path, writeString("v5")); err != nil {
		t.Fatal(err)
	}
	check("after the crash", "v3")

	boom := errors.New("boom")
	err = direct.Publish(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed writer: err = %v, want %v", err, boom)
	}
	check("failed writer", "v3")
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed writer left its temporary: %v", err)
	}
}
