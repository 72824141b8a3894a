package recorder

import (
	"path/filepath"
	"testing"

	"polm2/internal/gc/ng2c"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/simclock"
)

func newEngine(t *testing.T) *jvm.VM {
	t.Helper()
	col, err := ng2c.NewG1(simclock.New(), ng2c.Config{
		Heap: heap.Config{
			RegionSize: 16 * 1024,
			PageSize:   4096,
			MaxBytes:   128 * 16 * 1024,
		},
		YoungBytes: 8 * 16 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jvm.New(col)
}

type fakeSink struct {
	cycles []uint64
	err    error
}

func (s *fakeSink) Snapshot(cycle uint64) error {
	s.cycles = append(s.cycles, cycle)
	return s.err
}

func TestConfigValidation(t *testing.T) {
	vm := newEngine(t)
	if _, err := New(Config{Dir: "/does/not/exist"}, vm.Heap(), vm.Sites(), nil); err == nil {
		t.Fatal("missing dir should fail")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := writeFile(file); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: file}, vm.Heap(), vm.Sites(), nil); err == nil {
		t.Fatal("non-directory should fail")
	}
	if _, err := New(Config{Dir: t.TempDir(), SnapshotEvery: -1}, vm.Heap(), vm.Sites(), nil); err == nil {
		t.Fatal("negative SnapshotEvery should fail")
	}
}

func writeFile(path string) error {
	return writeBytes(path, []byte("x"))
}

func TestRecordAndReadBack(t *testing.T) {
	vm := newEngine(t)
	dir := t.TempDir()
	rec, err := New(Config{Dir: dir}, vm.Heap(), vm.Sites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)

	th := vm.NewThread("t")
	th.Enter("Main", "run")
	var wantA, wantB []heap.ObjectID
	var siteA, siteB heap.SiteID
	for i := 0; i < 50; i++ {
		obj, err := th.Alloc(10, 64)
		if err != nil {
			t.Fatal(err)
		}
		wantA = append(wantA, obj.ID)
		siteA = obj.Site
	}
	th.Call(20, "Helper", "make")
	for i := 0; i < 30; i++ {
		obj, err := th.Alloc(5, 64)
		if err != nil {
			t.Fatal(err)
		}
		wantB = append(wantB, obj.ID)
		siteB = obj.Site
	}
	th.Return()

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	table, err := LoadSiteTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 {
		t.Fatalf("site table has %d entries, want 2", len(table))
	}
	if table[siteA].Leaf() != (jvm.CodeLoc{Class: "Main", Method: "run", Line: 10}) {
		t.Fatalf("site A trace wrong: %v", table[siteA])
	}
	if len(table[siteB]) != 2 {
		t.Fatalf("site B trace depth = %d, want 2", len(table[siteB]))
	}

	gotA, err := readIDs(dir, siteA)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != len(wantA) {
		t.Fatalf("site A ids = %d, want %d", len(gotA), len(wantA))
	}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Fatalf("site A id %d mismatch", i)
		}
	}
	gotB, err := readIDs(dir, siteB)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB) != len(wantB) {
		t.Fatalf("site B ids = %d, want %d", len(gotB), len(wantB))
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("site B id %d mismatch", i)
		}
	}
}

func TestSnapshotTriggerEveryCycle(t *testing.T) {
	vm := newEngine(t)
	sink := &fakeSink{}
	rec, err := New(Config{Dir: t.TempDir()}, vm.Heap(), vm.Sites(), sink)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	for i := 0; i < 3; i++ {
		if err := vm.Collector().ForceCollect(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.cycles) != 3 {
		t.Fatalf("sink saw %d snapshots, want 3", len(sink.cycles))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEveryK(t *testing.T) {
	vm := newEngine(t)
	sink := &fakeSink{}
	rec, err := New(Config{Dir: t.TempDir(), SnapshotEvery: 2}, vm.Heap(), vm.Sites(), sink)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	for i := 0; i < 5; i++ {
		if err := vm.Collector().ForceCollect(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.cycles) != 2 {
		t.Fatalf("sink saw %d snapshots, want 2 (cycles 2 and 4)", len(sink.cycles))
	}
	if sink.cycles[0] != 2 || sink.cycles[1] != 4 {
		t.Fatalf("snapshot cycles = %v, want [2 4]", sink.cycles)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkErrorIsSticky(t *testing.T) {
	vm := newEngine(t)
	sink := &fakeSink{err: errTest}
	rec, err := New(Config{Dir: t.TempDir()}, vm.Heap(), vm.Sites(), sink)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(vm)
	if err := vm.Collector().ForceCollect(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err == nil {
		t.Fatal("Close should surface the sink error")
	}
}

func TestLoadSiteTableErrors(t *testing.T) {
	if _, err := LoadSiteTable(t.TempDir()); err == nil {
		t.Fatal("missing site table should fail")
	}
	dir := t.TempDir()
	if err := writeBytes(filepath.Join(dir, SiteTableFile), []byte("garbage-without-tab\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSiteTable(dir); err == nil {
		t.Fatal("malformed site table should fail")
	}
}

func TestReadIDsMissingStream(t *testing.T) {
	if _, err := ReadIDs(t.TempDir(), 7); err == nil {
		t.Fatal("missing stream should fail")
	}
}
