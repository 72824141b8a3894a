package profilestore

import (
	"bytes"
	"os"
	"sort"
	"testing"

	"polm2/internal/analyzer"
)

func evProfile(app, workload string, n uint64) *analyzer.Profile {
	return &analyzer.Profile{
		App: app, Workload: workload, Generations: 1,
		Sites: []analyzer.SiteStat{
			{Trace: "App.serve:1;Worker.tick:9", Allocated: n, Buckets: []uint64{n}, Gen: 1},
		},
	}
}

func TestStampOrder(t *testing.T) {
	cases := []struct {
		a, b Stamp
		less bool
	}{
		{Stamp{}, Stamp{Seq: 1}, true},                                  // zero loses to any write
		{Stamp{Seq: 1, Origin: "b"}, Stamp{Seq: 2, Origin: "a"}, true},  // seq dominates origin
		{Stamp{Seq: 3, Origin: "a"}, Stamp{Seq: 3, Origin: "b"}, true},  // origin breaks ties
		{Stamp{Seq: 3, Origin: "b"}, Stamp{Seq: 3, Origin: "a"}, false}, // ...in one direction only
		{Stamp{Seq: 5, Origin: "x"}, Stamp{Seq: 5, Origin: "x"}, false}, // irreflexive
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Stamp{}).IsZero() || (Stamp{Seq: 1}).IsZero() || (Stamp{Origin: "d"}).IsZero() {
		t.Error("IsZero misclassifies")
	}
	if got := (Stamp{Seq: 7, Origin: "daemon-1"}).String(); got != "7@daemon-1" {
		t.Errorf("String() = %q", got)
	}
}

func TestPutEvidenceStampedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Seq: 3, Origin: "daemon-0"}
	if err := s.PutEvidenceStamped("inst-1", st, evProfile("App", "w", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEvidenceStamped("inst-2", Stamp{}, evProfile("App", "w", 20)); err != nil {
		t.Fatal(err)
	}
	all, _, err := s.EvidenceAll()
	if err != nil {
		t.Fatal(err)
	}
	docs := all[Key{App: "App", Workload: "w"}]
	if len(docs) != 2 {
		t.Fatalf("EvidenceAll holds %d docs for App/w, want 2", len(docs))
	}
	if got := docs["inst-1"].Stamp; got != st {
		t.Errorf("stamped doc round-tripped stamp %v, want %v", got, st)
	}
	if got := docs["inst-2"].Stamp; !got.IsZero() {
		t.Errorf("unstamped doc carries stamp %v, want zero", got)
	}
	// The unstamped write must not serialize a stamp field at all: the
	// on-disk bytes of a replication-off daemon's store are unchanged.
	raw, err := os.ReadFile(s.evidencePath(Key{App: "App", Workload: "w"}, "inst-2"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"stamp"`)) {
		t.Errorf("unstamped evidence file contains a stamp field:\n%s", raw)
	}
	// Evidence (the unstamped view) still sees both.
	ev, err := s.Evidence("App", "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev["inst-1"].Sites[0].Allocated != 10 {
		t.Fatalf("Evidence view inconsistent: %v", ev)
	}
}

// TestPutEvidenceStampedZeroStamp proves the zero stamp is treated as
// "legacy": PutEvidenceStamped with a zero stamp writes an unstamped
// document, with no stamp field at all.
func TestPutEvidenceStampedZeroStamp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEvidenceStamped("inst-1", Stamp{}, evProfile("App", "w", 5)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.evidencePath(Key{App: "App", Workload: "w"}, "inst-1"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"stamp"`)) {
		t.Errorf("zero-stamp evidence file contains a stamp field:\n%s", raw)
	}
}

func TestEvidenceAllGroupsByKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Before any evidence: empty maps, no error.
	all, _, err := s.EvidenceAll()
	if err != nil || len(all) != 0 {
		t.Fatalf("empty store EvidenceAll = %v, %v", all, err)
	}
	ev, err := s.Evidence("App0", "w")
	if err != nil || ev == nil || len(ev) != 0 {
		t.Fatalf("empty store Evidence = %v, %v", ev, err)
	}
	puts := []struct {
		app, inst string
		seq       uint64
	}{
		{"App0", "inst-0", 1},
		{"App0", "inst-2", 2},
		{"App1", "inst-1", 1},
		{"App1", "inst-0", 4}, // same instance id under a second key
	}
	for _, p := range puts {
		st := Stamp{Seq: p.seq, Origin: "daemon-0"}
		if err := s.PutEvidenceStamped(p.inst, st, evProfile(p.app, "w", p.seq*10)); err != nil {
			t.Fatal(err)
		}
	}
	all, _, err = s.EvidenceAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("EvidenceAll holds %d keys, want 2", len(all))
	}
	k0 := Key{App: "App0", Workload: "w"}
	k1 := Key{App: "App1", Workload: "w"}
	if len(all[k0]) != 2 || len(all[k1]) != 2 {
		t.Fatalf("per-key doc counts = %d/%d, want 2/2", len(all[k0]), len(all[k1]))
	}
	if got := all[k1]["inst-0"].Stamp.Seq; got != 4 {
		t.Errorf("inst-0 under App1 has seq %d, want 4 (cross-key collision?)", got)
	}
	if got := all[k0]["inst-0"].Stamp.Seq; got != 1 {
		t.Errorf("inst-0 under App0 has seq %d, want 1", got)
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []Key{k0, k1}
	if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("List = %v, want the evidence keys %v", keys, want)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() }) {
		t.Error("List not sorted")
	}
}

// A key sum is a set hash: order-independent, self-inverse per pair, blind
// to zero stamps, sensitive to every field of a pair, and its text form
// round-trips or refuses.
func TestKeySum(t *testing.T) {
	pairs := []struct {
		instance string
		stamp    Stamp
	}{
		{"inst-1", Stamp{Seq: 3, Origin: "a"}},
		{"inst-2", Stamp{Seq: 3, Origin: "a"}},
		{"inst-1", Stamp{Seq: 4, Origin: "a"}},
		{"inst-1", Stamp{Seq: 3, Origin: "b"}},
		{"inst-", Stamp{Seq: 3, Origin: "1a"}}, // no ambiguity across the field boundary
	}
	var fwd, rev KeySum
	seen := make(map[KeySum]bool)
	for i := range pairs {
		var one KeySum
		one.Toggle(pairs[i].instance, pairs[i].stamp)
		if seen[one] || one == (KeySum{}) {
			t.Fatalf("pair %d hashes to zero or to an earlier pair's value", i)
		}
		seen[one] = true
		fwd.Toggle(pairs[i].instance, pairs[i].stamp)
		j := len(pairs) - 1 - i
		rev.Toggle(pairs[j].instance, pairs[j].stamp)
	}
	if fwd != rev {
		t.Fatalf("sum depends on order: %s vs %s", fwd, rev)
	}
	fwd.Toggle("inst-legacy", Stamp{})
	if fwd != rev {
		t.Fatal("a zero stamp moved the sum")
	}
	for _, p := range pairs {
		fwd.Toggle(p.instance, p.stamp)
	}
	if fwd != (KeySum{}) {
		t.Fatalf("toggling every pair out leaves %s, want zero", fwd)
	}

	text, _ := rev.MarshalText()
	var back KeySum
	if err := back.UnmarshalText(text); err != nil || back != rev || len(text) != 32 {
		t.Fatalf("text round trip of %s: %q, %v", rev, text, err)
	}
	for _, bad := range []string{"", "beef", string(text) + "00", "zz" + string(text[2:])} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
}
