package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quickConfig shrinks every run so the whole experiment suite executes in
// seconds inside go test.
func quickConfig() Config {
	return Config{
		// The profiling window stays at its default: rare events
		// (flushes, rollovers) need the full window for Table 1's
		// sampling thresholds. Production runs are shortened.
		RunDuration: 8 * time.Minute,
		Warmup:      2 * time.Minute,
	}
}

func TestTargetsCoverPaperWorkloads(t *testing.T) {
	keys := make(map[string]bool)
	for _, target := range Targets() {
		keys[target.Key()] = true
	}
	for _, want := range []string{
		"Cassandra-WI", "Cassandra-WR", "Cassandra-RI",
		"Lucene", "GraphChi-CC", "GraphChi-PR",
	} {
		if !keys[want] {
			t.Errorf("target %s missing", want)
		}
	}
	if len(keys) != 6 {
		t.Errorf("want 6 targets, got %d", len(keys))
	}
}

// Figure 6's intervals are half-open: a pause on an edge counts in the
// interval the edge opens, and the last interval has no upper bound.
func TestFigure6Bucketing(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{16*time.Millisecond - 1, 0},
		{16 * time.Millisecond, 1},
		{100 * time.Millisecond, 3},
		{2047 * time.Millisecond, 7},
		{2048 * time.Millisecond, 8},
		{time.Hour, 8},
	} {
		if got := figure6Bucket(c.d); got != c.want {
			t.Errorf("figure6Bucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestFigure6Labels(t *testing.T) {
	for b, want := range map[int]string{0: "[0,16ms)", 3: "[64ms,128ms)", 8: "[2.048s,+inf)"} {
		if got := figure6Label(b); got != want {
			t.Errorf("figure6Label(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	s := NewSession(quickConfig())
	if err := s.RunExperiment("nope", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments skipped in -short mode")
	}
	s := NewSession(quickConfig())
	var buf bytes.Buffer
	if err := s.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Cassandra-WI", "GraphChi-PR", "Lucene", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}

func TestFigures3and4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments skipped in -short mode")
	}
	s := NewSession(quickConfig())
	var buf bytes.Buffer
	if err := s.Figure3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Figure4(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Figure 4") {
		t.Fatalf("missing figure headers:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestFigures5Through9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments skipped in -short mode")
	}
	s := NewSession(quickConfig())
	var buf bytes.Buffer
	for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9"} {
		if err := s.RunExperiment(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "worst-pause reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	t.Log("\n" + out)
}
