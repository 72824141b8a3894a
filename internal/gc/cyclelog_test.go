package gc

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"polm2/internal/heap"
	"polm2/internal/simclock"
	"polm2/internal/trace"
)

// TestCycleLogNumbersPausesByPosition checks the log's one record: each
// pause is numbered by its position (1..n), the cycle count is the length
// of the log, Pauses hands out a copy, listeners run in registration order
// with the pause's number and the collection's live set, and the clock
// advances by each pause's duration.
func TestCycleLogNumbersPausesByPosition(t *testing.T) {
	clk := simclock.New()
	l := NewCycleLog(clk)
	if l.Clock() != clk {
		t.Fatal("Clock is not the log's clock")
	}
	live := newHeap(t).Trace()
	var calls []string
	var cycles []uint64
	l.OnCycleEnd(func(cycle uint64, got *heap.LiveSet) {
		if got != live {
			t.Errorf("cycle %d: listener got another live set", cycle)
		}
		calls = append(calls, "first")
		cycles = append(cycles, cycle)
	})
	l.OnCycleEnd(func(cycle uint64, _ *heap.LiveSet) {
		calls = append(calls, "second")
	})

	durations := []time.Duration{3 * time.Millisecond, time.Millisecond, 5 * time.Millisecond}
	var elapsed time.Duration
	for i, d := range durations {
		// A caller's Cycle is overwritten by the pause's position.
		l.EndCycle(Pause{Start: clk.Now(), Duration: d, Kind: PauseYoung, Cycle: 99}, live)
		elapsed += d
		if got := clk.Now(); got != elapsed {
			t.Fatalf("after pause %d: clock %v, want %v", i+1, got, elapsed)
		}
		if got := l.Cycles(); got != uint64(i+1) {
			t.Fatalf("after pause %d: Cycles = %d", i+1, got)
		}
	}

	pauses := l.Pauses()
	if uint64(len(pauses)) != l.Cycles() {
		t.Fatalf("Cycles = %d, len(Pauses) = %d", l.Cycles(), len(pauses))
	}
	for i, p := range pauses {
		if p.Cycle != uint64(i+1) || p.Duration != durations[i] {
			t.Errorf("pause %d = cycle %d, %v; want cycle %d, %v", i, p.Cycle, p.Duration, i+1, durations[i])
		}
	}
	if want := []uint64{1, 2, 3}; !slices.Equal(cycles, want) {
		t.Errorf("listener cycles = %v, want %v", cycles, want)
	}
	if want := []string{"first", "second", "first", "second", "first", "second"}; !slices.Equal(calls, want) {
		t.Errorf("listener order = %v, want %v", calls, want)
	}

	pauses[0].Cycle = 42
	if l.Pauses()[0].Cycle != 1 {
		t.Fatal("Pauses returned the log's own slice")
	}
}

// TestPhaseBreakdownSumsToPause checks the decomposition's invariants.
func TestPhaseBreakdownSumsToPause(t *testing.T) {
	m := benchCostModel()
	sum := func(phases [4]PhaseCost) time.Duration {
		var d time.Duration
		for _, ph := range phases {
			d += ph.Duration
		}
		return d
	}

	p := benchPause(1)
	p.Duration = m.EvacuationCost(p.RegionsCollected, 1000, p.BytesCopied, p.ObjectsCopied)
	phases := m.PhaseBreakdown(p)
	if got := sum(phases); got != p.Duration {
		t.Fatalf("phases sum to %v, pause is %v", got, p.Duration)
	}
	want := [4]PhaseCost{
		{Name: "safepoint", Duration: m.Base},
		{Name: "region", Duration: time.Duration(p.RegionsCollected) * m.PerRegion},
		{Name: "evacuate", Duration: time.Duration(p.BytesCopied)*m.PerCopiedByte + time.Duration(p.ObjectsCopied)*m.PerCopiedObject},
		{Name: "scan", Duration: 1000 * m.PerRemsetEntry},
	}
	if phases != want {
		t.Fatalf("PhaseBreakdown = %+v, want %+v", phases, want)
	}

	// A concurrent cycle's checkpoint pause is all safepoint, whatever
	// its work counters say.
	p.Kind = PauseConcurrent
	p.Duration = 2 * time.Millisecond
	phases = m.PhaseBreakdown(p)
	if phases[0].Duration != p.Duration || sum(phases) != p.Duration {
		t.Fatalf("concurrent pause phases = %+v, want all %v safepoint", phases, p.Duration)
	}

	// Under a mismatched model the residual scan clamps at zero.
	p.Kind = PauseYoung
	p.Duration = m.Base / 2
	if phases = m.PhaseBreakdown(p); phases[3].Duration != 0 {
		t.Fatalf("scan = %v under a mismatched model, want 0", phases[3].Duration)
	}
}

// TestTracePausesEmitsSpans counts the spans: one cycle span plus one per
// phase for every pause, and none from a disabled tracer.
func TestTracePausesEmitsSpans(t *testing.T) {
	m := benchCostModel()
	pauses := []Pause{benchPause(1), benchPause(2), benchPause(3)}

	var buf bytes.Buffer
	tr := trace.New(trace.Options{Writer: &buf})
	TraceCycle(tr, m, pauses[0])
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 5 {
		t.Fatalf("TraceCycle emitted %d records, want 5", got)
	}

	buf.Reset()
	TracePauses(tr, m, pauses)
	recs, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5*len(pauses) {
		t.Fatalf("TracePauses emitted %d records, want %d", len(recs), 5*len(pauses))
	}
	cycles := 0
	for _, r := range recs {
		if r.Name == "cycle" {
			cycles++
		}
	}
	if cycles != len(pauses) {
		t.Fatalf("%d cycle spans, want %d", cycles, len(pauses))
	}

	TracePauses(nil, m, pauses) // the disabled tracer emits nothing
}

// TestFreeDeadRegion sweeps a region with no live resident and returns it
// to the free pool.
func TestFreeDeadRegion(t *testing.T) {
	h := newHeap(t)
	r, err := h.NewRegion(heap.Young)
	if err != nil {
		t.Fatal(err)
	}
	var dead []*heap.Object
	for i := 0; i < 3; i++ {
		obj, err := h.Allocate(r, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		dead = append(dead, obj)
	}
	FreeDeadRegion(h, r, h.Trace())
	if !r.Freed() {
		t.Fatal("region not freed")
	}
	for _, obj := range dead {
		if obj.Region() != nil {
			t.Fatalf("%v still resident", obj)
		}
	}
	st := h.Stats()
	if st.Objects != 0 || st.LiveRegions != 0 || st.FreedRegions != 1 {
		t.Fatalf("stats after free = %+v, want no objects, no regions, one freed", st)
	}
}
