package core

import (
	"os"
	"testing"
	"time"

	"polm2/internal/dumper"
	"polm2/internal/gc"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
)

func TestScaledGeometry(t *testing.T) {
	g := ScaledGeometry(0)
	if g.HeapBytes != PaperHeapBytes/DefaultScale {
		t.Fatalf("default heap = %d", g.HeapBytes)
	}
	if g.YoungBytes != PaperYoungBytes/DefaultScale {
		t.Fatalf("default young = %d", g.YoungBytes)
	}
	if g.HeapBytes%uint64(g.RegionSize) != 0 {
		t.Fatal("heap not a whole number of regions")
	}
	g2 := ScaledGeometry(128)
	if g2.HeapBytes != PaperHeapBytes/128 {
		t.Fatalf("scale 128 heap = %d", g2.HeapBytes)
	}
}

func TestScaledCostModel(t *testing.T) {
	base := gc.DefaultCostModel()
	scaled := ScaledCostModel(DefaultScale)
	if scaled.PerCopiedByte != base.PerCopiedByte*DefaultScale {
		t.Fatal("PerCopiedByte not scaled")
	}
	if scaled.PerRegion != base.PerRegion {
		t.Fatal("PerRegion must not scale (regions represent proportionally more memory)")
	}
	if scaled.Base != base.Base {
		t.Fatal("Base must not scale")
	}
}

func TestPretenureCostPerByte(t *testing.T) {
	if got := PretenureCostPerByte(0); got <= 0 {
		t.Fatalf("default pretenure cost = %v", got)
	}
	if PretenureCostPerByte(128) <= PretenureCostPerByte(64) {
		t.Fatal("pretenure cost should grow with scale")
	}
}

func TestNewCollectorNames(t *testing.T) {
	geom := ScaledGeometry(0)
	cost := ScaledCostModel(0)
	for _, name := range Collectors() {
		col, err := NewCollector(name, simclock.New(), geom, cost)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if col.Name() != name {
			t.Fatalf("collector %s reports name %s", name, col.Name())
		}
	}
	if _, err := NewCollector("ZGC", simclock.New(), geom, cost); err == nil {
		t.Fatal("unknown collector should fail")
	}
}

func TestRunOptionsDefaults(t *testing.T) {
	o := RunOptions{}.withDefaults()
	if o.Duration != PaperRunDuration || o.Warmup != PaperWarmup || o.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	short := RunOptions{Duration: 2 * time.Minute}.withDefaults()
	if short.Warmup > time.Minute {
		t.Fatalf("warmup not clamped for short runs: %v", short.Warmup)
	}
}

func TestProfileOptionsDefaults(t *testing.T) {
	o := ProfileOptions{}.withDefaults()
	if o.Duration != DefaultProfilingDuration || o.Seed != 1 || o.Scale != DefaultScale {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestRunAppRejectsPlanOnNonPretenuring(t *testing.T) {
	app := &stubApp{}
	profile := stubProfile()
	if _, err := RunApp(app, "w", CollectorG1, PlanPOLM2, profile, RunOptions{Duration: time.Minute}); err == nil {
		t.Fatal("G1 cannot apply a pretenuring profile")
	}
	if _, err := RunApp(app, "w", CollectorC4, PlanPOLM2, profile, RunOptions{Duration: time.Minute}); err == nil {
		t.Fatal("C4 cannot apply a pretenuring profile")
	}
}

func TestRunAppStubEndToEnd(t *testing.T) {
	app := &stubApp{}
	res, err := RunApp(app, "w", CollectorG1, PlanNone, nil, RunOptions{
		Duration: 2 * time.Minute,
		Warmup:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "stub" || res.Workload != "w" || res.Collector != CollectorG1 {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if res.WarmOps == 0 {
		t.Fatal("stub app counted no warm ops")
	}
	if res.SimDuration < 2*time.Minute {
		t.Fatalf("run stopped early at %v", res.SimDuration)
	}
}

func TestProfileAppStubEndToEnd(t *testing.T) {
	app := &stubApp{}
	res, err := ProfileApp(app, "w", ProfileOptions{Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no profile produced")
	}
	if res.GCCycles == 0 {
		t.Fatal("profiling run triggered no collections")
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots taken")
	}
	// The stub's retained site must be instrumented; its transient site
	// must not.
	if res.Profile.InstrumentedSites() == 0 {
		t.Fatalf("stub profile instrumented nothing: %+v", res.Profile)
	}
}

// A ProfileApp call that is given no RecordsDir owns the temporary one it
// creates: os.TempDir() is left as it was found, and the result does not
// name a directory that no longer exists.
func TestProfileAppRemovesItsTempRecords(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // os.TempDir() for this test alone
	res, err := ProfileApp(&stubApp{}, "w", ProfileOptions{Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDir != "" {
		t.Errorf("RecordsDir = %q for a temporary records directory, want \"\"", res.RecordsDir)
	}
	left, err := os.ReadDir(os.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("ProfileApp left %s in os.TempDir()", e.Name())
	}
	if res.Profile == nil || len(res.Profile.Sites) == 0 {
		t.Fatal("profile is empty: the records were removed before the analysis read them")
	}
}

// A snapshot the collector logged no pause for cannot be priced: the jmap
// baseline refuses it rather than report a dump of zero live objects.
func TestJmapBaselineNeedsThePauseOfEachCycle(t *testing.T) {
	cost := dumper.DefaultCostModel()
	pauses := []gc.Pause{{Cycle: 1, LiveObjects: 10, LiveBytes: 640}, {Cycle: 3, LiveObjects: 4, LiveBytes: 256}}
	snaps := []*snapshot.Snapshot{
		{Seq: 1, Cycle: 1, TakenAt: time.Second, Duration: time.Millisecond},
		{Seq: 2, Cycle: 3, TakenAt: 3 * time.Second, Duration: time.Millisecond},
	}
	got, err := jmapBaseline(snaps, pauses, cost)
	if err != nil {
		t.Fatal(err)
	}
	size, dur := cost.JmapDump(4, 256)
	if j := got[1]; j.Seq != 2 || j.Cycle != 3 || j.TakenAt != 3*time.Second+time.Millisecond || j.SizeBytes != size || j.Duration != dur {
		t.Fatalf("jmap baseline of cycle 3 = %+v, want size %d, duration %v at %v", *j, size, dur, 3*time.Second+time.Millisecond)
	}
	for _, missing := range []uint64{2, 4} {
		bad := append(snaps[:1:1], &snapshot.Snapshot{Seq: 2, Cycle: missing})
		if got, err := jmapBaseline(bad, pauses, cost); err == nil {
			t.Fatalf("snapshot of cycle %d without its pause priced as %+v", missing, *got[1])
		}
	}
}
