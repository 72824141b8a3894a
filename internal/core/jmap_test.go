package core_test

import (
	"reflect"
	"testing"
	"time"

	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/dumper"
	"polm2/internal/recorder"
)

// TestJmapBaselineMatchesTeedJmap holds ProfileApp's pause-derived jmap
// baseline to the reference implementation: the same profiling run wired
// with a Tee that hands every snapshot request to a CRIU dumper and then to
// a dumper.Jmap, which traces the heap itself. Every jmap dump must agree
// field by field. Jmap advances no clock, so both runs simulate the same
// thing.
func TestJmapBaselineMatchesTeedJmap(t *testing.T) {
	const duration = 2 * time.Minute
	for _, tc := range []struct {
		app      core.App
		workload string
	}{
		{cassandra.New(), cassandra.WorkloadWI},
		{lucene.New(), lucene.Workload},
	} {
		t.Run(tc.app.Name()+"-"+tc.workload, func(t *testing.T) {
			res, err := core.ProfileApp(tc.app, tc.workload, core.ProfileOptions{Duration: duration})
			if err != nil {
				t.Fatal(err)
			}

			// ProfileApp's run with a hand-built chain: its collector and
			// dumper, with the Tee as the recorder's sink.
			sim, err := core.NewSim(core.CollectorNG2C, nil, core.RunOptions{Duration: duration})
			if err != nil {
				t.Fatal(err)
			}
			cost := core.ScaledDumpCostModel(core.DefaultScale)
			criu := dumper.New(sim.VM().Heap(), sim.Clock(), dumper.Config{Cost: cost})
			jmap := dumper.NewJmap(sim.VM().Heap(), sim.Clock(), cost)
			rec, err := recorder.New(recorder.Config{Dir: t.TempDir()}, sim.VM().Heap(), sim.VM().Sites(), dumper.NewTee(criu, jmap))
			if err != nil {
				t.Fatal(err)
			}
			rec.Attach(sim.VM())
			if err := sim.Drive(tc.app, tc.workload); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			want := jmap.Snapshots()
			if len(want) < 2 || len(res.JmapSnapshots) != len(want) || len(res.Snapshots) != len(want) {
				t.Fatalf("ProfileApp took %d snapshots with %d jmap baselines, the teed run %d jmap dumps",
					len(res.Snapshots), len(res.JmapSnapshots), len(want))
			}
			for i, w := range want {
				if g := res.JmapSnapshots[i]; !reflect.DeepEqual(g, w) {
					t.Fatalf("jmap dump %d: pause-derived %+v, teed Jmap %+v", i, *g, *w)
				}
				if g, c := res.Snapshots[i], criu.Snapshots()[i]; !reflect.DeepEqual(g, c) {
					t.Fatalf("CRIU snapshot %d: ProfileApp %+v, teed run %+v", i, *g, *c)
				}
			}
			t.Logf("%d snapshots, %d GC cycles", len(want), res.GCCycles)
		})
	}
}
