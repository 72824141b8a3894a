package main

import (
	"fmt"
	"math/rand"

	"polm2/internal/analyzer"
	"polm2/internal/core"
)

// gen is the seeded input generator: --seed drives evidence contents,
// instance ids, simnet seeds and the paper suite's seed, and the program
// under test receives only what gen produces.
type gen struct {
	seed int64
}

// derive returns a per-purpose seed, stable for (seed, labels).
func (g gen) derive(labels ...string) int64 {
	return core.DeriveSeed(g.seed, labels...)
}

// instanceID is fleet member idx's stable id. Fixed width, so the byte
// counts that depend on it (sync digests) do not vary with the seed.
func (g gen) instanceID(idx int) string {
	return fmt.Sprintf("bench-%08x-%04d", uint32(g.derive("instance")), idx)
}

// key names the k-th (app, workload) pair of a fleet workload.
func fleetKey(k int) (app, workload string) {
	return fmt.Sprintf("BenchApp%02d", k), "steady"
}

// evidence builds instance idx's cumulative evidence for key k at the
// given round: one site shared fleet-wide, the rest private to the
// instance, per-site base rates drawn from the seed, every count growing
// with the round so a re-upload replaces rather than repeats. Like
// polm2-loadgen's builder, kept local because that one lives in a main
// package.
func (g gen) evidence(k, idx, round, sites int) *analyzer.Profile {
	app, workload := fleetKey(k)
	rnd := rand.New(rand.NewSource(g.derive("evidence", app, fmt.Sprint(idx))))
	p := &analyzer.Profile{App: app, Workload: workload, Sites: make([]analyzer.SiteStat, 0, sites)}
	for s := 0; s < sites; s++ {
		trace := fmt.Sprintf("Bench.serve:1;Handler.call:%d", 10+s)
		if s > 0 {
			trace = fmt.Sprintf("%s;Worker.run:%d", trace, 100+idx)
		}
		n := uint64(round) * uint64(32+rnd.Intn(64)+3*s)
		young := n / uint64(2+rnd.Intn(3))
		old := n / 5
		p.Sites = append(p.Sites, analyzer.SiteStat{
			Trace:     trace,
			Allocated: n,
			Buckets:   []uint64{young, n - young - old, old},
		})
	}
	return p
}
