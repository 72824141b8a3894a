package profilestore_test

import (
	"bytes"
	"testing"
	"time"

	"polm2/internal/bench"
	"polm2/internal/core"
	"polm2/internal/faultio"
	"polm2/internal/profilestore"
)

// TestProfileAppOutputIsAPlanFixedPoint pins what lets an offline seed be
// plain evidence: for the profile core.ProfileApp writes, on every bench
// target, clean and salvaged from torn site records, Put admits it, and
// the key's plan over that profile alone encodes to the profile's own
// bytes. A seed-only key therefore serves the body and ETag its stored
// profile had.
func TestProfileAppOutputIsAPlanFixedPoint(t *testing.T) {
	for _, faults := range []string{"", "seed=7;torn:site-*.bin"} {
		for _, tg := range bench.Targets() {
			opts := core.ProfileOptions{Duration: 2 * time.Minute, Seed: 1}
			if faults != "" {
				spec, err := faultio.ParseSpec(faults)
				if err != nil {
					t.Fatal(err)
				}
				opts.Fault = faultio.New(spec)
			}
			res, err := core.ProfileApp(tg.App, tg.Workload, opts)
			if err != nil {
				t.Fatalf("%s %q: %v", tg.Key(), faults, err)
			}
			p := res.Profile
			if faults != "" && res.Salvage == nil {
				t.Fatalf("%s %q: no salvage report; the faults touched nothing", tg.Key(), faults)
			}
			if err := profilestore.CheckEvidence(p); err != nil {
				t.Fatalf("%s %q: Put would refuse the profile: %v", tg.Key(), faults, err)
			}
			plan, err := profilestore.Plan(profilestore.Key{App: p.App, Workload: p.Workload}, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := profilestore.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := profilestore.Encode(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %q: the plan over the profile alone re-encodes differently:\n got %s\nwant %s", tg.Key(), faults, got, want)
			}
		}
	}
}
