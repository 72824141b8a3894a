package crashmatrix

import (
	"testing"
	"time"

	"polm2"
	"polm2/internal/faultio"
)

// TestTornRecordingSalvages profiles Lucene under live torn writes, the
// example spec of polm2-bench -faults. A torn stream keeps only a prefix, so
// the surviving serials span several times their own count; the snapshots
// still list the run's live objects, and salvage must profile from what
// survived instead of refusing the recording as corrupt.
func TestTornRecordingSalvages(t *testing.T) {
	plan, err := faultio.ParseSpec("seed=7;torn:site-*.bin")
	if err != nil {
		t.Fatal(err)
	}
	res, err := polm2.ProfileApp(polm2.AppByName("Lucene"), "default", polm2.ProfileOptions{
		Duration:   2 * time.Minute,
		RecordsDir: t.TempDir(),
		Fault:      faultio.New(plan),
	})
	if err != nil {
		t.Fatalf("salvage refused the torn recording: %v", err)
	}
	if res.Salvage.Clean() {
		t.Fatal("torn streams left a clean salvage report")
	}
	const want = "salvage: 9 damaged streams (2456 bytes lost)"
	if got := res.Salvage.String(); got != want {
		t.Fatalf("report = %q, want %q", got, want)
	}
	if n := res.Profile.InstrumentedSites(); n != 2 {
		t.Fatalf("instrumented sites = %d, want the 2 the surviving evidence supports", n)
	}
}
