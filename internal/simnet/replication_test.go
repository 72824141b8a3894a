package simnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"polm2/internal/rollout"
)

// The replication scenarios run a pair (or trio) of planserver daemons on
// the simulated fabric: instances home on daemon (idx mod Daemons) and
// fail over to the others, daemons pull each other by anti-entropy, and a
// fault spec can partition a daemon by name. The layer-3 checker runs its
// per-key pass over every daemon (checkKeys) — post-heal convergence of
// every daemon to the stamp-winner merge, key sums, and in rollout mode
// quarantine propagation — plus per-daemon accounting, stamp discipline
// and the anti-resurrection probe.

// TestReplicationCleanConverges: two daemons, clean network. Anti-entropy
// alone must give both daemons the whole fleet's evidence and identical
// plans.
func TestReplicationCleanConverges(t *testing.T) {
	rep, _ := runOnce(t, Config{Seed: 3, Instances: 12, Keys: 2, Daemons: 2})
	requireOK(t, rep)
	if rep.PeerSyncs == 0 {
		t.Fatal("replicated run recorded no anti-entropy passes")
	}
	if rep.PeerDocsApplied == 0 {
		t.Fatal("anti-entropy never moved a document between daemons")
	}
	if rep.PeerSyncErrs != 0 {
		t.Fatalf("%d sync errors on a clean network", rep.PeerSyncErrs)
	}
	for _, k := range rep.PerKey {
		if k.Converged != k.Members {
			t.Errorf("key %s: %d/%d instances converged", k.Key, k.Converged, k.Members)
		}
	}
}

// TestReplicationThreeDaemons exercises the full mesh: three replicas,
// every instance homed on one of them, evidence flowing every direction.
func TestReplicationThreeDaemons(t *testing.T) {
	rep, _ := runOnce(t, Config{Seed: 11, Instances: 18, Keys: 3, Daemons: 3})
	requireOK(t, rep)
	if rep.PeerDocsApplied == 0 {
		t.Fatal("anti-entropy never moved a document between daemons")
	}
}

// TestReplicationDaemonPartition is the tentpole scenario: daemon-1 is
// partitioned — from its peers and from the fleet — for half a minute
// mid-run. Its instances must fail over to daemon-0, its anti-entropy
// pulls must fail while the window is open, and after it heals both
// daemons must converge to the independent stamp-winner merge of every
// delivered document: nothing lost, nothing double-counted.
func TestReplicationDaemonPartition(t *testing.T) {
	rep, _ := runOnce(t, Config{
		Seed:      42,
		Instances: 64,
		Keys:      2,
		Daemons:   2,
		FaultSpec: "partition:daemon-1..1@t=60s/30s;partition:inst-3..7@t=40s/20s;drop:upload%5;dup:upload%6;err5xx%3",
	})
	requireOK(t, rep)
	if rep.Net.Refused == 0 {
		t.Fatal("partition windows refused no traffic")
	}
	if rep.PeerSyncErrs == 0 {
		t.Fatal("daemon-1 was partitioned but no anti-entropy pull ever failed")
	}
	if rep.PeerDocsApplied == 0 {
		t.Fatal("anti-entropy never moved a document between daemons")
	}
	for _, k := range rep.PerKey {
		if k.Converged != k.Members {
			t.Errorf("key %s: %d/%d instances converged after the partition healed", k.Key, k.Converged, k.Members)
		}
	}
}

// TestReplicationReplayByteIdentical extends the determinism bar to the
// replicated fabric: the daemon-partition scenario, run twice from one
// seed, must produce byte-identical traces and invariant logs — sync
// scheduling, failover rotation, stamp assignment and all.
func TestReplicationReplayByteIdentical(t *testing.T) {
	cfg := Config{
		Seed:      42,
		Instances: 64,
		Keys:      2,
		Daemons:   2,
		FaultSpec: "partition:daemon-1..1@t=60s/30s;partition:inst-20..30@t=60s/35s;drop:upload%5;dup:upload%6;err5xx%3",
	}
	first, firstTrace := runOnce(t, cfg)
	requireOK(t, first)
	second, secondTrace := runOnce(t, cfg)
	requireOK(t, second)
	if !bytes.Equal(firstTrace.Bytes(), secondTrace.Bytes()) {
		a, b := strings.Split(firstTrace.String(), "\n"), strings.Split(secondTrace.String(), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("first divergence at trace line %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("traces diverge in length: %d vs %d bytes", firstTrace.Len(), secondTrace.Len())
	}
	if first.Log() != second.Log() {
		t.Fatalf("invariant logs diverge:\n--- run1\n%s--- run2\n%s", first.Log(), second.Log())
	}
}

// TestReplicationSweep is the in-process miniature of CI's two-daemon
// sweep: eight seeds over a mixed fault plan with a daemon partition in
// every run.
func TestReplicationSweep(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rep, _ := runOnce(t, Config{
				Seed:      seed,
				Instances: 24,
				Keys:      2,
				Daemons:   2,
				FaultSpec: "partition:daemon-1..1@t=50s/25s;partition:inst-4..9@t=45s/25s;drop:upload%4;dup:upload%5;stale:upload%5;err5xx%2",
			})
			requireOK(t, rep)
		})
	}
}

// TestReplicationRolloutQuarantine: a regression injected into a
// replicated rollout run. Each daemon's controller decides on its own
// feedback; the rollback and its quarantine must propagate to the peer,
// both controllers must end terminal off the regressed version, and the
// checker's anti-resurrection probe runs one extra sync round to prove a
// stale peer cannot revive the quarantined candidate.
func TestReplicationRolloutQuarantine(t *testing.T) {
	rep, _ := runOnce(t, Config{
		Seed:      5,
		Instances: 16,
		Keys:      2,
		Daemons:   2,
		RegressAt: 70 * time.Second,
		Rollout:   &rollout.Config{},
		FaultSpec: "drop:upload%5;dup:upload%6;err5xx%3",
	})
	requireOK(t, rep)
	if rep.Rollbacks == 0 {
		t.Fatal("regression was injected but no daemon ever rolled back")
	}
	if len(rep.Rollout) != 2*2 {
		t.Fatalf("%d rollout rows, want one per (key, daemon)", len(rep.Rollout))
	}
	for _, k := range rep.Rollout {
		if k.Daemon == "" {
			t.Errorf("rollout row for key %s is missing its daemon", k.Key)
		}
	}
}

// TestReplicationLogShape pins the replicated log lines: a failing CI
// sweep's reproduction recipe must say how many daemons ran, how sync
// fared, and which daemon each rollout row describes.
func TestReplicationLogShape(t *testing.T) {
	rep, _ := runOnce(t, Config{
		Seed:      5,
		Instances: 8,
		Daemons:   2,
		RegressAt: 70 * time.Second,
		Rollout:   &rollout.Config{},
	})
	log := rep.Log()
	for _, want := range []string{"replication: daemons=2 syncs=", "rollout key App0/w@daemon-0: state=", "rollout key App0/w@daemon-1: state="} {
		if !strings.Contains(log, want) {
			t.Errorf("log is missing %q:\n%s", want, log)
		}
	}
}

// TestUnreplicatedBytesPinned pins the exact output of two single-daemon
// scenarios to their pre-replication hashes: replication is off by
// default, and off means byte-identical — the same trace and the same
// invariant log a build without any of the sync machinery produced. If
// this test fails, a default-path behavior changed; that is a compat
// break to be decided deliberately, not discovered in a fleet diff.
func TestUnreplicatedBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "plain",
			cfg: Config{
				Seed:      42,
				Instances: 64,
				Keys:      2,
				Rounds:    3,
				FaultSpec: "partition:inst-3..7@t=40s/20s;partition:inst-20..30@t=60s/35s;drop:upload%5;dup:upload%6;err5xx%3",
			},
			want: "465022b55d757936378b251907447dd9f4538ea56e721e5fca893ac63711b01a",
		},
		{
			name: "rollout",
			cfg: Config{
				Seed:      42,
				Instances: 24,
				Keys:      2,
				RegressAt: 70 * time.Second,
				Rollout:   &rollout.Config{},
				FaultSpec: "drop:upload%5;dup:upload%6;err5xx%3",
			},
			want: "bf1e58994aaabf9dcd960e287cc167cfd1f47d24fd3b1dd66995c58cc84583fa",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, tr := runOnce(t, tc.cfg)
			requireOK(t, rep)
			h := sha256.New()
			h.Write(tr.Bytes())
			h.Write([]byte(rep.Log()))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("single-daemon output hash = %s, pinned baseline %s\nlog:\n%s", got, tc.want, rep.Log())
			}
		})
	}
}
