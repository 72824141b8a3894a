package rollout

import "testing"

// driveToCanary walks a fresh tracker to an open canary on candidate
// "cand" over stable "stable".
func driveToCanary(t *testing.T) *Tracker {
	t.Helper()
	tr := NewTracker(Config{MinReports: 2})
	if ev := tr.Observe(`"stable"`); ev != EventAdopt {
		t.Fatalf("adopt observe = %v", ev)
	}
	if ev := tr.Observe(`"cand"`); ev != EventCanary {
		t.Fatalf("canary observe = %v", ev)
	}
	return tr
}

func TestAddQuarantinedUnion(t *testing.T) {
	tr := driveToCanary(t)
	added, dropped := tr.AddQuarantined([]string{`"bad1"`, `"bad2"`, "", `"bad1"`})
	if added != 2 || dropped {
		t.Fatalf("AddQuarantined = (%d, %v), want (2, false)", added, dropped)
	}
	if !tr.Quarantined(`"bad1"`) || !tr.Quarantined(`"bad2"`) {
		t.Fatal("union did not take")
	}
	// Idempotent: re-applying the same set adds nothing.
	added, dropped = tr.AddQuarantined([]string{`"bad1"`, `"bad2"`})
	if added != 0 || dropped {
		t.Fatalf("re-union = (%d, %v), want (0, false)", added, dropped)
	}
	// The open canary survived an unrelated union.
	if tr.State() != StateCanary || tr.CandidateETag() != `"cand"` {
		t.Fatalf("unrelated union disturbed the canary: state=%v cand=%q", tr.State(), tr.CandidateETag())
	}
}

func TestAddQuarantinedDropsCandidate(t *testing.T) {
	tr := driveToCanary(t)
	// Half-fill the canary window so we can prove it resets.
	tr.Record(&Report{App: "a", Workload: "w", ETag: `"cand"`, Pauses: 4, PauseP99: 10}, true)
	added, dropped := tr.AddQuarantined([]string{`"cand"`})
	if added != 1 || !dropped {
		t.Fatalf("AddQuarantined = (%d, %v), want (1, true)", added, dropped)
	}
	if tr.State() != StateRolledBack || tr.CandidateETag() != "" {
		t.Fatalf("candidate not dropped: state=%v cand=%q", tr.State(), tr.CandidateETag())
	}
	if tr.StableETag() != `"stable"` {
		t.Fatalf("stable moved to %q", tr.StableETag())
	}
	// Peer-propagated quarantine is not a local rollback decision.
	if rollbacks := tr.Snapshot().Rollbacks; rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0 (peer decision, not ours)", rollbacks)
	}
	// The quarantined ETag must not be resurrected as a candidate.
	if ev := tr.Observe(`"cand"`); ev != EventQuarantined {
		t.Fatalf("re-merge of quarantined etag = %v, want EventQuarantined", ev)
	}
	// A genuinely new plan still opens the next canary.
	if ev := tr.Observe(`"fresh"`); ev != EventCanary {
		t.Fatalf("fresh etag = %v, want EventCanary", ev)
	}
}

func TestAddQuarantinedKeepsStable(t *testing.T) {
	tr := driveToCanary(t)
	added, dropped := tr.AddQuarantined([]string{`"stable"`})
	if added != 1 || dropped {
		t.Fatalf("AddQuarantined(stable) = (%d, %v), want (1, false)", added, dropped)
	}
	// Defensive posture: keep serving the stable plan; only candidates are
	// ever withheld.
	if tr.StableETag() != `"stable"` || tr.State() != StateCanary {
		t.Fatalf("stable dropped: stable=%q state=%v", tr.StableETag(), tr.State())
	}
}

// TestAddQuarantinedSurvivesSnapshot proves the union persists through
// Snapshot/Restore — a restarted daemon must not forget peer rollbacks.
func TestAddQuarantinedSurvivesSnapshot(t *testing.T) {
	tr := driveToCanary(t)
	tr.AddQuarantined([]string{`"cand"`, `"other"`})
	restored := Restore(Config{}, tr.Snapshot())
	for _, e := range []string{`"cand"`, `"other"`} {
		if !restored.Quarantined(e) {
			t.Errorf("restored tracker forgot quarantined %s", e)
		}
	}
	if restored.State() != StateRolledBack {
		t.Errorf("restored state = %v, want rolled_back", restored.State())
	}
}
