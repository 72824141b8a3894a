package rollout

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func fleet(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("inst-%03d", i)
	}
	return ids
}

// The cohort is a pure function of (seed, ids): recomputing it — as a
// restarted daemon does — selects the identical membership.
func TestCohortStableAcrossRestarts(t *testing.T) {
	ids := fleet(64)
	a := Cohort(42, ids, 0.25)
	b := Cohort(42, ids, 0.25)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cohort not stable across recomputation: %v vs %v", a, b)
	}
	// Input order must not matter either: the daemon derives the id list
	// from map iteration and sorts, but the contract is order-free.
	rev := make([]string, len(ids))
	for i, id := range ids {
		rev[len(ids)-1-i] = id
	}
	if c := Cohort(42, rev, 0.25); !reflect.DeepEqual(a, c) {
		t.Fatalf("cohort depends on input order: %v vs %v", a, c)
	}
}

func TestCohortSeedChangesMembership(t *testing.T) {
	ids := fleet(256)
	a := Cohort(1, ids, 0.25)
	b := Cohort(2, ids, 0.25)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("distinct seeds selected the identical 64-of-256 cohort")
	}
	if len(a) != len(b) {
		t.Fatalf("cohort size varies with seed: %d vs %d", len(a), len(b))
	}
}

// Exact K% splits at the fleet sizes named in the issue: the selected
// count is ceil(fraction*N), floored at one instance.
func TestCohortExactSplit(t *testing.T) {
	cases := []struct {
		n        int
		fraction float64
		want     int
	}{
		{1, 0.25, 1},
		{1, 0.01, 1},
		{10, 0.25, 3}, // ceil(2.5)
		{10, 0.10, 1}, // ceil(1.0)
		{10, 1.00, 10},
		{256, 0.25, 64},
		{256, 0.10, 26}, // ceil(25.6)
		{256, 0.005, 2}, // ceil(1.28)
	}
	for _, c := range cases {
		got := Cohort(7, fleet(c.n), c.fraction)
		if len(got) != c.want {
			t.Errorf("Cohort(n=%d, f=%v): %d members, want %d", c.n, c.fraction, len(got), c.want)
		}
	}
	if got := Cohort(7, nil, 0.25); len(got) != 0 {
		t.Errorf("Cohort over empty fleet selected %d members", len(got))
	}
}

// Growing the fleet keeps membership a pure function of the new set: the
// recomputed cohort has the exact new size, and every member is drawn
// from the new id set.
func TestCohortGrowth(t *testing.T) {
	for _, n := range []int{1, 10, 256} {
		c := Cohort(42, fleet(n), 0.25)
		for id := range c {
			found := false
			for _, want := range fleet(n) {
				if id == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("n=%d: cohort member %q not in fleet", n, id)
			}
		}
	}
}

func report(etag string, pauses int, p99 time.Duration) *Report {
	return &Report{
		App: "a", Workload: "w", ETag: etag,
		WindowEnd: time.Second, Pauses: pauses,
		PauseP50: p99 / 2, PauseP99: p99,
		PromotionRate: 0.1, SurvivorRate: 0.2,
	}
}

// The decision-rule table: min-sample gate, promote, rollback, and
// quarantine-until-new-evidence, driven through the public Tracker API.
func TestDecisionTable(t *testing.T) {
	cfg := Config{CanaryFraction: 0.5, MinReports: 2, RegressionPct: 10, Seed: 1}

	type step struct {
		rep      *Report
		inCohort bool
		want     Decision
	}
	cases := []struct {
		name      string
		steps     []step
		wantState State
	}{
		{
			name: "min sample gate holds with one side short",
			steps: []step{
				{report("cand", 10, 10*time.Millisecond), true, DecisionNone},
				{report("cand", 10, 10*time.Millisecond), true, DecisionNone},
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
			},
			wantState: StateCanary,
		},
		{
			name: "promote inside threshold",
			steps: []step{
				{report("cand", 10, 11*time.Millisecond), true, DecisionNone},
				{report("cand", 10, 11*time.Millisecond), true, DecisionNone},
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
				// 11ms vs 10ms is a 10% regression — not *more than* 10%.
				{report("stable", 10, 10*time.Millisecond), false, DecisionPromote},
			},
			wantState: StateStable,
		},
		{
			name: "rollback beyond threshold",
			steps: []step{
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
				{report("cand", 10, 12*time.Millisecond), true, DecisionNone},
				{report("cand", 10, 12*time.Millisecond), true, DecisionRollback},
			},
			wantState: StateRolledBack,
		},
		{
			name: "candidate reports outside the cohort are ignored",
			steps: []step{
				{report("cand", 10, 50*time.Millisecond), false, DecisionNone},
				{report("cand", 10, 50*time.Millisecond), false, DecisionNone},
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
				{report("stable", 10, 10*time.Millisecond), false, DecisionNone},
			},
			wantState: StateCanary,
		},
		{
			name: "stale etags are ignored",
			steps: []step{
				{report("ancient", 10, time.Millisecond), true, DecisionNone},
				{report("ancient", 10, time.Millisecond), false, DecisionNone},
			},
			wantState: StateCanary,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker(cfg)
			if ev := tr.Observe("stable"); ev != EventAdopt {
				t.Fatalf("first plan: Observe = %v, want adopt", ev)
			}
			if ev := tr.Observe("cand"); ev != EventCanary {
				t.Fatalf("second plan: Observe = %v, want canary_start", ev)
			}
			for i, s := range tc.steps {
				if out := tr.Record(s.rep, s.inCohort); out.Decision != s.want {
					t.Fatalf("step %d: decision %v, want %v", i, out.Decision, s.want)
				}
			}
			if tr.State() != tc.wantState {
				t.Fatalf("final state %v, want %v", tr.State(), tc.wantState)
			}
		})
	}
}

// After a rollback the regressed ETag stays quarantined: re-merging the
// same evidence re-produces the same tag and it is withheld, while a
// genuinely new plan opens the next canary.
func TestQuarantineUntilNewEvidence(t *testing.T) {
	tr := NewTracker(Config{MinReports: 1})
	tr.Observe("v1")
	tr.Observe("v2")
	tr.Record(report("v1", 4, 10*time.Millisecond), false)
	out := tr.Record(report("v2", 4, 40*time.Millisecond), true)
	if out.Decision != DecisionRollback {
		t.Fatalf("decision %v, want rollback", out.Decision)
	}
	if !tr.Quarantined("v2") {
		t.Fatalf("rolled-back etag not quarantined")
	}
	if ev := tr.Observe("v2"); ev != EventQuarantined {
		t.Fatalf("re-merge of quarantined etag: Observe = %v, want quarantined", ev)
	}
	// The same withheld tag arriving again is not a fresh event.
	if ev := tr.Observe("v2"); ev != EventNone {
		t.Fatalf("repeated quarantined etag: Observe = %v, want none", ev)
	}
	if ev := tr.Observe("v3"); ev != EventCanary {
		t.Fatalf("new evidence: Observe = %v, want canary_start", ev)
	}
	if tr.CandidateETag() != "v3" || tr.StableETag() != "v1" {
		t.Fatalf("candidate %q stable %q, want v3/v1", tr.CandidateETag(), tr.StableETag())
	}
}

// A merge landing mid-canary replaces the candidate and restarts the
// window: reports for the abandoned candidate no longer count.
func TestCandidateReplacedMidCanary(t *testing.T) {
	tr := NewTracker(Config{MinReports: 1})
	tr.Observe("v1")
	tr.Observe("v2")
	tr.Record(report("v1", 4, 10*time.Millisecond), false)
	if ev := tr.Observe("v3"); ev != EventCanary {
		t.Fatalf("replacement merge: Observe = %v, want canary_start", ev)
	}
	// Baseline window restarted: v1 report from before is gone, so a v3
	// report alone cannot decide.
	if out := tr.Record(report("v3", 4, 10*time.Millisecond), true); out.Decision != DecisionNone {
		t.Fatalf("decision %v on restarted window, want none", out.Decision)
	}
	if canaries := tr.Snapshot().Canaries; canaries != 2 {
		t.Fatalf("canaries = %d, want 2", canaries)
	}
}

func TestSnapshotRestore(t *testing.T) {
	cfg := Config{MinReports: 1, RegressionPct: 10, Seed: 9}
	tr := NewTracker(cfg)
	tr.Observe("v1")
	tr.Observe("v2")
	tr.Record(report("v1", 4, 10*time.Millisecond), false)
	tr.Record(report("v2", 4, 40*time.Millisecond), true) // rollback
	tr.Observe("v3")                                      // new canary

	snap := tr.Snapshot()
	got := Restore(cfg, snap)
	if got.State() != StateCanary || got.StableETag() != "v1" || got.CandidateETag() != "v3" {
		t.Fatalf("restored (%v, %q, %q), want (canary, v1, v3)",
			got.State(), got.StableETag(), got.CandidateETag())
	}
	if !got.Quarantined("v2") {
		t.Fatalf("quarantine lost across restore")
	}
	snap = got.Snapshot()
	if c, p, r := snap.Canaries, snap.Promotions, snap.Rollbacks; c != 2 || p != 0 || r != 1 {
		t.Fatalf("counters (%d, %d, %d), want (2, 0, 1)", c, p, r)
	}
	// The restored window is empty: one report per side decides afresh.
	got.Record(report("v1", 4, 10*time.Millisecond), false)
	out := got.Record(report("v3", 4, 10*time.Millisecond), true)
	if out.Decision != DecisionPromote {
		t.Fatalf("post-restore decision %v, want promote", out.Decision)
	}

	// A snapshot caught mid-Promoting restarts as a canary.
	back := Restore(cfg, Snapshot{State: "promoting", StableETag: "s", CandidateETag: "c"})
	if back.State() != StateCanary {
		t.Fatalf("promoting snapshot restored to %v, want canary", back.State())
	}
	// A canary snapshot with no candidate degrades to stable.
	s := Restore(cfg, Snapshot{State: "canary", StableETag: "s"})
	if s.State() != StateStable {
		t.Fatalf("candidate-less canary snapshot restored to %v, want stable", s.State())
	}
}

func TestReportValidate(t *testing.T) {
	good := report("e", 4, 10*time.Millisecond)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []func(*Report){
		func(r *Report) { r.App = "" },
		func(r *Report) { r.Workload = "" },
		func(r *Report) { r.ETag = "" },
		func(r *Report) { r.WindowStart = r.WindowEnd + 1 },
		func(r *Report) { r.Pauses = -1 },
		func(r *Report) { r.PauseP50 = -1 },
		func(r *Report) { r.PauseP50 = r.PauseP99 * 2 },
		func(r *Report) { r.PromotionRate = 1.5 },
		func(r *Report) { r.SurvivorRate = -0.1 },
	}
	for i, mutate := range bad {
		r := *good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d: invalid report accepted", i)
		}
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{StateStable, StateCanary, StatePromoting, StateRolledBack} {
		if ParseState(s.String()) != s {
			t.Errorf("ParseState(%q) does not round-trip", s)
		}
	}
	if ParseState("garbage") != StateStable {
		t.Errorf("unknown state name did not degrade to stable")
	}
	for _, e := range []Event{EventNone, EventAdopt, EventCanary, EventQuarantined} {
		if e.String() == "" {
			t.Errorf("event %d has empty name", e)
		}
	}
	for _, d := range []Decision{DecisionNone, DecisionPromote, DecisionRollback} {
		if d.String() == "" {
			t.Errorf("decision %d has empty name", d)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cfg := Config{}.Normalize()
	if cfg.CanaryFraction != 0.25 || cfg.MinReports != 3 || cfg.RegressionPct != 10 || cfg.Seed != 1 {
		t.Fatalf("zero config normalized to %+v", cfg)
	}
	if got := (Config{CanaryFraction: 7}).Normalize().CanaryFraction; got != 1 {
		t.Fatalf("fraction not clamped: %v", got)
	}
}
