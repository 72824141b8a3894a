// Package rollout implements the deterministic canary rollout controller
// embedded in polm2d (DESIGN.md §14).
//
// Today-without-rollout, every merged plan is published fleet-wide the
// moment the merge lands. With rollout enabled, a new content ETag is
// instead staged: a deterministic canary cohort — instance-id hash in the
// first K% under core.DeriveSeed-stable bucketing — receives the candidate
// plan from GET /plan while everyone else keeps the last-good plan.
// Instances report per-window plan health (GC pause p50/p99, promotion and
// survivor rates) through POST /v1/feedback; the controller compares the
// canary window against the baseline window with a fixed decision rule
// (min-sample gate plus relative p99 regression threshold) and either
// promotes the candidate to the whole fleet or rolls back to last-good and
// quarantines the candidate ETag until new evidence produces a different
// plan.
//
// Everything here is pure state machine: no clocks, no goroutines, no I/O.
// The planserver owns plan bodies, persistence, metrics, and trace events;
// this package owns membership, attribution, and the decision.
package rollout

import (
	"fmt"
	"math"
	"sort"
	"time"

	"polm2/internal/core"
)

// State is one key's position in the rollout state machine.
//
//	Stable ──new etag──▶ Canary ──healthy──▶ Promoting ──▶ Stable
//	                       │
//	                       └──regressed──▶ RolledBack (etag quarantined)
//
// Promoting is the instant between the promote decision and the fleet-wide
// install; the planserver performs both under one lock, so the state is
// observable in transition records but never from a poll. RolledBack holds
// until new evidence produces a candidate with a fresh (non-quarantined)
// ETag, which opens the next canary.
type State int

const (
	// StateStable: the published plan is the stable plan and no candidate
	// is staged. Also the initial state before any plan exists.
	StateStable State = iota
	// StateCanary: a candidate is staged and served to the cohort only.
	StateCanary
	// StatePromoting: the candidate passed its canary window and is being
	// installed fleet-wide.
	StatePromoting
	// StateRolledBack: the last candidate regressed; the fleet is pinned
	// to the stable plan and the candidate's ETag is quarantined.
	StateRolledBack
)

func (s State) String() string {
	switch s {
	case StateStable:
		return "stable"
	case StateCanary:
		return "canary"
	case StatePromoting:
		return "promoting"
	case StateRolledBack:
		return "rolled_back"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ParseState inverts State.String; unknown names map to StateStable so a
// damaged persisted document degrades to the conservative state.
func ParseState(s string) State {
	switch s {
	case "canary":
		return StateCanary
	case "promoting":
		return StatePromoting
	case "rolled_back":
		return StateRolledBack
	}
	return StateStable
}

// Config fixes the rollout decision rule. The zero value is not usable;
// call Normalize (or let planserver do it) to apply defaults.
type Config struct {
	// CanaryFraction is K: the fraction of known instances bucketed into
	// the canary cohort. The cohort is never empty (minimum one instance).
	// Default 0.25.
	CanaryFraction float64
	// MinReports is the min-sample gate: no decision is made until both
	// the canary side and the baseline side have at least this many
	// feedback reports for the open canary window. Default 3.
	MinReports int
	// RegressionPct is the relative p99 regression threshold, in percent:
	// the candidate is rolled back when the canary-side weighted p99
	// exceeds the baseline-side weighted p99 by more than this much.
	// Default 10.
	RegressionPct float64
	// Seed feeds the cohort hash; the cohort for a given instance set is a
	// pure function of (Seed, instance ids), so membership is stable
	// across daemon restarts. Default 1.
	Seed int64
}

// Normalize returns cfg with defaults applied to unset fields and
// out-of-range fractions clamped into (0, 1].
func (cfg Config) Normalize() Config {
	if cfg.CanaryFraction <= 0 || math.IsNaN(cfg.CanaryFraction) {
		cfg.CanaryFraction = 0.25
	}
	if cfg.CanaryFraction > 1 {
		cfg.CanaryFraction = 1
	}
	if cfg.MinReports <= 0 {
		cfg.MinReports = 3
	}
	if cfg.RegressionPct <= 0 || math.IsNaN(cfg.RegressionPct) {
		cfg.RegressionPct = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Cohort buckets instances into the canary cohort: rank every instance by
// core.DeriveSeed(seed, "rollout", id) — a stable, well-mixed hash — and
// select the first ceil(fraction*N), never fewer than one. The result is a
// pure function of (seed, ids): stable across restarts, and an exact K%
// split at any fleet size. Ties on the hash (vanishingly rare) break by
// instance id so the selection stays total-ordered.
func Cohort(seed int64, ids []string, fraction float64) map[string]bool {
	if len(ids) == 0 {
		return map[string]bool{}
	}
	if fraction <= 0 || math.IsNaN(fraction) {
		fraction = 0.25
	}
	if fraction > 1 {
		fraction = 1
	}
	type ranked struct {
		id string
		h  uint64
	}
	rs := make([]ranked, 0, len(ids))
	for _, id := range ids {
		rs = append(rs, ranked{id: id, h: uint64(core.DeriveSeed(seed, "rollout", id))})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].h != rs[j].h {
			return rs[i].h < rs[j].h
		}
		return rs[i].id < rs[j].id
	})
	k := int(math.Ceil(fraction * float64(len(rs))))
	if k < 1 {
		k = 1
	}
	if k > len(rs) {
		k = len(rs)
	}
	cohort := make(map[string]bool, k)
	for _, r := range rs[:k] {
		cohort[r.id] = true
	}
	return cohort
}

// Event classifies what Observe did with a newly merged ETag.
type Event int

const (
	// EventNone: the ETag is already the stable or the staged candidate;
	// nothing changed.
	EventNone Event = iota
	// EventAdopt: no stable plan existed, so the plan was adopted as
	// stable without a canary — there is nothing to canary against.
	EventAdopt
	// EventCanary: a canary opened (or an open canary's candidate was
	// replaced by a newer merge) for this ETag.
	EventCanary
	// EventQuarantined: the ETag was rolled back earlier and is withheld
	// until new evidence produces a different plan.
	EventQuarantined
)

func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventAdopt:
		return "adopt"
	case EventCanary:
		return "canary_start"
	case EventQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Decision is the outcome of recording one feedback report.
type Decision int

const (
	DecisionNone Decision = iota
	DecisionPromote
	DecisionRollback
)

func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case DecisionPromote:
		return "promote"
	case DecisionRollback:
		return "rollback"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// side accumulates one side's feedback window. The side p99 is the
// pause-count-weighted mean of the reports' p99s: integer arithmetic,
// order-independent, deterministic.
type side struct {
	reports  int
	pauses   int64
	weighted int64 // Σ p99·weight, weight = max(1, pauses)
}

func (s *side) add(r *Report) {
	w := int64(r.Pauses)
	if w < 1 {
		w = 1
	}
	s.reports++
	s.pauses += w
	s.weighted += int64(r.PauseP99) * w
}

func (s *side) p99() time.Duration {
	if s.pauses == 0 {
		return 0
	}
	return time.Duration(s.weighted / s.pauses)
}

// Tracker is one (app, workload) key's rollout state machine.
type Tracker struct {
	cfg Config

	state         State
	stableETag    string
	candidateETag string
	quarantined   map[string]bool
	lastObserved  string // last merged ETag seen, to dedupe quarantine events

	canary   side
	baseline side

	promotions uint64
	rollbacks  uint64
	canaries   uint64
}

// NewTracker returns a fresh tracker (no stable plan yet) under cfg.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.Normalize(), quarantined: make(map[string]bool)}
}

// State reports the current state.
func (t *Tracker) State() State { return t.state }

// StableETag reports the last-good plan version ("" before any plan).
func (t *Tracker) StableETag() string { return t.stableETag }

// CandidateETag reports the staged candidate ("" when no canary is open).
func (t *Tracker) CandidateETag() string { return t.candidateETag }

// Quarantined reports whether etag was rolled back and is withheld.
func (t *Tracker) Quarantined(etag string) bool { return t.quarantined[etag] }

// Observe feeds a newly merged plan version into the state machine and
// reports what happened: adopt (first plan ever becomes stable), a canary
// start, a quarantined re-merge withheld, or nothing.
func (t *Tracker) Observe(etag string) Event {
	defer func() { t.lastObserved = etag }()
	switch {
	case etag == "" || etag == t.stableETag || etag == t.candidateETag:
		return EventNone
	case t.stableETag == "":
		t.stableETag = etag
		t.state = StateStable
		return EventAdopt
	case t.quarantined[etag]:
		if t.lastObserved == etag {
			return EventNone
		}
		return EventQuarantined
	}
	// A merge arriving mid-canary replaces the candidate: the newer plan
	// subsumes the older one's evidence, so judging the stale candidate
	// would decide on a version no longer proposed.
	t.candidateETag = etag
	t.canary = side{}
	t.baseline = side{}
	t.state = StateCanary
	t.canaries++
	return EventCanary
}

// Outcome carries the decision inputs alongside the decision so the
// planserver can stamp them into transition records and trace events, and
// the simnet checker can audit the rule.
type Outcome struct {
	Decision   Decision
	CanaryP99  time.Duration
	Baseline99 time.Duration
	CanaryN    int
	BaselineN  int
}

// Record attributes one feedback report and, when the min-sample gate is
// satisfied, decides the open canary. Attribution is by the ETag the
// window ran under, not by cohort membership: reports for the candidate
// ETag from cohort instances form the canary side, reports for the stable
// ETag form the baseline side, anything else (a stale version, or a
// candidate report from an instance that left the cohort) is ignored.
func (t *Tracker) Record(r *Report, inCohort bool) Outcome {
	if t.state != StateCanary || t.candidateETag == "" {
		return Outcome{}
	}
	switch {
	case r.ETag == t.candidateETag && inCohort:
		t.canary.add(r)
	case r.ETag == t.stableETag:
		t.baseline.add(r)
	default:
		return Outcome{}
	}
	if t.canary.reports < t.cfg.MinReports || t.baseline.reports < t.cfg.MinReports {
		return Outcome{}
	}
	out := Outcome{
		CanaryP99:  t.canary.p99(),
		Baseline99: t.baseline.p99(),
		CanaryN:    t.canary.reports,
		BaselineN:  t.baseline.reports,
	}
	if Regressed(out.CanaryP99, out.Baseline99, t.cfg.RegressionPct) {
		out.Decision = DecisionRollback
		t.quarantined[t.candidateETag] = true
		t.candidateETag = ""
		t.lastObserved = "" // the next quarantined re-merge is a fresh event
		t.state = StateRolledBack
		t.rollbacks++
	} else {
		out.Decision = DecisionPromote
		t.stableETag = t.candidateETag
		t.candidateETag = ""
		t.state = StateStable
		t.promotions++
	}
	t.canary = side{}
	t.baseline = side{}
	return out
}

// Regressed is the fixed regression predicate: the canary p99 exceeds the
// baseline p99 by more than pct percent. A zero baseline treats any
// canary pause cost as a regression — conservative by construction.
func Regressed(canaryP99, baselineP99 time.Duration, pct float64) bool {
	return float64(canaryP99) > float64(baselineP99)*(1+pct/100)
}

// AddQuarantined unions peer-learned quarantined ETags into the tracker —
// the replication path for rollback decisions. The quarantine set is
// grow-only, so the union is commutative and idempotent and a stale peer
// can never resurrect a rolled-back plan. When the staged candidate itself
// arrives quarantined the canary is abandoned: the candidate is dropped
// and the key pins back to stable, but the local rollback counter is NOT
// advanced — the decision was made (and counted) on the peer that saw the
// regression. The stable ETag is never dropped even if listed: serving
// the last-good plan beats serving nothing, and the decision rule only
// ever quarantines candidates, so a quarantined stable marks peer
// disagreement to be resolved by the next merge, not a plan to withhold.
func (t *Tracker) AddQuarantined(etags []string) (added int, droppedCandidate bool) {
	for _, e := range etags {
		if e == "" || t.quarantined[e] {
			continue
		}
		t.quarantined[e] = true
		added++
	}
	if t.candidateETag != "" && t.quarantined[t.candidateETag] {
		t.candidateETag = ""
		t.canary = side{}
		t.baseline = side{}
		t.lastObserved = "" // the next quarantined re-merge is a fresh event
		t.state = StateRolledBack
		droppedCandidate = true
	}
	return added, droppedCandidate
}

// Snapshot is the persistable image of a tracker. Feedback windows are
// deliberately absent: after a restart the canary window starts over, so a
// decision is never made on evidence the daemon cannot re-derive.
type Snapshot struct {
	State         string   `json:"state"`
	StableETag    string   `json:"stable_etag"`
	CandidateETag string   `json:"candidate_etag,omitempty"`
	Quarantined   []string `json:"quarantined,omitempty"`
	Canaries      uint64   `json:"canaries"`
	Promotions    uint64   `json:"promotions"`
	Rollbacks     uint64   `json:"rollbacks"`
}

// Snapshot captures the tracker for persistence. Quarantined ETags are
// sorted so the document is byte-stable.
func (t *Tracker) Snapshot() Snapshot {
	q := make([]string, 0, len(t.quarantined))
	for e := range t.quarantined {
		q = append(q, e)
	}
	sort.Strings(q)
	return Snapshot{
		State:         t.state.String(),
		StableETag:    t.stableETag,
		CandidateETag: t.candidateETag,
		Quarantined:   q,
		Canaries:      t.canaries,
		Promotions:    t.promotions,
		Rollbacks:     t.rollbacks,
	}
}

// Restore rebuilds a tracker from a snapshot. A restored canary keeps its
// candidate but restarts its feedback windows (see Snapshot); a snapshot
// in the transient Promoting state lands back in Canary for the same
// reason — the promote decision will be re-derived from fresh reports.
func Restore(cfg Config, s Snapshot) *Tracker {
	t := NewTracker(cfg)
	t.state = ParseState(s.State)
	if t.state == StatePromoting {
		t.state = StateCanary
	}
	t.stableETag = s.StableETag
	t.candidateETag = s.CandidateETag
	t.lastObserved = s.CandidateETag
	for _, e := range s.Quarantined {
		t.quarantined[e] = true
	}
	if t.candidateETag == "" && t.state == StateCanary {
		t.state = StateStable
	}
	t.canaries = s.Canaries
	t.promotions = s.Promotions
	t.rollbacks = s.Rollbacks
	return t
}
