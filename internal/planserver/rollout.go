package planserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

// This file is the planserver half of the canary rollout controller
// (DESIGN.md §14). The state machine itself lives in internal/rollout;
// here the daemon wires it to plan bodies, persistence, serving, metrics
// and traces:
//
//   - publishLocked, the one publication step, feeds every merged plan
//     version through the per-shard tracker: the first plan ever is
//     adopted as stable, a new ETag is staged as a canary candidate, a
//     quarantined ETag is withheld.
//   - GET /v1/plan (and the evidence response) serves the candidate to
//     canary-cohort instances while a canary is open, the stable plan to
//     everyone else. Cohort membership is computed over the key's known
//     instances (the evidence log); an instance the daemon has never seen
//     is non-canary by construction.
//   - POST /v1/feedback records plan-health reports; the tracker's
//     decision promotes the candidate fleet-wide or rolls back to stable
//     and quarantines the candidate ETag.
//   - Tracker state plus the stable and candidate plans persist as
//     one rollout document per key through the store's atomic-rename
//     path, so a restarted daemon resumes serving last-good — never a plan
//     that regressed its canary.
//
// With rollout disabled (the default, s.ro nil) no shard ever holds a
// tracker: inShard's restore is a no-op, publishLocked installs every merge
// fleet-wide and planForLocked serves it to everyone, so the daemon's
// behavior is byte-for-byte that of a build without the controller.

// Request body caps. FeedbackBodyLimit caps a POST /v1/feedback body;
// reports are a few hundred bytes, so anything near the limit is garbage.
// EvidenceBodyLimit caps a POST /v1/evidence upload.
const (
	FeedbackBodyLimit = 1 << 20
	EvidenceBodyLimit = 32 << 20
)

// rolloutDoc is the per-key persisted controller state: the tracker
// snapshot plus the full plan encodings the ETags address, so a restart
// can re-serve stable (and resume a canary) without re-merging the
// evidence — whose merge is always the *latest* plan, candidate or not.
type rolloutDoc struct {
	Snapshot  rollout.Snapshot `json:"snapshot"`
	Stable    json.RawMessage  `json:"stable,omitempty"`
	Candidate json.RawMessage  `json:"candidate,omitempty"`
}

// RolloutTransition is one recorded state-machine move, exposed for
// harnesses (the simnet invariant checker audits the delivery log against
// this list) and for tests.
type RolloutTransition struct {
	At   time.Duration
	Key  profilestore.Key
	Kind string // "adopt" | "canary_start" | "quarantine" | "promote" | "publish" | "rollback"
	From rollout.State
	To   rollout.State
	// ETag is the plan version the transition concerns (the candidate, or
	// the adopted plan); StableETag the stable version after the move.
	// The decision inputs and the cohort size ride on the transition's
	// trace event as attributes.
	ETag       string
	StableETag string
}

// RolloutTransitions returns every recorded transition, in order.
func (s *Server) RolloutTransitions() []RolloutTransition {
	s.rolloutMu.Lock()
	defer s.rolloutMu.Unlock()
	out := make([]RolloutTransition, len(s.transitions))
	copy(out, s.transitions)
	return out
}

// RolloutSnapshot reports the tracker state for one key; ok is false when
// rollout is disabled or the key has no rollout state yet.
func (s *Server) RolloutSnapshot(app, workload string) (snap rollout.Snapshot, ok bool) {
	s.peekShard(profilestore.Key{App: app, Workload: workload}, func(sh *shard) {
		if ok = sh.roll != nil; ok {
			snap = sh.roll.Snapshot()
		}
	})
	return snap, ok
}

// shortETag trims a content-addressed ETag (a quoted sha256 hex string)
// to a display prefix for trace events.
func shortETag(etag string) string {
	t := etag
	if len(t) >= 2 && t[0] == '"' {
		t = t[1 : len(t)-1]
	}
	if len(t) > 12 {
		t = t[:12]
	}
	return t
}

// restoreRolloutLocked populates the shard's tracker (and stable/candidate
// plan caches) from the persisted rollout document, once per shard when
// rollout is on (caller holds sh.mu; inShard calls it on every way in). A
// missing document means a fresh key — or a store written with rollout
// off, whose plan (its evidence's merge) the next merge or cold load
// publishes, and the tracker's first observation adopts as stable. A
// corrupt document degrades the same way rather than taking the key down.
func (s *Server) restoreRolloutLocked(sh *shard) error {
	if s.ro == nil || sh.roll != nil {
		return nil
	}
	cfg := *s.ro
	data, err := s.store.Rollout(sh.key.App, sh.key.Workload)
	if err != nil && !errors.Is(err, profilestore.ErrNotFound) {
		return err
	}
	var doc rolloutDoc
	if err != nil || json.Unmarshal(data, &doc) != nil {
		sh.roll = rollout.NewTracker(cfg)
		return nil
	}
	sh.roll = rollout.Restore(cfg, doc.Snapshot)
	if c := restoredPlan(doc.Stable); c != nil && c.etag == sh.roll.StableETag() {
		sh.plan = c
	}
	if c := restoredPlan(doc.Candidate); c != nil && sh.roll.State() == rollout.StateCanary && c.etag == sh.roll.CandidateETag() {
		sh.cand = c
	}
	s.keyGauge(&sh.stateGauge, "rollout_state", sh.key).Set(int64(sh.roll.State()))
	return nil
}

// restoredPlan rebuilds a published plan from the full encoding embedded
// in the rollout document, which indents it: the encoding is its compact
// form plus a newline. Nil when the document holds no such plan.
func restoredPlan(raw json.RawMessage) *cachedPlan {
	var full bytes.Buffer
	if len(raw) == 0 || json.Compact(&full, raw) != nil {
		return nil
	}
	full.WriteByte('\n')
	var p analyzer.Profile
	if json.Unmarshal(full.Bytes(), &p) != nil {
		return nil
	}
	c, _ := newCachedPlan(&p, full.Bytes())
	return c
}

// persistRolloutLocked writes the shard's rollout document (caller holds
// sh.mu); the store's staged-write-and-rename keeps the previous document
// intact across a crash mid-write. A plan is embedded only under the ETag
// the tracker names for it.
func (s *Server) persistRolloutLocked(sh *shard) error {
	doc := rolloutDoc{Snapshot: sh.roll.Snapshot()}
	if sh.plan != nil && sh.plan.etag == sh.roll.StableETag() {
		doc.Stable = sh.plan.full
	}
	if sh.cand != nil && sh.cand.etag == sh.roll.CandidateETag() {
		doc.Candidate = sh.cand.full
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("planserver: encoding rollout state: %w", err)
	}
	return s.store.PutRollout(sh.key.App, sh.key.Workload, data)
}

// cohortLocked returns the canary cohort over the key's known instances
// (caller holds sh.mu). The cohort is recomputed only when the instance
// count changes: evidence is last-write-wins per instance, so the id set
// only ever grows.
func (s *Server) cohortLocked(sh *shard) map[string]bool {
	n := len(sh.evidence)
	if sh.cohort != nil && sh.cohortN == n {
		return sh.cohort
	}
	ids := make([]string, 0, n)
	for id := range sh.evidence {
		if id != profilestore.SeedInstance {
			ids = append(ids, id)
		}
	}
	sh.cohort = rollout.Cohort(s.ro.Seed, ids, s.ro.CanaryFraction)
	sh.cohortN = n
	return sh.cohort
}

// planForLocked is the one choice of the plan to serve instance (caller
// holds sh.mu): the staged candidate for canary-cohort members while a
// canary is open, the published (stable) plan otherwise — always, with
// rollout off. An empty instance (a client predating the header, or a
// curl) is never canaried.
func (s *Server) planForLocked(sh *shard, instance string) *cachedPlan {
	if sh.cand == nil || instance == "" || sh.roll == nil || sh.roll.State() != rollout.StateCanary {
		return sh.plan
	}
	if s.cohortLocked(sh)[instance] {
		return sh.cand
	}
	return sh.plan
}

// recordTransition appends to the transition log, bumps counters, updates
// the state gauge and emits the trace event. Caller holds sh.mu.
func (s *Server) recordTransition(sh *shard, tr RolloutTransition, attrs ...trace.Attr) {
	tr.At = s.opts.Now()
	tr.Key = sh.key
	tr.StableETag = sh.roll.StableETag()
	s.rolloutMu.Lock()
	s.transitions = append(s.transitions, tr)
	s.rolloutMu.Unlock()
	s.keyGauge(&sh.stateGauge, "rollout_state", sh.key).Set(int64(sh.roll.State()))
	if s.opts.Tracer.Enabled() {
		base := []trace.Attr{
			trace.String("app", sh.key.App),
			trace.String("workload", sh.key.Workload),
			trace.String("etag", shortETag(tr.ETag)),
			trace.String("stable", shortETag(tr.StableETag)),
			trace.String("from", tr.From.String()),
			trace.String("to", tr.To.String()),
		}
		s.opts.Tracer.EventAt(tr.At, "rollout", tr.Kind, append(base, attrs...)...)
	}
}

// publishLocked is the one publication step for a merged plan (caller
// holds sh.mu). With rollout off it installs c fleet-wide. With rollout on
// it feeds c through the key's state machine, syncs the shard's
// stable/candidate caches to the tracker's verdict and persists the
// rollout document; a persistence failure is returned (a merge failure,
// to drain).
func (s *Server) publishLocked(sh *shard, c *cachedPlan) error {
	if s.ro == nil {
		sh.plan = c
		return nil
	}
	if err := s.restoreRolloutLocked(sh); err != nil {
		return err
	}
	from := sh.roll.State()
	ev := sh.roll.Observe(c.etag)

	// Sync the content caches: whatever the tracker now calls stable or
	// candidate, make sure the shard holds its body. This also heals a
	// crash window where a previous persist failed after the tracker
	// advanced.
	switch c.etag {
	case sh.roll.StableETag():
		sh.plan = c
	case sh.roll.CandidateETag():
		sh.cand = c
	}
	// The move is recorded as it takes effect in memory, then persisted —
	// the order decideLocked keeps for feedback decisions.
	switch ev {
	case rollout.EventAdopt:
		s.recordTransition(sh, RolloutTransition{
			Kind: "adopt", From: from, To: sh.roll.State(), ETag: c.etag,
		})
	case rollout.EventCanary:
		s.canaries.Inc()
		s.recordTransition(sh, RolloutTransition{
			Kind: "canary_start", From: from, To: sh.roll.State(), ETag: c.etag,
		}, trace.Int64("cohort", int64(len(s.cohortLocked(sh)))))
	case rollout.EventQuarantined:
		s.recordTransition(sh, RolloutTransition{
			Kind: "quarantine", From: from, To: sh.roll.State(), ETag: c.etag,
		})
	}
	return s.persistRolloutLocked(sh)
}

// decideLocked applies a feedback decision to the shard (caller holds
// sh.mu): promote installs the candidate fleet-wide, rollback discards it
// (the tracker has already quarantined its ETag). Both persist before
// returning; a failed persist is surfaced to the reporter as a 500 while
// the in-memory state stands — conservative on restart either way,
// because the stale document only ever re-opens a canary, never publishes
// one.
func (s *Server) decideLocked(sh *shard, out rollout.Outcome) error {
	if out.Decision == rollout.DecisionNone {
		return nil
	}
	tr := RolloutTransition{
		Kind: "promote", From: rollout.StateCanary, To: rollout.StatePromoting,
	}
	if sh.cand != nil {
		tr.ETag = sh.cand.etag
	}
	counter := s.promotions
	if out.Decision == rollout.DecisionRollback {
		tr.Kind, tr.To, counter = "rollback", rollout.StateRolledBack, s.rollbacks
	}
	counter.Inc()
	s.recordTransition(sh, tr,
		trace.Dur("canary_p99", out.CanaryP99),
		trace.Dur("baseline_p99", out.Baseline99),
		trace.Int64("canary_n", int64(out.CanaryN)),
		trace.Int64("baseline_n", int64(out.BaselineN)))
	if out.Decision == rollout.DecisionPromote {
		if sh.cand != nil {
			sh.plan = sh.cand
		}
		s.recordTransition(sh, RolloutTransition{
			Kind: "publish", From: rollout.StatePromoting, To: rollout.StateStable, ETag: tr.ETag,
		})
	}
	sh.cand = nil
	return s.persistRolloutLocked(sh)
}

// handleFeedback is POST /v1/feedback: one instance's plan-health report
// for one observation window. Reports are accepted (and counted) even
// with rollout disabled, so fleets can deploy reporting clients before
// flipping the daemon flag.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	outcome := "accepted"
	var rep rollout.Report
	instance := r.Header.Get(InstanceHeader)
	defer func() {
		if s.opts.Tracer.Enabled() {
			s.opts.Tracer.EventAt(start, "planserver", "feedback",
				trace.String("app", rep.App),
				trace.String("workload", rep.Workload),
				trace.String("instance", instance),
				trace.String("etag", shortETag(rep.ETag)),
				trace.String("outcome", outcome))
		}
	}()
	// The feedback counters are looked up by name: registered up front
	// with rollout on, on first use with it off, so a rollout-off
	// daemon's default /metricsz exposition is unchanged until a report
	// arrives.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, FeedbackBodyLimit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		outcome = refuse(w, s.reg.Counter("feedback_reject_total"), fmt.Sprintf("planserver: decoding feedback: %v", err))
		return
	}
	if !validInstance(instance) {
		outcome = refuse(w, s.reg.Counter("feedback_reject_total"), fmt.Sprintf("planserver: feedback must carry a non-empty %s header of at most 128 bytes", InstanceHeader))
		return
	}
	if err := rep.Validate(); err != nil {
		outcome = refuse(w, s.reg.Counter("feedback_reject_total"), fmt.Sprintf("planserver: invalid feedback: %v", err))
		return
	}
	s.reg.Counter("feedback_reports_total").Inc()
	if s.ro == nil {
		// Rollout disabled: acknowledge and count, decide nothing.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	var out rollout.Outcome
	err := s.inShard(profilestore.Key{App: rep.App, Workload: rep.Workload}, func(sh *shard) error {
		inCohort := sh.roll.State() == rollout.StateCanary && s.cohortLocked(sh)[instance]
		out = sh.roll.Record(&rep, inCohort)
		return s.decideLocked(sh, out)
	})
	if err != nil {
		outcome = s.storeError(w, err)
		return
	}
	if out.Decision != rollout.DecisionNone {
		outcome = out.Decision.String()
	}
	w.WriteHeader(http.StatusNoContent)
}
