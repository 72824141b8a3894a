package simnet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/fleetclient"
	"polm2/internal/metrics"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
	"polm2/internal/trace"
)

// This file is layer three of the simulator: the invariant checker. Its
// evidence is the transport's delivery log — what the network actually
// handed the daemon, faults and all — replayed through an independent
// fleet-merge model (the same analyzer fold the daemon uses, driven from
// the log rather than from daemon state). Everything the daemon claims —
// counters, gauges, plan versions, plan content — is checked against that
// model after the fleet has quiesced.

// KeyReport summarizes one (app, workload) key's outcome.
type KeyReport struct {
	Key profilestore.Key
	// DistinctInstances counts instances whose evidence was delivered at
	// least once; Uploads counts accepted upload deliveries (duplicates
	// and stale redeliveries included — each is an upload the daemon
	// accepted).
	DistinctInstances, Uploads int
	// ETag is the daemon's final plan version as the fleet observed it;
	// ExpectedETag is the checker's independent merge of the delivery
	// log. The convergence invariant requires them equal.
	ETag, ExpectedETag string
	// Converged counts this key's instances whose final poll installed
	// ExpectedETag; Members is the key's fleet share.
	Converged, Members int
}

// Report is one run's outcome: scenario parameters, traffic and fault
// accounting, per-key convergence, and every invariant violation found.
type Report struct {
	Seed      int64
	FaultSpec string // effective plan, "seed=" pinned, for replay
	Instances int
	KeyCount  int
	Rounds    int

	SimTime    time.Duration
	Events     int
	Deliveries int
	Net        netStats

	Uploads, Merges, Coalesced, Rejected, StoreErrs uint64
	// TaintedDelivered is the largest tainted total carried by any
	// single accepted upload — proof the run exercised degradation when
	// the scenario meant to.
	TaintedDelivered uint64

	// Replication accounting, populated on multi-daemon runs: the daemon
	// count and the anti-entropy counters summed across daemons.
	Daemons                                  int
	PeerSyncs, PeerSyncErrs, PeerDocsApplied uint64

	// Rollout-mode accounting, populated when the run enabled the canary
	// controller: the daemon's feedback and decision counters plus the
	// per-key controller end state.
	RolloutEnabled                            bool
	Feedback, Canaries, Promotions, Rollbacks uint64
	Rollout                                   []RolloutKeyReport

	PerKey     []KeyReport
	Violations []string
}

// RolloutKeyReport is one key's rollout controller end state — one row
// per daemon on a replicated run.
type RolloutKeyReport struct {
	Key profilestore.Key
	// Daemon names the replica this row reports; "" on single-daemon
	// runs, which keeps their logs byte-identical.
	Daemon      string
	State       string
	StableETag  string
	Quarantined int
	Promotions  uint64
	Rollbacks   uint64
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Log renders the deterministic invariant log: a fixed-order, fully
// seeded-content summary. Two runs of one seed must produce identical
// bytes — the replay test diffs this string, and the seed sweep prints it
// on failure as the reproduction recipe.
func (r *Report) Log() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simnet: seed=%d instances=%d keys=%d rounds=%d faults=%q\n",
		r.Seed, r.Instances, r.KeyCount, r.Rounds, r.FaultSpec)
	fmt.Fprintf(&b, "time=%s events=%d deliveries=%d refused=%d dropped=%d dup=%d stale=%d delayed=%d err5xx=%d\n",
		r.SimTime, r.Events, r.Deliveries, r.Net.Refused, r.Net.Dropped, r.Net.Dup, r.Net.Stale, r.Net.Delayed, r.Net.Err5xx)
	fmt.Fprintf(&b, "uploads=%d merges=%d coalesced=%d rejected=%d store_errors=%d tainted_max=%d\n",
		r.Uploads, r.Merges, r.Coalesced, r.Rejected, r.StoreErrs, r.TaintedDelivered)
	if r.Daemons > 1 {
		fmt.Fprintf(&b, "replication: daemons=%d syncs=%d sync_errors=%d docs_applied=%d\n",
			r.Daemons, r.PeerSyncs, r.PeerSyncErrs, r.PeerDocsApplied)
	}
	for _, k := range r.PerKey {
		fmt.Fprintf(&b, "key %s: instances=%d uploads=%d converged=%d/%d etag=%s expected=%s\n",
			k.Key, k.DistinctInstances, k.Uploads, k.Converged, k.Members,
			shortETag(k.ETag), shortETag(k.ExpectedETag))
	}
	if r.RolloutEnabled {
		fmt.Fprintf(&b, "rollout: feedback=%d canaries=%d promotions=%d rollbacks=%d\n",
			r.Feedback, r.Canaries, r.Promotions, r.Rollbacks)
		for _, k := range r.Rollout {
			name := k.Key.String()
			if k.Daemon != "" {
				name += "@" + k.Daemon
			}
			fmt.Fprintf(&b, "rollout key %s: state=%s stable=%s quarantined=%d promotions=%d rollbacks=%d\n",
				name, k.State, shortETag(k.StableETag), k.Quarantined, k.Promotions, k.Rollbacks)
		}
	}
	if len(r.Violations) == 0 {
		b.WriteString("invariants: ok\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// shortETag abbreviates a content-addressed tag for the log.
func shortETag(etag string) string {
	s := strings.Trim(etag, `"`)
	if len(s) > 12 {
		s = s[:12]
	}
	if s == "" {
		s = "-"
	}
	return s
}

// violate records one invariant violation.
func (s *sim) violate(r *Report, format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	r.Violations = append(r.Violations, v)
	if s.tracer.Enabled() {
		s.tracer.Event("simnet", "invariant", trace.Bool("ok", false), trace.String("detail", v))
	}
}

// report evaluates every invariant against the delivery log and the
// daemons' own accounting.
func (s *sim) report() *Report {
	r := &Report{
		Seed:       s.cfg.Seed,
		FaultSpec:  s.plan.String(),
		Instances:  s.cfg.Instances,
		KeyCount:   s.cfg.Keys,
		Rounds:     s.cfg.Rounds,
		SimTime:    s.clock.Now(),
		Events:     s.events,
		Deliveries: len(s.net.deliveries),
		Net:        s.net.stats,
	}
	r.RolloutEnabled = s.cfg.Rollout != nil
	r.Daemons = s.cfg.Daemons
	for _, srv := range s.srvs {
		reg := srv.Metrics()
		r.Uploads += reg.Counter("evidence_upload_total").Value()
		r.Merges += reg.Counter("evidence_merge_total").Value()
		r.Coalesced += reg.Counter("evidence_coalesced_total").Value()
		r.Rejected += reg.Counter("evidence_reject_total").Value()
		r.StoreErrs += reg.Counter("store_error_total").Value()
		if r.RolloutEnabled {
			r.Feedback += reg.Counter("feedback_reports_total").Value()
			r.Canaries += reg.Counter("rollout_canary_total").Value()
			r.Promotions += reg.Counter("rollout_promotions_total").Value()
			r.Rollbacks += reg.Counter("rollout_rollbacks_total").Value()
		}
		if s.cfg.Daemons > 1 {
			r.PeerSyncs += reg.Counter("peer_sync_total").Value()
			r.PeerSyncErrs += reg.Counter("peer_sync_error_total").Value()
			r.PeerDocsApplied += reg.Counter("peer_docs_applied_total").Value()
		}
	}

	model := s.checkDeliveries(r)
	s.checkCounters(r)
	s.checkDaemonCounters(r)
	regressed := s.rolledBack()
	s.checkKeys(r, model, regressed)
	if r.RolloutEnabled {
		s.checkRollout(r, regressed)
	}
	if s.cfg.Daemons > 1 {
		s.checkStamps(r)
		s.checkSettledRound(r)
	}

	if s.tracer.Enabled() && len(r.Violations) == 0 {
		s.tracer.Event("simnet", "invariant", trace.Bool("ok", true))
	}
	return r
}

// deliveredModel is the checker's reconstruction of the fleet state from
// the delivery log: each instance's latest accepted evidence per key, in
// delivery order — exactly the last-write-wins fold the daemon promises.
type deliveredModel struct {
	evidence map[profilestore.Key]map[string]*analyzer.Profile
	uploads  map[profilestore.Key]int
	keys     []profilestore.Key
	// bodies holds the digest of the one body each daemon serves under
	// each ETag.
	bodies map[servedVersion][32]byte
	// stamps holds each evidence winner's stamp on a replicated run (nil
	// otherwise): the set every daemon must hold, and advertise the key
	// sum of, at the sync fixpoint.
	stamps map[profilestore.Key]map[string]profilestore.Stamp
}

// servedVersion names one plan version as one daemon serves it.
type servedVersion struct{ daemon, etag string }

// checkDeliveries walks the log once: it builds the model, enforces the
// per-delivery invariants (one body per daemon and ETag — a version names
// one plan; duplicate deliveries answered identically — the observable
// face of idempotent replay), and enforces per-key ETag monotonicity (a
// published version, once replaced, never comes back).
func (s *sim) checkDeliveries(r *Report) *deliveredModel {
	m := &deliveredModel{
		evidence: make(map[profilestore.Key]map[string]*analyzer.Profile),
		uploads:  make(map[profilestore.Key]int),
		bodies:   make(map[servedVersion][32]byte),
	}
	// Version histories are per daemon: replicas converge through sync but
	// never promise lockstep publication. On a single-daemon run the
	// daemon component is the constant "polm2d", so the keying is
	// identical to the historical per-key check.
	type daemonKey struct {
		daemon string
		key    profilestore.Key
	}
	current := make(map[daemonKey]string)
	abandoned := make(map[daemonKey]map[string]bool)
	// In a replicated run one instance's uploads can land on different
	// daemons (failover), and duplicate redeliveries advance the receiving
	// daemon's sequence past the client's — so the fleet-wide winner for
	// an instance's evidence is decided by the daemons' own contract, the
	// highest stamp, not by delivery-log order.
	if s.cfg.Daemons > 1 {
		m.stamps = make(map[profilestore.Key]map[string]profilestore.Stamp)
	}
	for i, d := range s.net.deliveries {
		if d.bodySum != ([32]byte{}) {
			v := servedVersion{d.daemon, d.etag}
			if first, seen := m.bodies[v]; !seen {
				m.bodies[v] = d.bodySum
			} else if first != d.bodySum {
				s.violate(r, "content addressing: delivery %d (%s %s) serves a second body under %s's ETag %s",
					i, d.instance, d.op, d.daemon, shortETag(d.etag))
			}
		}
		if d.dup && i > 0 {
			prev := s.net.deliveries[i-1]
			if prev.status != d.status || prev.etag != d.etag {
				s.violate(r, "idempotent replay: duplicate delivery %d of %s %s answered (%d, %s), original (%d, %s)",
					i, d.instance, d.op, d.status, shortETag(d.etag), prev.status, shortETag(prev.etag))
			}
		}
		// ETag monotonicity is a non-rollout invariant: with the canary
		// controller on, cohort and baseline instances legitimately
		// observe different versions at once, and a rollback returns the
		// fleet to an earlier version by design. Rollout runs get the
		// containment and convergence checks (checkRollout) instead.
		if s.cfg.Rollout == nil && d.etag != "" && (d.status == http.StatusOK || d.status == http.StatusNotModified) {
			dk := daemonKey{d.daemon, d.key}
			cur, ok := current[dk]
			if !ok || cur != d.etag {
				if abandoned[dk][d.etag] {
					s.violate(r, "etag monotonicity: key %s on %s revisited abandoned version %s at delivery %d",
						d.key, d.daemon, shortETag(d.etag), i)
				}
				if ok {
					if abandoned[dk] == nil {
						abandoned[dk] = make(map[string]bool)
					}
					abandoned[dk][cur] = true
				}
				current[dk] = d.etag
			}
		}
		if d.op == "upload" && d.status == http.StatusOK && d.evidence != nil {
			ev := m.evidence[d.key]
			if ev == nil {
				ev = make(map[string]*analyzer.Profile)
				m.evidence[d.key] = ev
				m.keys = append(m.keys, d.key)
			}
			if m.stamps == nil {
				ev[d.instance] = d.evidence
			} else if st, ok := parseStamp(d.stamp); !ok {
				s.violate(r, "replication: accepted upload delivery %d (%s on %s) carries no parseable stamp %q",
					i, d.instance, d.daemon, d.stamp)
			} else {
				bk := m.stamps[d.key]
				if bk == nil {
					bk = make(map[string]profilestore.Stamp)
					m.stamps[d.key] = bk
				}
				if cur, seen := bk[d.instance]; !seen || cur.Less(st) {
					bk[d.instance] = st
					ev[d.instance] = d.evidence
				}
			}
			m.uploads[d.key]++
			var tainted uint64
			for _, site := range d.evidence.Sites {
				tainted += site.Tainted
			}
			if tainted > r.TaintedDelivered {
				r.TaintedDelivered = tainted
			}
		}
	}
	sort.Slice(m.keys, func(i, j int) bool { return m.keys[i].String() < m.keys[j].String() })
	return m
}

// checkCounters holds the fleet to a fault plan made of delivery faults
// (not corruption): it rejects nothing and breaks no store.
func (s *sim) checkCounters(r *Report) {
	if r.Rejected != 0 {
		s.violate(r, "counter accounting: %d uploads rejected on a fault plan that never corrupts payloads", r.Rejected)
	}
	if r.StoreErrs != 0 {
		s.violate(r, "counter accounting: %d store/merge errors on a healthy store", r.StoreErrs)
	}
}

// daemonLabel names daemon i in violations: its fabric host name, which
// is "polm2d" on a single-daemon run.
func (s *sim) daemonLabel(i int) string {
	if s.cfg.Daemons == 1 {
		return "polm2d"
	}
	return daemonName(i)
}

// rolledBack collects every version any daemon rolled back, per key, with
// the instant of its (first) rollback.
func (s *sim) rolledBack() map[profilestore.Key]map[string]time.Duration {
	regressed := make(map[profilestore.Key]map[string]time.Duration)
	for _, srv := range s.srvs {
		for _, tr := range srv.RolloutTransitions() {
			if tr.Kind != "rollback" {
				continue
			}
			if regressed[tr.Key] == nil {
				regressed[tr.Key] = make(map[string]time.Duration)
			}
			if _, seen := regressed[tr.Key][tr.ETag]; !seen {
				regressed[tr.Key][tr.ETag] = tr.At
			}
		}
	}
	return regressed
}

// checkKeys evaluates the per-key invariants after the fleet quiesced, on
// every daemon — a single-daemon run is the one-replica case:
//
//   - Plan identity: with rollout off, each daemon publishes exactly the
//     content-addressed version of the checker's independent merge of
//     delivered evidence (the stamp winners, on a replicated run) — no
//     document lost to a partition, none double-counted by a duplicated
//     or failed-over upload — serves under it the merge's directives
//     without its per-site evidence, and its store's plan for the key
//     carries exactly the tainted evidence delivered (no sticky
//     degradation).
//   - Gauge accounting: each daemon's evidence_instances gauge equals the
//     key's distinct uploaders (on a replicated run: every replicated
//     document arrived).
//   - Key-sum honesty (replicated runs): each daemon's sync summary
//     carries the document count and key sum of the log's stamp winners.
//   - Rollout end state: each daemon's controller is terminal with a
//     stable plan that is never a rolled-back version, and quarantines
//     every version any daemon rolled back — the grow-only union the
//     quarantine anti-entropy promises. One r.Rollout row per daemon.
//   - Convergence: every member's final poll installed the target — the
//     model merge, or in rollout mode some daemon's stable version (sticky
//     failover lands a poll on any replica) that does not instrument the
//     regression site. Keys with no delivered evidence answer no-plan.
func (s *sim) checkKeys(r *Report, m *deliveredModel, regressed map[profilestore.Key]map[string]time.Duration) {
	members := make(map[profilestore.Key][]*instance)
	for _, in := range s.instances {
		members[in.key] = append(members[in.key], in)
	}
	var advertised []map[profilestore.Key]keySummary
	if m.stamps != nil {
		advertised = make([]map[profilestore.Key]keySummary, len(s.srvs))
		for i, srv := range s.srvs {
			var err error
			if advertised[i], err = advertisedSums(srv); err != nil {
				s.violate(r, "key sums: %s sync summary unreadable: %v", daemonName(i), err)
			}
		}
	}

	for _, key := range m.keys {
		kr := KeyReport{Key: key, Uploads: m.uploads[key], Members: len(members[key])}
		ev := m.evidence[key]
		kr.DistinctInstances = len(ev)

		ids := make([]string, 0, len(ev))
		for id := range ev {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		inputs := make([]*analyzer.Profile, 0, len(ids))
		var modelTainted uint64
		for _, id := range ids {
			inputs = append(inputs, ev[id])
			for _, site := range ev[id].Sites {
				modelTainted += site.Tainted
			}
		}
		expected, err := analyzer.MergeProfiles(analyzer.Options{App: key.App, Workload: key.Workload}, inputs...)
		if err != nil {
			s.violate(r, "model merge for key %s failed: %v", key, err)
			r.PerKey = append(r.PerKey, kr)
			continue
		}
		kr.ExpectedETag, err = etagOf(expected)
		var wantBody [32]byte
		if err == nil {
			wantBody, err = servedSum(expected)
		}
		if err != nil {
			s.violate(r, "model encode for key %s failed: %v", key, err)
			r.PerKey = append(r.PerKey, kr)
			continue
		}
		var want keySummary
		if advertised != nil {
			want.Docs = len(m.stamps[key])
			for inst, st := range m.stamps[key] {
				want.Sum.Toggle(inst, st)
			}
		}

		stables := make(map[string]bool)
		served := 0
		for i, srv := range s.srvs {
			name := s.daemonLabel(i)
			if advertised != nil {
				if got := advertised[i][key]; got != want {
					s.violate(r, "key sums: %s advertises %d docs, sum %s for key %s; the log's stamp winners are %d docs, sum %s",
						name, got.Docs, got.Sum, key, want.Docs, want.Sum)
				}
			}
			// Rollout mode skips the plan-identity check: a quarantined
			// candidate is withheld by design, so a daemon's stable plan
			// and the full merge of delivered evidence legitimately differ.
			if !r.RolloutEnabled {
				if got := srv.PlanETag(key.App, key.Workload); got != kr.ExpectedETag {
					s.violate(r, "plan identity: %s serves %s for key %s, fleet merge of delivered evidence is %s",
						name, shortETag(got), key, shortETag(kr.ExpectedETag))
				}
				if got, ok := m.bodies[servedVersion{name, kr.ExpectedETag}]; ok {
					served++
					if got != wantBody {
						s.violate(r, "served projection: %s serves a body under %s (key %s) that is not the fleet merge's directives",
							name, shortETag(kr.ExpectedETag), key)
					}
				}
				s.checkStoredTaint(r, i, key, modelTainted)
			}
			gauge := srv.Metrics().Gauge(metrics.LabelName("evidence_instances",
				metrics.Label{Key: "app", Value: key.App},
				metrics.Label{Key: "workload", Value: key.Workload}))
			if got := gauge.Value(); got != int64(len(ev)) {
				s.violate(r, "gauge accounting: evidence_instances for %s on %s = %d, delivery log has %d distinct uploaders",
					key, name, got, len(ev))
			}
			if r.RolloutEnabled {
				s.checkRolloutEnd(r, i, key, regressed[key], stables)
			}
		}

		for _, in := range members[key] {
			if in.finalErr != nil {
				s.violate(r, "convergence: %s final poll failed on a quiet network: %v", in.id, in.finalErr)
				continue
			}
			if in.finalOutcome != fleetclient.OutcomeFresh && in.finalOutcome != fleetclient.OutcomeNotModified {
				s.violate(r, "convergence: %s final poll outcome %s, want a daemon-served plan", in.id, in.finalOutcome)
				continue
			}
			if r.RolloutEnabled {
				if !stables[in.finalETag] {
					s.violate(r, "rollout convergence: %s installed %s, not any daemon's stable version",
						in.id, shortETag(in.finalETag))
					continue
				}
				if poisoned(in.finalPlan) {
					s.violate(r, "rollout convergence: %s ends the run on a plan carrying the regression site", in.id)
					continue
				}
			} else if in.finalETag != kr.ExpectedETag {
				s.violate(r, "convergence: %s installed %s, fleet merge of delivered evidence is %s",
					in.id, shortETag(in.finalETag), shortETag(kr.ExpectedETag))
				continue
			}
			kr.Converged++
			if kr.ETag == "" {
				kr.ETag = in.finalETag
			}
		}
		if !r.RolloutEnabled && kr.Converged > 0 && served == 0 {
			s.violate(r, "served projection: key %s converged on %s, but the log holds no body served under it",
				key, shortETag(kr.ExpectedETag))
		}
		r.PerKey = append(r.PerKey, kr)
	}

	// Keys that never had evidence delivered must answer no-plan to
	// their instances — a daemon inventing a plan out of probes would
	// surface here.
	for key, ins := range members {
		if m.evidence[key] != nil {
			continue
		}
		for _, in := range ins {
			if in.finalErr != nil || in.finalOutcome != fleetclient.OutcomeNoPlan {
				s.violate(r, "convergence: %s got outcome %s for key %s with no delivered evidence, want no-plan",
					in.id, outcomeString(in.finalOutcome, in.finalErr), key)
			}
		}
	}
}

// checkStoredTaint is the no-sticky-degradation invariant on the plan
// daemon i's store defines for key (Store.Get, the merge of the key's
// evidence log): tainted counts are pure sums under the merge, so the
// merged plan must carry exactly what the delivered evidence carries — in
// particular, zero once every instance's latest upload is clean again.
// The served plan carries no per-site evidence, so the stored plan is where
// the sum is read. (Rollout mode skips this: the stable plan legitimately
// predates the newest evidence.)
func (s *sim) checkStoredTaint(r *Report, i int, key profilestore.Key, want uint64) {
	name := s.daemonLabel(i)
	p, err := s.stores[i].Get(key.App, key.Workload)
	if err != nil {
		s.violate(r, "sticky degradation: %s stored plan for key %s unreadable: %v", name, key, err)
		return
	}
	var got uint64
	for _, site := range p.Sites {
		got += site.Tainted
	}
	if got != want {
		s.violate(r, "sticky degradation: key %s plan on %s carries tainted=%d, delivered evidence sums to %d",
			key, name, got, want)
	}
}

// checkRolloutEnd pins daemon i's rollout controller end state for key and
// adds its stable version to stables: terminal, holding a stable plan,
// never stable on a rolled-back version, and quarantining every version
// in bad. It appends the key's r.Rollout row for the daemon (Daemon ""
// on a single-daemon run, which keeps that log byte-identical).
func (s *sim) checkRolloutEnd(r *Report, i int, key profilestore.Key, bad map[string]time.Duration, stables map[string]bool) {
	name := s.daemonLabel(i)
	snap, ok := s.srvs[i].RolloutSnapshot(key.App, key.Workload)
	if !ok {
		s.violate(r, "rollout: no controller state for key %s on %s", key, name)
		return
	}
	if snap.State == rollout.StateCanary.String() || snap.State == rollout.StatePromoting.String() {
		s.violate(r, "rollout: key %s on %s still mid-canary (%s) after the settle phase", key, name, snap.State)
	}
	if snap.StableETag == "" {
		s.violate(r, "rollout: key %s on %s has delivered evidence but no stable plan", key, name)
	}
	stables[snap.StableETag] = true
	if _, ok := bad[snap.StableETag]; ok {
		s.violate(r, "rollout convergence: key %s on %s ends stable on rolled-back version %s",
			key, name, shortETag(snap.StableETag))
	}
	quarantined := make(map[string]bool, len(snap.Quarantined))
	for _, etag := range snap.Quarantined {
		quarantined[etag] = true
	}
	etags := make([]string, 0, len(bad))
	for etag := range bad {
		etags = append(etags, etag)
	}
	sort.Strings(etags)
	for _, etag := range etags {
		if !quarantined[etag] {
			s.violate(r, "rollout quarantine: version %s was rolled back but %s does not quarantine it (key %s)",
				shortETag(etag), name, key)
		}
	}
	row := RolloutKeyReport{
		Key:         key,
		State:       snap.State,
		StableETag:  snap.StableETag,
		Quarantined: len(snap.Quarantined),
		Promotions:  snap.Promotions,
		Rollbacks:   snap.Rollbacks,
	}
	if s.cfg.Daemons > 1 {
		row.Daemon = daemonName(i)
	}
	r.Rollout = append(r.Rollout, row)
}

// checkRollout evaluates the rollout-mode invariants that read the
// delivery log and the daemons' recorded transitions (the controllers'
// end state is checkKeys'):
//
//   - Accounting: feedback_reports_total equals the accepted feedback
//     deliveries, and the canary/promote/rollback counters equal the
//     recorded transitions of each kind, summed over the daemons.
//   - Scenario effectiveness: a run that injected a regression
//     (Config.RegressAt) must have rolled something back, or the
//     containment invariants were vacuous.
//   - Containment (single-daemon runs): a candidate that regressed its
//     canary window was never served to — and never ran on, per the
//     feedback log — an instance outside the canary cohort, and never
//     served at all after its rollback. The cohort is replayed
//     independently: rollout.Cohort over the instances whose evidence the
//     log shows delivered by that moment, exactly the daemon's promise. A
//     replicated daemon's cohort also counts documents it pulled, which
//     the delivery log does not order against its fetches.
func (s *sim) checkRollout(r *Report, regressed map[profilestore.Key]map[string]time.Duration) {
	var canaryStarts, promotes, rollbacks uint64
	for _, srv := range s.srvs {
		for _, tr := range srv.RolloutTransitions() {
			switch tr.Kind {
			case "canary_start":
				canaryStarts++
			case "promote":
				promotes++
			case "rollback":
				rollbacks++
			}
		}
	}
	if r.Canaries != canaryStarts {
		s.violate(r, "rollout accounting: rollout_canary_total=%d, %d canary_start transitions recorded", r.Canaries, canaryStarts)
	}
	if r.Promotions != promotes {
		s.violate(r, "rollout accounting: rollout_promotions_total=%d, %d promote transitions recorded", r.Promotions, promotes)
	}
	if r.Rollbacks != rollbacks {
		s.violate(r, "rollout accounting: rollout_rollbacks_total=%d, %d rollback transitions recorded", r.Rollbacks, rollbacks)
	}
	var accepted uint64
	for _, d := range s.net.deliveries {
		if d.op == "feedback" && d.status == http.StatusNoContent {
			accepted++
		}
	}
	if r.Feedback != accepted {
		s.violate(r, "rollout accounting: feedback_reports_total=%d, delivery log has %d accepted reports", r.Feedback, accepted)
	}
	if s.cfg.RegressAt > 0 && rollbacks == 0 {
		s.violate(r, "rollout: regression injected at %s but nothing was ever rolled back", s.cfg.RegressAt)
	}
	if s.cfg.Daemons > 1 {
		return
	}

	// Containment replay. known accrues each key's delivered uploader set
	// in log order; the cohort is recomputed whenever it grows, mirroring
	// the daemon's evidence-driven cohort.
	known := make(map[profilestore.Key][]string)
	seen := make(map[profilestore.Key]map[string]bool)
	cohorts := make(map[profilestore.Key]map[string]bool)
	for i, d := range s.net.deliveries {
		if d.op == "upload" && d.status == http.StatusOK && d.evidence != nil {
			if seen[d.key] == nil {
				seen[d.key] = make(map[string]bool)
			}
			if !seen[d.key][d.instance] {
				seen[d.key][d.instance] = true
				known[d.key] = append(known[d.key], d.instance)
				cohorts[d.key] = rollout.Cohort(s.cfg.Rollout.Seed, known[d.key], s.cfg.Rollout.CanaryFraction)
			}
		}
		var ranETag string
		switch {
		case d.op == "fetch" && (d.status == http.StatusOK || d.status == http.StatusNotModified):
			ranETag = d.etag
		case d.op == "feedback" && d.feedback != nil:
			ranETag = d.feedback.ETag
		}
		if ranETag == "" {
			continue
		}
		at, isRegressed := regressed[d.key][ranETag]
		if !isRegressed {
			continue
		}
		if !cohorts[d.key][d.instance] {
			s.violate(r, "rollout containment: regressed version %s reached non-canary instance %s (%s delivery %d)",
				shortETag(ranETag), d.instance, d.op, i)
		}
		if d.op == "fetch" && d.at > at {
			s.violate(r, "rollout containment: regressed version %s served to %s at %s, after its rollback at %s",
				shortETag(ranETag), d.instance, d.at, at)
		}
	}
}

// keySummary is one key's entry of a daemon's sync summary as the checker
// reads it: how many replicating documents, and their key sum.
type keySummary struct {
	Docs int
	Sum  profilestore.KeySum
}

// advertisedSums reads a daemon's GET /v1/sync summary straight off its
// handler — the wire form a peer would compare, but not a network
// delivery, so the log stays what the fleet did.
func advertisedSums(srv http.Handler) (map[profilestore.Key]keySummary, error) {
	req, err := http.NewRequest(http.MethodGet, "/v1/sync", nil)
	if err != nil {
		return nil, err
	}
	w := newMemWriter()
	srv.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("status %d", w.code)
	}
	var doc struct {
		Keys []struct {
			App, Workload string
			keySummary
		}
	}
	if err := json.Unmarshal(w.body.Bytes(), &doc); err != nil {
		return nil, err
	}
	sums := make(map[profilestore.Key]keySummary, len(doc.Keys))
	for _, k := range doc.Keys {
		sums[profilestore.Key{App: k.App, Workload: k.Workload}] = k.keySummary
	}
	return sums, nil
}

// checkStamps audits the stamp discipline on the delivery log: each
// daemon's stamps for one (key, instance) strictly increase in delivery
// order, and an assigned sequence never trails the client's own upload
// sequence — the property that keeps a replayed stale upload from
// outliving the fresh one that follows it.
func (s *sim) checkStamps(r *Report) {
	last := make(map[string]profilestore.Stamp)
	for i, d := range s.net.deliveries {
		if d.op != "upload" || d.status != http.StatusOK || d.evidence == nil {
			continue
		}
		st, ok := parseStamp(d.stamp)
		if !ok {
			continue // checkDeliveries already reported the missing stamp
		}
		if st.Seq < d.clientSeq {
			s.violate(r, "stamp discipline: delivery %d (%s on %s) assigned seq %d behind client sequence %d",
				i, d.instance, d.daemon, st.Seq, d.clientSeq)
		}
		id := d.daemon + "|" + d.key.String() + "|" + d.instance
		if prev, seen := last[id]; seen && !prev.Less(st) {
			s.violate(r, "stamp discipline: delivery %d (%s on %s) stamp %s does not advance past %s",
				i, d.instance, d.daemon, st, prev)
		}
		last[id] = st
	}
}

// checkDaemonCounters closes each daemon's books individually: the
// uploads it counted are exactly the accepted deliveries the fabric
// handed it, and its merge passes covered exactly its own uploads plus
// its peer pulls (none on a single-daemon run).
func (s *sim) checkDaemonCounters(r *Report) {
	delivered := make(map[string]uint64)
	for _, d := range s.net.deliveries {
		if d.op == "upload" && d.status == http.StatusOK && d.evidence != nil {
			delivered[d.daemon]++
		}
	}
	for i, srv := range s.srvs {
		name := s.daemonLabel(i)
		reg := srv.Metrics()
		uploads := reg.Counter("evidence_upload_total").Value()
		merges := reg.Counter("evidence_merge_total").Value()
		coalesced := reg.Counter("evidence_coalesced_total").Value()
		applied := reg.Counter("peer_docs_applied_total").Value()
		if uploads != delivered[name] {
			s.violate(r, "counter accounting: %s counted %d uploads, the fabric delivered it %d",
				name, uploads, delivered[name])
		}
		if uploads+applied != merges+coalesced {
			s.violate(r, "counter accounting: %s uploads=%d + applied=%d != merges=%d + coalesced=%d",
				name, uploads, applied, merges, coalesced)
		}
	}
}

// checkSettledRound runs one more anti-entropy round after every other
// check has read the settled end state. Equal key sums everywhere make it
// idle in the exact sense: each daemon asks each peer for its summary and
// nothing else — no stamp list, no document. In rollout mode it doubles as
// the anti-resurrection probe: no daemon's controller state, stable
// version, or quarantine set may move — a quarantined candidate stays dead
// no matter how late a peer's copy of it arrives.
func (s *sim) checkSettledRound(r *Report) {
	snapshot := func() map[string]string {
		out := make(map[string]string)
		if !r.RolloutEnabled {
			return out
		}
		for i, srv := range s.srvs {
			for k := 0; k < s.cfg.Keys; k++ {
				app := "App" + strconv.Itoa(k)
				snap, ok := srv.RolloutSnapshot(app, "w")
				if !ok {
					continue
				}
				q := append([]string(nil), snap.Quarantined...)
				sort.Strings(q)
				out[daemonName(i)+"|"+app] = snap.State + "|" + snap.StableETag + "|" + strings.Join(q, ",")
			}
		}
		return out
	}
	before := snapshot()
	sent := len(s.net.deliveries)
	for _, srv := range s.srvs {
		srv.SyncPeers()
	}
	s.flushAll()
	if got, want := len(s.net.deliveries)-sent, len(s.srvs)*(len(s.srvs)-1); got != want {
		s.violate(r, "settled sync round: %d requests reached the daemons, want %d (one summary per peer, no descent)", got, want)
	}
	after := snapshot()
	ids := make([]string, 0, len(before))
	for id := range before {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if after[id] != before[id] {
			s.violate(r, "resurrection: %s changed across a settled sync round: %q -> %q", id, before[id], after[id])
		}
	}
	if len(after) != len(before) {
		s.violate(r, "resurrection: rollout state appeared or vanished across a settled sync round (%d -> %d keys)",
			len(before), len(after))
	}
}

// parseStamp parses the seq@origin wire form of a replication stamp.
func parseStamp(s string) (profilestore.Stamp, bool) {
	seqStr, origin, ok := strings.Cut(s, "@")
	if !ok || origin == "" {
		return profilestore.Stamp{}, false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || seq == 0 {
		return profilestore.Stamp{}, false
	}
	return profilestore.Stamp{Seq: seq, Origin: origin}, true
}

// etagOf computes the content-addressed version the daemon would assign a
// plan: SHA-256 over the full plan's encoding, the canonical JSON,
// newline-terminated — the same derivation planserver's encoder uses,
// reproduced here so the checker never asks the daemon to version its own
// expectation.
func etagOf(p *analyzer.Profile) (string, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("simnet: encoding expected plan: %w", err)
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%q", fmt.Sprintf("%x", sum)), nil
}

// servedSum is the digest of the body a daemon serves for plan p: p's
// canonical JSON without the per-site evidence, newline-terminated.
func servedSum(p *analyzer.Profile) ([32]byte, error) {
	wire := *p
	wire.Sites = nil
	body, err := json.Marshal(&wire)
	if err != nil {
		return [32]byte{}, fmt.Errorf("simnet: encoding expected plan: %w", err)
	}
	return sha256.Sum256(append(body, '\n')), nil
}
