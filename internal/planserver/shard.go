package planserver

import (
	"errors"
	"fmt"
	"sync"

	"polm2/internal/analyzer"
	"polm2/internal/metrics"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// shard is the per-(app, workload) slice of the daemon's state: the
// in-memory evidence cache, the encoded fleet plan, and the coalescing
// merge pipeline's bookkeeping. Uploads and fetches for different keys
// touch different shards and never contend; everything inside one shard
// is guarded by its own mutex.
//
// The write path is a coalescing pipeline: an accepted upload persists
// its evidence document (the durable log), updates the cache in place,
// bumps dirty, and makes sure a merge worker is scheduled. The worker
// drains: as long as dirty is ahead of mergedGen it snapshots the full
// evidence set, recomputes the fleet plan once for the whole backlog,
// persists and publishes it, then re-checks. However many uploads land
// while one merge is in flight, they are all covered by the next pass —
// a batch of N concurrent uploads costs at most two merges (one in
// flight when the batch starts, one covering the batch), not N.
type shard struct {
	key profilestore.Key

	mu   sync.Mutex
	cond *sync.Cond // broadcast when mergedGen, plan or lastErr move

	// evidence is the in-memory image of the store's per-instance
	// evidence log: each instance's latest validated upload. nil until
	// first use; populated from disk exactly once per daemon lifetime
	// (the lazy rebuild after a restart), then maintained in place —
	// steady-state uploads and merges never read the store.
	evidence map[string]*analyzer.Profile

	// stamps holds each evidence document's replication stamp (sync.go),
	// maintained in lockstep with evidence: advanced on every accepted
	// upload, adopted verbatim on every peer pull, advertised in sync
	// stamp lists. Instances absent here (the unstamped __seed__) carry
	// the zero stamp and lose every comparison. sum is the running KeySum
	// over stamps — what the sync summary advertises and the puller
	// compares — which is why every write to stamps goes through setStamp.
	stamps map[string]profilestore.Stamp
	sum    profilestore.KeySum

	// plan is the encoded, content-addressed fleet plan being served.
	// gen counts installs, so a cold store load racing a merge publish
	// can detect that it lost and must not overwrite the newer plan.
	plan   *cachedPlan
	gen    uint64
	flight *flight

	// dirty counts accepted uploads; mergedGen the uploads covered by
	// the published plan (or by a recorded failure). merging is true
	// while a worker is scheduled or draining.
	dirty     uint64
	mergedGen uint64
	merging   bool

	// lastErr is the most recent merge failure, errGen the backlog
	// generation it covered. A successful pass clears it.
	lastErr error
	errGen  uint64

	// acc is the reusable merge accumulator (parsed traces and fold
	// state survive across merges of this key); inputs is the worker's
	// snapshot scratch. Both are touched only by the shard's single
	// worker, which never overlaps itself.
	acc    *analyzer.MergeAccumulator
	inputs []*analyzer.Profile

	// instGauge is this key's evidence_instances gauge, resolved lazily on
	// the first accepted upload (so plan probes for unknown keys never
	// register metrics) and cached so the upload path never rebuilds the
	// labeled metric name.
	instGauge *metrics.Gauge

	// Canary rollout state (rollout.go); all nil/zero with rollout off.
	// In rollout mode, plan above is the *stable* (last-good) plan and
	// cand is the staged candidate a canary cohort is testing; roll is
	// the key's state machine, restored from the persisted rollout
	// document once (rollLoaded). stableProf/candProf retain the decoded
	// profiles so the document can embed both plan bodies.
	roll       *rollout.Tracker
	rollLoaded bool
	cand       *cachedPlan
	stableProf *analyzer.Profile
	candProf   *analyzer.Profile
	cohort     map[string]bool // cached canary cohort over evidence instances
	cohortN    int             // instance count the cohort was computed for
	stateGauge *metrics.Gauge  // this key's rollout_state gauge
}

func newShard(k profilestore.Key) *shard {
	sh := &shard{key: k}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// setStamp records instance's new stamp and moves the key sum with it:
// the old pair out, the new pair in (caller holds sh.mu).
func (sh *shard) setStamp(instance string, st profilestore.Stamp) {
	sh.sum.Toggle(instance, sh.stamps[instance])
	sh.sum.Toggle(instance, st)
	sh.stamps[instance] = st
}

// shard returns the state for k, creating it on first touch.
func (s *Server) shard(k profilestore.Key) *shard {
	s.shardMu.RLock()
	sh := s.shards[k]
	s.shardMu.RUnlock()
	if sh != nil {
		return sh
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if sh = s.shards[k]; sh == nil {
		sh = newShard(k)
		s.shards[k] = sh
	}
	return sh
}

// dropIfEmpty removes a shard that never came to hold anything — created
// by a plan fetch for a key the store has never seen — so probing random
// keys cannot grow the shard map without bound. A shard with evidence, a
// plan, pending work or an in-flight load stays.
func (s *Server) dropIfEmpty(sh *shard) {
	s.shardMu.Lock()
	sh.mu.Lock()
	if len(sh.evidence) == 0 && sh.plan == nil && sh.dirty == 0 && sh.flight == nil && !sh.merging {
		delete(s.shards, sh.key)
	}
	sh.mu.Unlock()
	s.shardMu.Unlock()
}

// loadEvidenceLocked returns the shard's evidence cache, populating it
// from the store on first touch (caller holds sh.mu). A store holding a
// plan but no evidence — seeded offline, or written by a pre-evidence
// build — contributes that plan once, as baseline evidence under
// seedInstance.
func (s *Server) loadEvidenceLocked(sh *shard) (map[string]*analyzer.Profile, error) {
	if sh.evidence != nil {
		return sh.evidence, nil
	}
	s.evidenceLoads.Inc()
	docs, err := s.store.EvidenceDocs(sh.key.App, sh.key.Workload)
	if err != nil {
		return nil, err
	}
	ev := make(map[string]*analyzer.Profile, len(docs))
	sh.stamps, sh.sum = make(map[string]profilestore.Stamp, len(docs)), profilestore.KeySum{}
	for inst, d := range docs {
		ev[inst] = d.Profile
		if !d.Stamp.IsZero() {
			sh.setStamp(inst, d.Stamp)
		}
	}
	if len(ev) == 0 {
		seed, err := s.store.Get(sh.key.App, sh.key.Workload)
		if err != nil && !errors.Is(err, profilestore.ErrNotFound) {
			return nil, err
		}
		if seed != nil && checkEvidence(seed) == nil {
			if err := s.store.PutEvidence(seedInstance, seed); err != nil {
				return nil, err
			}
			ev[seedInstance] = seed
		}
	}
	sh.evidence = ev
	return ev, nil
}

// ensureWorkerLocked guarantees a merge worker is scheduled for the shard
// (caller holds sh.mu). The returned func, when non-nil, must be invoked
// after releasing the lock — scheduling happens outside the lock so an
// inline scheduler (tests) can run the worker on the caller's goroutine.
func (s *Server) ensureWorkerLocked(sh *shard) func() {
	if sh.merging {
		return nil
	}
	sh.merging = true
	work := func() { sh.drain(s) }
	if s.opts.Schedule != nil {
		sched := s.opts.Schedule
		return func() { sched(work) }
	}
	return func() { go work() }
}

// awaitCovered blocks until the pipeline has covered backlog generation
// gen (caller holds sh.mu, which is held again on return) and returns the
// failure that covered it, if any. Without an injected Pump the wait parks
// on the shard's condition variable until a worker goroutine catches up;
// with one (single-threaded simulations) the waiter drives the scheduled
// work itself, and a pump that runs dry while the generation is still
// uncovered is a stalled pipeline — reported, never deadlocked.
func (s *Server) awaitCovered(sh *shard, gen uint64) error {
	for sh.mergedGen < gen {
		if s.opts.Pump == nil {
			sh.cond.Wait()
			continue
		}
		sh.mu.Unlock()
		progressed := s.opts.Pump()
		sh.mu.Lock()
		if !progressed && sh.mergedGen < gen {
			return fmt.Errorf("planserver: merge pipeline stalled waiting for generation %d of %s (nothing scheduled left to pump)", gen, sh.key)
		}
	}
	if sh.lastErr != nil && sh.errGen >= gen {
		return sh.lastErr
	}
	return nil
}

// drain is the merge worker: it runs merges until the published plan
// covers every accepted upload, then exits. At most one drain runs per
// shard at a time.
func (sh *shard) drain(s *Server) {
	sh.mu.Lock()
	for sh.mergedGen < sh.dirty {
		target := sh.dirty
		if sh.acc == nil {
			opts := s.opts.Merge
			opts.App, opts.Workload = sh.key.App, sh.key.Workload
			sh.acc = analyzer.NewMergeAccumulator(opts)
		}
		acc := sh.acc
		// Snapshot the inputs: profiles are immutable once accepted, so
		// the merge runs without the shard lock and uploads (including
		// replacements of the very pointers being read) proceed freely.
		sh.inputs = sh.inputs[:0]
		for _, p := range sh.evidence {
			sh.inputs = append(sh.inputs, p)
		}
		inputs := sh.inputs
		sh.mu.Unlock()

		acc.Reset()
		var err error
		for _, p := range inputs {
			if err = acc.Add(p); err != nil {
				break
			}
		}
		var merged *analyzer.Profile
		if err == nil {
			merged, err = acc.Merge()
		}
		var c *cachedPlan
		if err == nil {
			// The plan file is a convenience copy — the evidence log is
			// the durable truth — but keeping it fresh per batch means a
			// restarted daemon (or polm2-inspect) sees the fleet plan
			// without a rebuild.
			if perr := s.store.Put(merged); perr != nil {
				err = perr
			}
		}
		if err == nil {
			c, err = encodePlan(merged)
		}

		sh.mu.Lock()
		if err == nil && s.ro != nil {
			// Rollout mode: the merged plan is staged through the canary
			// state machine instead of installed fleet-wide; a persistence
			// failure is a merge failure (the previous plan stands).
			err = s.observeMergeLocked(sh, merged, c)
		}
		covered := target - sh.mergedGen
		sh.mergedGen = target
		if err != nil {
			// Every failure here is server-side: the handler validated the
			// upload (labels, trace parseability, bucket consistency)
			// before accepting it, so a merge that still fails is rooted
			// in stored state or the store itself. The plan stays at its
			// previous version — staleness, not outage — and the next
			// accepted upload retries the whole backlog.
			sh.lastErr, sh.errGen = err, target
			s.storeErrs.Inc()
		} else {
			sh.lastErr = nil
			if s.ro == nil {
				sh.plan = c
				sh.gen++
			}
			s.merges.Inc()
			if covered > 1 {
				s.coalesced.Add(covered - 1)
			}
		}
		sh.cond.Broadcast()
	}
	sh.merging = false
	sh.mu.Unlock()
}
