package planserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"polm2/internal/analyzer"
	"polm2/internal/metrics"
	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// shard is the per-(app, workload) slice of the daemon's state: the
// in-memory evidence cache, the encoded fleet plan, and the coalescing
// merge pipeline's bookkeeping. Uploads and fetches for different keys
// touch different shards and never contend; everything inside one shard —
// the evidence cache, the cold plan load, the published plan — is guarded
// by its own mutex.
//
// The write path is a coalescing pipeline: an accepted document
// (acceptLocked — a direct upload or a pulled peer document) is persisted
// to the durable log, updates the cache in place, bumps dirty, and makes
// sure a merge worker is scheduled. The worker drains: as long as dirty is
// ahead of mergedGen it snapshots the full evidence set, recomputes the
// fleet plan once for the whole backlog, persists and publishes it, then
// re-checks. However many uploads land while one merge is in flight, they
// are all covered by the next pass — a batch of N concurrent uploads costs
// at most two merges (one in flight when the batch starts, one covering
// the batch), not N.
//
// Every request reaches its shard through one accessor, inShard; read-only
// inspection (Flush, sync summaries, harness probes) goes through peekShard
// and eachShard, which create nothing and touch no store. A merged plan
// becomes the key's through one publication step (publishLocked), and the
// plan an instance is served is picked in one place (planForLocked).
type shard struct {
	key profilestore.Key

	mu   sync.Mutex
	cond *sync.Cond // broadcast when mergedGen, plan or lastErr move

	// retired is set when dropIfEmpty removes the shard from the map; a
	// locker that finds it set retries (lockShard).
	retired bool

	// evidence is the in-memory image of the store's per-instance
	// evidence log: each instance's latest validated document. The
	// daemon's one scan of the log fills it (Server.loadEvidence); from
	// then on accepted documents maintain it in place — uploads, merges
	// and sync reads never read the store's evidence again.
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

	// plan is the encoded, content-addressed fleet plan being served. A
	// cold cache is filled from the store under mu (loadPlanLocked), so a
	// merge publish can never interleave with a load.
	plan *cachedPlan

	// dirty counts accepted documents; mergedGen the documents covered by
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
	// the first accepted document (so plan probes for unknown keys never
	// register metrics) and cached so the upload path never rebuilds the
	// labeled metric name.
	instGauge *metrics.Gauge

	// Canary rollout state (rollout.go); all nil/zero with rollout off.
	// In rollout mode, plan above is the *stable* (last-good) plan and
	// cand is the staged candidate a canary cohort is testing; roll is
	// the key's state machine, nil until restored from the persisted
	// rollout document on first use. The document embeds the plan files
	// of both.
	roll       *rollout.Tracker
	cand       *cachedPlan
	cohort     map[string]bool // cached canary cohort over evidence instances
	cohortN    int             // instance count the cohort was computed for
	stateGauge *metrics.Gauge  // this key's rollout_state gauge: 0 stable, 1 canary, 2 promoting, 3 rolled_back
}

func newShard(k profilestore.Key) *shard {
	sh := &shard{
		key:      k,
		evidence: make(map[string]*analyzer.Profile),
		stamps:   make(map[string]profilestore.Stamp),
	}
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

// inShard is the one way a request reaches a key: it loads the evidence
// log (once per daemon lifetime), locks k's shard — created on first touch
// — restores its rollout state when rollout is on, and runs f under the
// lock. A shard left holding nothing (a probe of an unknown key) is dropped
// on the way out, so probe traffic cannot grow the shard map. Returns the
// first error of the load, the restore or f. Called with no shard lock
// held; f releases the lock only to hand over or wait for a merge worker
// (handOverLocked, awaitCovered).
func (s *Server) inShard(k profilestore.Key, f func(*shard) error) error {
	if err := s.loadEvidence(); err != nil {
		return err
	}
	sh := s.lockShard(k)
	err := s.restoreRolloutLocked(sh)
	if err == nil {
		err = f(sh)
	}
	idle := sh.idle()
	sh.mu.Unlock()
	if idle {
		s.dropIfEmpty(sh)
	}
	return err
}

// peekShard runs f under the lock of k's shard when the map holds one,
// creating nothing and touching no store.
func (s *Server) peekShard(k profilestore.Key, f func(*shard)) {
	s.shardMu.RLock()
	sh := s.shards[k]
	s.shardMu.RUnlock()
	if sh != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		f(sh)
	}
}

// eachShard runs f under the lock of every shard the map holds, one at a
// time in key order, creating nothing and touching no store.
func (s *Server) eachShard(f func(*shard)) {
	s.shardMu.RLock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.shardMu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].key.String() < shards[j].key.String() })
	for _, sh := range shards {
		sh.mu.Lock()
		f(sh)
		sh.mu.Unlock()
	}
}

// lockShard returns the state for k, created on first touch, with its
// lock held. dropIfEmpty may retire an empty shard between the map lookup
// and the lock; the retry then finds or creates its successor, so nothing
// is ever written into a shard the map has forgotten.
func (s *Server) lockShard(k profilestore.Key) *shard {
	for {
		s.shardMu.RLock()
		sh := s.shards[k]
		s.shardMu.RUnlock()
		if sh == nil {
			s.shardMu.Lock()
			if sh = s.shards[k]; sh == nil {
				sh = newShard(k)
				s.shards[k] = sh
			}
			s.shardMu.Unlock()
		}
		sh.mu.Lock()
		if !sh.retired {
			return sh
		}
		sh.mu.Unlock()
	}
}

// idle reports whether the shard holds nothing a later request needs: no
// evidence, no plan, no pending merge and no quarantined rollout ETag
// (caller holds sh.mu). A probe of an unknown key leaves its shard idle.
func (sh *shard) idle() bool {
	return len(sh.evidence) == 0 && sh.plan == nil && sh.dirty == 0 && !sh.merging &&
		(sh.roll == nil || len(sh.roll.Snapshot().Quarantined) == 0)
}

// dropIfEmpty removes a shard that is still idle once both locks are held,
// so a write racing the drop either lands first (and the shard stays) or
// finds the shard retired and retries in its successor.
func (s *Server) dropIfEmpty(sh *shard) {
	s.shardMu.Lock()
	sh.mu.Lock()
	if !sh.retired && sh.idle() {
		delete(s.shards, sh.key)
		sh.retired = true
	}
	sh.mu.Unlock()
	s.shardMu.Unlock()
}

// loadEvidence fills the shards from the evidence log, once per daemon
// lifetime: the first request that touches a shard scans the whole log in
// one pass (EvidenceAll), and every later request finds it loaded. A
// failed scan installs nothing and is retried by the next request. Called
// with no shard lock held.
func (s *Server) loadEvidence() error {
	if s.loaded.Load() {
		return nil
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.loaded.Load() {
		return nil
	}
	s.evidenceLoads.Inc()
	all, err := s.store.EvidenceAll()
	if err != nil {
		return err
	}
	for k, docs := range all {
		sh := s.lockShard(k)
		for inst, d := range docs {
			sh.evidence[inst] = d.Profile
			if !d.Stamp.IsZero() {
				sh.setStamp(inst, d.Stamp)
			}
		}
		sh.mu.Unlock()
	}
	s.loaded.Store(true)
	return nil
}

// acceptLocked makes one validated evidence document part of the shard —
// the single write path shared by direct uploads and pulled peer documents
// (caller holds sh.mu). The document is persisted to the durable log
// before anything else moves, then replaces the instance's prior
// contribution in the cache (so n cumulative re-profiles count once, and
// a replayed write is harmless), takes its stamp, and bumps the backlog
// generation the next merge covers; the caller then hands the worker over
// (handOverLocked).
//
// A key's first accepted document also adopts a plan the store holds
// without any evidence — seeded offline by polm2-profile — as baseline
// evidence under seedInstance, exactly once. Only writes adopt it: reads
// of a plan-only key leave the evidence log untouched.
func (s *Server) acceptLocked(sh *shard, instance string, stamp profilestore.Stamp, p *analyzer.Profile) error {
	if len(sh.evidence) == 0 {
		seed, err := s.store.Get(sh.key.App, sh.key.Workload)
		if err != nil && !errors.Is(err, profilestore.ErrNotFound) {
			return err
		}
		if seed != nil && checkEvidence(seed) == nil {
			if err := s.store.PutEvidenceStamped(seedInstance, profilestore.Stamp{}, seed); err != nil {
				return err
			}
			sh.evidence[seedInstance] = seed
		}
	}
	if err := s.store.PutEvidenceStamped(instance, stamp, p); err != nil {
		return err
	}
	sh.evidence[instance] = p
	sh.setStamp(instance, stamp)
	sh.dirty++
	s.keyGauge(&sh.instGauge, "evidence_instances", sh.key).Set(int64(len(sh.evidence)))
	return nil
}

// keyGauge returns the key's labeled gauge name{app,workload} cached in *g,
// registering it on first use — so a key mints its gauges only once it
// holds evidence or rollout state, and the hot paths never rebuild the
// labeled name.
func (s *Server) keyGauge(g **metrics.Gauge, name string, k profilestore.Key) *metrics.Gauge {
	if *g == nil {
		*g = s.reg.Gauge(metrics.LabelName(name,
			metrics.Label{Key: "app", Value: k.App},
			metrics.Label{Key: "workload", Value: k.Workload}))
	}
	return *g
}

// handOverLocked schedules a merge worker when the shard has accepted
// documents no merge covers yet and none is scheduled (caller holds sh.mu,
// held again on return). The hand-over itself happens with the lock
// released, so an inline executor (tests) can run the worker on the
// caller's goroutine.
func (s *Server) handOverLocked(sh *shard) {
	if sh.merging || sh.mergedGen >= sh.dirty {
		return
	}
	sh.merging = true
	sh.mu.Unlock()
	defer sh.mu.Lock()
	work := func() { sh.drain(s) }
	if exec := s.opts.Executor; exec != nil {
		exec.Go(work)
	} else {
		go work()
	}
}

// awaitCovered blocks until the pipeline has covered backlog generation
// gen (caller holds sh.mu, which is held again on return) and returns the
// failure that covered it, if any. A backlog with no worker yet gets one
// handed over first. Workers that run on their own (the goroutine default,
// an inline or gating Executor) are waited for on the shard's condition
// variable; a Stepper executor runs nothing on its own, so the waiter
// steps it — and a Stepper that runs dry while the generation is still
// uncovered is a stalled pipeline, reported, never deadlocked.
func (s *Server) awaitCovered(sh *shard, gen uint64) error {
	s.handOverLocked(sh)
	for sh.mergedGen < gen {
		if s.stepper == nil {
			sh.cond.Wait()
			continue
		}
		sh.mu.Unlock()
		ran := s.stepper.Step()
		sh.mu.Lock()
		if !ran && sh.mergedGen < gen {
			return fmt.Errorf("planserver: merge pipeline stalled waiting for generation %d of %s (the executor has nothing left to step)", gen, sh.key)
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
			sh.acc = analyzer.NewMergeAccumulator(analyzer.Options{App: sh.key.App, Workload: sh.key.Workload})
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

		start := s.opts.Now()
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
			// without a rebuild. Its bytes are what the ETag addresses.
			var file []byte
			if file, err = s.store.PutBytes(merged); err == nil {
				c, err = newCachedPlan(merged, file)
			}
		}
		s.mergeLatency.Observe(s.opts.Now() - start)

		sh.mu.Lock()
		if err == nil {
			err = s.publishLocked(sh, c)
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
