package planserver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"sort"

	"polm2/internal/analyzer"
	"polm2/internal/profilestore"
	"polm2/internal/trace"
)

// This file is the replication half of the daemon (DESIGN.md §15):
// pull-based anti-entropy between polm2d peers. Every daemon exposes
// GET /v1/sync at three depths — a summary with one small entry per key
// (document count, key sum, quarantine set) under one root hash over them
// all, one key's (instance, stamp) list, and a single-document fetch — and
// periodically pulls each configured peer's summary, descending only into
// keys whose count or sum differs from its own and fetching exactly the
// documents whose stamp beats its own, so a round costs what changed, not
// what exists. The puller sends its own root with the summary request; a
// peer with the same root answers without its key list, so an idle round
// is one request and one fixed-size answer whatever the key count.
// Last-write-wins per (key, instance) under the profilestore.Stamp total
// order makes the exchange commutative and idempotent: however partitions
// interleave the pulls, both sides end holding the per-instance winners,
// and MergeProfiles' own commutativity turns identical winner sets into
// identical plans.
//
// Pulled documents enter through the same accept path as uploads
// (acceptLocked: persist, cache, stamp, dirty bump), one key's batch in one
// shard visit with one worker hand-over, so replication inherits the
// pipeline's batching, publication and rollout semantics instead of
// growing a second write path. The rollout quarantine set replicates as a
// grow-only union — a rollback decision anywhere propagates everywhere
// and no stale peer can resurrect a quarantined plan.
//
// Everything here is gated on configuration: without Peers the poller
// never runs and no peer metrics are registered; without SelfID no stamp
// header is exposed. A daemon with replication off behaves byte-for-byte
// like a pre-replication build. The sync endpoint itself is always
// registered — answering a peer's read costs nothing and cannot diverge.

// EvidenceSeqHeader carries the uploader's own upload sequence number on
// POST /v1/evidence. The daemon folds it into the assigned stamp with
// max(clientSeq, previous+1), so a client-side counter survives daemon
// failover: an upload replayed to a second daemon cannot be beaten by an
// older document the first daemon already replicated out.
const EvidenceSeqHeader = "X-Polm2-Evidence-Seq"

// EvidenceStampHeader reports the stamp the daemon assigned to an accepted
// upload, as seq@origin. Only set when the daemon has a SelfID (replication
// on), keeping unreplicated responses byte-identical.
const EvidenceStampHeader = "X-Polm2-Evidence-Stamp"

// SyncRootHeader carries the puller's own summary root on the summary
// GET /v1/sync. A peer whose root equals it answers with its root and an
// empty key list: equal roots mean equal entries, and walking equal
// entries does nothing. A request without it gets the full summary.
const SyncRootHeader = "X-Polm2-Sync-Root"

// syncSummary is the GET /v1/sync response: who is answering, the root
// over its entries, and one fixed-size entry per key, so its size follows
// the key count and not the number of instances that ever uploaded.
type syncSummary struct {
	Daemon string           `json:"daemon"`
	Root   string           `json:"root"`
	Keys   []syncKeySummary `json:"keys"`
}

// syncKeySummary stands for one key's whole stamp set: equal Docs and Sum
// on both sides mean equal sets (profilestore.KeySum), so the puller
// descends only where they differ. The quarantined rollout ETags ride
// inline — few and grow-only — so adopting them needs no descent.
type syncKeySummary struct {
	App         string              `json:"app"`
	Workload    string              `json:"workload"`
	Docs        int                 `json:"docs"`
	Sum         profilestore.KeySum `json:"sum"`
	Quarantined []string            `json:"quarantined,omitempty"`
}

// syncStamps is the GET /v1/sync?app=&workload= response: the stamp of
// every replicating document the key holds, exactly the set Sum covers.
type syncStamps struct {
	Docs []syncDocStamp `json:"docs"`
}

type syncDocStamp struct {
	Instance string             `json:"instance"`
	Stamp    profilestore.Stamp `json:"stamp"`
}

// syncDoc is the single-document response to
// GET /v1/sync?app=&workload=&instance=.
type syncDoc struct {
	Instance string             `json:"instance"`
	Stamp    profilestore.Stamp `json:"stamp"`
	Profile  *analyzer.Profile  `json:"profile"`
}

// SelfID reports the daemon's replication id ("" with replication off).
func (s *Server) SelfID() string { return s.opts.SelfID }

// PlanETag reports the cached published plan's ETag for one key — the
// stable plan in rollout mode — without touching the store or the merge
// pipeline. "" when the key has no cached plan. Harnesses compare daemons
// with it; serving paths never call it.
func (s *Server) PlanETag(app, workload string) (etag string) {
	s.peekShard(profilestore.Key{App: app, Workload: workload}, func(sh *shard) {
		if sh.plan != nil {
			etag = sh.plan.etag
		}
	})
	return etag
}

// handleSync serves the three sync depths. With no query parameters: the
// per-key summary — a freshly restarted daemon advertises everything its
// one evidence scan loaded, not just keys it has served since boot — or,
// when the request's SyncRootHeader names the summary's own root, the
// summary without its keys. With
// app and workload: that key's stamp list. With an instance as well: that
// one evidence document, 404 when absent.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.RawQuery
	app := queryParam(raw, "app")
	workload := queryParam(raw, "workload")
	instance := queryParam(raw, "instance")
	var body any
	var err error
	switch {
	case app == "" && workload == "" && instance == "":
		if err = s.loadEvidence(); err == nil {
			sum := s.syncSummary()
			if r.Header.Get(SyncRootHeader) == sum.Root {
				sum.Keys = []syncKeySummary{}
			}
			body = sum
		}
	case app == "" || workload == "":
		http.Error(w, "planserver: sync stamp-list and document fetches require app and workload", http.StatusBadRequest)
		return
	default:
		err = s.inShard(profilestore.Key{App: app, Workload: workload}, func(sh *shard) error {
			switch {
			case instance == "":
				list := syncStamps{Docs: make([]syncDocStamp, 0, len(sh.stamps))}
				for inst, st := range sh.stamps {
					list.Docs = append(list.Docs, syncDocStamp{Instance: inst, Stamp: st})
				}
				sort.Slice(list.Docs, func(i, j int) bool { return list.Docs[i].Instance < list.Docs[j].Instance })
				body = list
			case sh.evidence[instance] != nil:
				body = syncDoc{Instance: instance, Stamp: sh.stamps[instance], Profile: sh.evidence[instance]}
			}
			return nil
		})
	}
	if err != nil {
		// Sync requests are untraced, so the outcome goes unused.
		s.storeError(w, err)
		return
	}
	if body == nil {
		http.Error(w, fmt.Sprintf("planserver: no evidence for %s/%s from %s", app, workload, instance), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// syncSummary lists every key holding a replicating document or a
// quarantined ETag, in key order, under the root over those entries.
func (s *Server) syncSummary() syncSummary {
	sum := syncSummary{Daemon: s.opts.SelfID, Keys: []syncKeySummary{}}
	s.eachShard(func(sh *shard) {
		e := syncKeySummary{App: sh.key.App, Workload: sh.key.Workload, Docs: len(sh.stamps), Sum: sh.sum}
		if sh.roll != nil {
			e.Quarantined = sh.roll.Snapshot().Quarantined
		}
		if e.Docs > 0 || len(e.Quarantined) > 0 {
			sum.Keys = append(sum.Keys, e)
		}
	})
	sum.Root = summaryRoot(sum.Keys)
	return sum
}

// summaryRoot is the 128-bit digest of a summary's entries, in order, as
// 32 hex digits: each entry's app, workload, document count, key sum and
// quarantined ETags. Strings are length-prefixed and the ETag list is
// counted, as KeySum.Toggle does, so no two entry lists share an
// encoding; the daemon id stays out, so converged replicas advertise one
// root. Two different entry lists collide with probability 2^-128, and a
// collision only delays a pull until the next write changes a root.
func summaryRoot(keys []syncKeySummary) string {
	h := sha256.New()
	var buf []byte
	field := func(v string) {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	for _, e := range keys {
		buf = buf[:0]
		field(e.App)
		field(e.Workload)
		buf = binary.AppendUvarint(buf, uint64(e.Docs))
		buf = append(buf, e.Sum[:]...) // fixed width
		buf = binary.AppendUvarint(buf, uint64(len(e.Quarantined)))
		for _, q := range e.Quarantined {
			field(q)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// SyncPeers runs one anti-entropy pass: pull every peer's summary, descend
// into the keys that differ, fetch and apply each document whose stamp
// beats the local one, and union the peers' quarantine sets. Returns the
// number of documents applied. A peer that cannot be reached (or answers
// garbage) counts one sync error and is skipped — anti-entropy is retried
// forever, so a missed pass costs only staleness. Safe to call
// concurrently with serving; a no-peer server returns 0 immediately.
func (s *Server) SyncPeers() int {
	if len(s.peers) == 0 {
		return 0
	}
	total := 0
	for _, peer := range s.peers {
		at := s.opts.Now()
		pulled, err := s.syncPeer(peer)
		total += pulled
		outcome := "ok"
		if err != nil {
			outcome = "error"
			s.peerSyncErrs.Inc()
		} else {
			s.peerSyncs.Inc()
		}
		if s.opts.Tracer.Enabled() {
			s.opts.Tracer.EventAt(at, "planserver", "peer_sync",
				trace.String("peer", peer),
				trace.String("outcome", outcome),
				trace.Int64("pulled", int64(pulled)))
		}
	}
	// The divergence gauge is how far behind the last pass found us: the
	// number of documents we had to pull. Zero at fixpoint.
	s.peerDivergence.Set(int64(total))
	return total
}

// syncPeer is one pass against one peer. It sends its own root with the
// summary request, so a peer holding the same entries answers with no
// keys and the walk below has nothing to visit.
func (s *Server) syncPeer(peer string) (pulled int, err error) {
	if err := s.loadEvidence(); err != nil {
		return 0, err
	}
	root := s.syncSummary().Root
	var sum syncSummary
	if err := s.peerGet(peer, "", root, &sum); err != nil {
		return 0, err
	}
	if len(sum.Keys) == 0 && sum.Root == root {
		s.peerRootMatches.Inc()
	}
	for _, e := range sum.Keys {
		k := profilestore.Key{App: e.App, Workload: e.Workload}
		if k.App == "" || k.Workload == "" {
			return pulled, fmt.Errorf("planserver: peer summary names a key without labels")
		}
		// One visit per key: union the peer's quarantine set, then compare
		// stamp sets; when they differ, keep a copy of the local stamps to
		// pick the documents to pull once the peer's list arrives. Nothing
		// is remembered per peer, so a replica ahead of a peer it pulls
		// one-way re-reads that key's stamp list every round until the
		// peer catches up by its own pulls.
		var own map[string]profilestore.Stamp
		err := s.inShard(k, func(sh *shard) error {
			if s.ro != nil && len(e.Quarantined) > 0 {
				if err := s.quarantineLocked(sh, e.Quarantined); err != nil {
					return err
				}
			}
			if len(sh.stamps) != e.Docs || sh.sum != e.Sum {
				own = maps.Clone(sh.stamps) // non-nil: newShard makes stamps
			}
			return nil
		})
		if err != nil {
			return pulled, err
		}
		if own == nil {
			continue // same stamp set on both sides: nothing to look at
		}
		var list syncStamps
		if err := s.peerGet(peer, keyQuery(k), "", &list); err != nil {
			return pulled, err
		}
		// Fetch every document whose stamp beats ours first, then apply
		// them together, so the key's catch-up is one merge. Equal stamps
		// identify the same write (origin disambiguates daemons, and each
		// daemon's sequence strictly advances), so only a strictly newer
		// stamp pulls; a zero stamp beats nothing, so unstamped documents
		// never replicate. A failed fetch still applies what came before it.
		var docs []*syncDoc
		var fetchErr error
		for _, ds := range list.Docs {
			if !own[ds.Instance].Less(ds.Stamp) {
				continue
			}
			doc, err := s.fetchDoc(peer, k, ds.Instance)
			if err != nil {
				fetchErr = err
				break
			}
			if doc != nil { // nil: the document vanished on the peer between list and fetch
				docs = append(docs, doc)
			}
		}
		n, err := s.applySyncDocs(k, docs)
		pulled += n
		if err == nil {
			err = fetchErr
		}
		if err != nil {
			return pulled, err
		}
	}
	return pulled, nil
}

// applySyncDocs accepts one key's pulled documents through the upload
// write path (acceptLocked) in one visit, and hands the merge over once
// for all of them. Each stamp comparison re-runs under the shard lock — a
// direct upload or another pull may have advanced the local document
// since the stamp list — and the remote stamp is adopted verbatim:
// replication moves documents, it never re-versions them.
func (s *Server) applySyncDocs(k profilestore.Key, docs []*syncDoc) (applied int, err error) {
	if len(docs) == 0 {
		return 0, nil
	}
	err = s.inShard(k, func(sh *shard) error {
		var err error
		for _, doc := range docs {
			if !sh.stamps[doc.Instance].Less(doc.Stamp) {
				continue
			}
			if err = s.acceptLocked(sh, doc.Instance, doc.Stamp, doc.Profile); err != nil {
				break
			}
			s.peerDocsApplied.Inc()
			applied++
		}
		s.handOverLocked(sh)
		return err
	})
	return applied, err
}

// keyQuery is the raw query naming one key on a peer's /v1/sync.
func keyQuery(k profilestore.Key) string {
	return "app=" + url.QueryEscape(k.App) + "&workload=" + url.QueryEscape(k.Workload)
}

// errPeerNotFound is peerGet's report of a 404: only a document fetch
// expects one.
var errPeerNotFound = errors.New("planserver: peer answered 404")

// peerGet GETs the peer's /v1/sync with the given raw query, sending root
// (when set) as SyncRootHeader, and decodes the JSON answer into v.
func (s *Server) peerGet(peer, query, root string, v any) error {
	u := peer + "/v1/sync"
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if root != "" {
		req.Header.Set(SyncRootHeader, root)
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		if resp.StatusCode == http.StatusNotFound {
			return errPeerNotFound
		}
		return fmt.Errorf("planserver: peer sync status %d from %s", resp.StatusCode, peer)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("planserver: decoding peer sync answer from %s: %w", peer, err)
	}
	return nil
}

// fetchDoc pulls one evidence document, checks it is the one asked for,
// and admits it by the upload rule (admitEvidence). A 404 returns
// (nil, nil) — the document moved on.
func (s *Server) fetchDoc(peer string, k profilestore.Key, instance string) (*syncDoc, error) {
	var doc syncDoc
	if err := s.peerGet(peer, keyQuery(k)+"&instance="+url.QueryEscape(instance), "", &doc); err != nil {
		if errors.Is(err, errPeerNotFound) {
			return nil, nil
		}
		return nil, err
	}
	switch {
	case doc.Instance != instance:
		return nil, fmt.Errorf("planserver: peer document instance mismatch from %s", peer)
	case doc.Stamp.IsZero():
		return nil, fmt.Errorf("planserver: peer document carries no stamp from %s", peer)
	case doc.Profile == nil || doc.Profile.App != k.App || doc.Profile.Workload != k.Workload:
		return nil, fmt.Errorf("planserver: peer document key mismatch from %s", peer)
	}
	if err := admitEvidence(doc.Instance, doc.Profile); err != nil {
		return nil, fmt.Errorf("planserver: peer document from %s: %w", peer, err)
	}
	return &doc, nil
}

// quarantineLocked unions a peer's quarantined ETags into the key's
// tracker (caller holds sh.mu). The union is monotone, so replication can
// only ever add rollback knowledge — a stale peer cannot resurrect a
// quarantined plan. Dropping a locally staged candidate records a
// "peer_quarantine" transition (the rollback was decided — and counted —
// on the peer).
func (s *Server) quarantineLocked(sh *shard, etags []string) error {
	from := sh.roll.State()
	cand := sh.roll.CandidateETag()
	added, dropped := sh.roll.AddQuarantined(etags)
	if added == 0 && !dropped {
		return nil
	}
	if dropped {
		sh.cand = nil
	} else {
		cand = ""
	}
	if err := s.persistRolloutLocked(sh); err != nil {
		return err
	}
	s.recordTransition(sh, RolloutTransition{
		Kind: "peer_quarantine", From: from, To: sh.roll.State(), ETag: cand,
	}, trace.Int64("added", int64(added)))
	return nil
}
