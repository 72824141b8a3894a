package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"polm2/internal/planserver"
)

// peerWire is the transport daemon b pulls daemon a through. It counts the
// response bytes b reads and, on a traced run, records one span per
// request, so the sync phases split into wire time and apply time without
// touching the daemon.
type peerWire struct {
	base  http.RoundTripper
	r     *run
	bytes int64 // response body bytes read; SyncPeers reads on its caller's goroutine
	// parent and op attribute the next requests to the round in flight.
	parent spanRef
	op     int
	wire   time.Duration // time inside round trips and body reads this round
}

func (w *peerWire) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "sync_doc_fetch"
	if req.URL.RawQuery == "" {
		name = "sync_digest_fetch"
	}
	sp := w.r.spans.begin(w.parent, "planserver", name, w.op)
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		w.wire += sp.end()
		return nil, err
	}
	resp.Body = &wireBody{ReadCloser: resp.Body, w: w, sp: sp}
	return resp, nil
}

// wireBody charges body reads to the wire and closes the request's span
// when the daemon is done with the response.
type wireBody struct {
	io.ReadCloser
	w  *peerWire
	sp spanRef
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.bytes += int64(n)
	return n, err
}

func (b *wireBody) Close() error {
	err := b.ReadCloser.Close()
	b.w.wire += b.sp.end()
	return err
}

// runReplicaSync exercises the plan plane as a peer does — digest reads and
// stamped applies — rather than as a client does. Daemon b pulls daemon a
// in the three regimes the "cost proportional to change" roadmap item
// trades against each other: everything differs (catch-up), nothing
// differs (idle), a little differs (delta).
func runReplicaSync(r *run) {
	const (
		sites        = 24
		deltaUploads = 8
	)
	keys, instances := 32, 32
	catchups, idleRounds, deltaRounds := r.blocks(3, 1), r.blocks(1300, 100), r.blocks(60, 10)
	if r.cfg.Tiny {
		keys, instances, catchups, idleRounds, deltaRounds = 4, 8, 1, 100, 5
	}
	g := gen{r.cfg.Seed}

	// b is the replica in service; catchup replaces it with a fresh one and
	// pulls everything.
	var a, b *daemon
	var fleet []*member
	var mergeTimes sample // the Flush behind each timed catch-up
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	wire := &peerWire{base: transport, r: r, parent: noParent}
	docs := keys * instances
	stores := 0
	catchup := func(n int) (time.Duration, error) {
		if b != nil {
			b.stop()
		}
		stores++
		fresh, err := startDaemon(r.dir(fmt.Sprintf("b-%d", stores)), planserver.Options{SelfID: "b", Peers: []string{a.url},
			PeerClient: &http.Client{Transport: wire, Timeout: 30 * time.Second}})
		if err != nil {
			return 0, err
		}
		b = fresh
		sp := r.spans.begin(noParent, "bench", "catchup", n)
		wire.parent, wire.op, wire.wire = sp, n, 0
		t0 := time.Now()
		pulled := b.srv.SyncPeers()
		merge := r.spans.begin(sp, "planserver", "post_sync_merge", n)
		b.srv.Flush()
		if d := merge.end(); n != warmupOp {
			mergeTimes = append(mergeTimes, d)
		}
		took := time.Since(t0)
		sp.end()
		if pulled != docs {
			return took, fmt.Errorf("catch-up pulled %d of %d documents", pulled, docs)
		}
		return took, nil
	}
	defer func() {
		if a != nil {
			a.stop()
		}
		if b != nil {
			b.stop()
		}
	}()

	// Set-up: daemon a, its population (every instance of every key uploads
	// once) and the warm-up catch-up. It is six seconds of uploads and
	// applies, an average in itself, and a second one would not fit the run;
	// it is done once.
	if _, err := setUp(r, 1, func(int) (struct{}, error) {
		var err error
		if a, err = startDaemon(r.dir("a"), planserver.Options{SelfID: "a"}); err != nil {
			return struct{}{}, fmt.Errorf("starting daemon a: %w", err)
		}
		for key := 0; key < keys; key++ {
			for idx := 0; idx < instances; idx++ {
				m, err := newMember(g, hc, a.url, key, idx)
				if err == nil {
					err = m.upload(g, sites)
				}
				if err != nil {
					return struct{}{}, fmt.Errorf("populating a: %w", err)
				}
				fleet = append(fleet, m)
			}
		}
		a.srv.Flush()
		_, err = catchup(warmupOp)
		return struct{}{}, err
	}, func(struct{}) {}); err != nil {
		r.op(1, err)
		return
	}

	// --- catch-up: a fresh b pulls everything --------------------------
	var catchupTimes sample
	var failed error
	catching := phase{Name: "catchup", Blocks: catchups}
	for n := 0; n < catchups && failed == nil; n++ {
		// Starting the fresh daemon is off the clock; only the pull and the
		// merge behind it are timed.
		runtime.GC()
		var took time.Duration
		took, failed = catchup(n)
		catchupTimes = append(catchupTimes, took)
		catching.Seconds += took.Seconds()
	}
	r.addPhase(catching)
	r.op(catchups, failed)
	if failed != nil {
		return
	}
	r.set("sync_catchup_ms", ms(catchupTimes.percentile(50)))

	// --- idle: nothing differs -----------------------------------------
	round := func(parent spanRef, n int) (pulled int, took, onWire time.Duration) {
		sp := r.spans.begin(parent, "planserver", "sync_round", n)
		wire.parent, wire.op, wire.wire = sp, n, 0
		pulled = b.srv.SyncPeers()
		return pulled, sp.end(), wire.wire
	}
	for i := 0; i < 20; i++ { // warm-up block
		round(noParent, warmupOp)
	}
	wire.bytes = 0
	const idleBlock = 100 // rounds per block; the metric is the median block
	idlePulled, idleBlocks := 0, max(idleRounds/idleBlock, 1)
	var perRound []float64
	r.timedPhase("idle", idleBlocks, func() {
		root := r.spans.begin(noParent, "bench", "idle", 0)
		for blk := 0; blk < idleBlocks; blk++ {
			t0 := time.Now()
			for n := 0; n < idleBlock; n++ {
				pulled, _, _ := round(root, blk*idleBlock+n)
				idlePulled += pulled
			}
			perRound = append(perRound, us(time.Since(t0))/idleBlock)
		}
		root.end()
	})
	idleRounds = idleBlocks * idleBlock
	r.op(idleRounds, nil)
	r.check(idlePulled == 0, "idle rounds pulled %d documents", idlePulled)
	r.set("sync_idle_us", median(perRound))
	r.set("sync_idle_bytes", float64(wire.bytes)/float64(idleRounds))

	// --- delta: eight documents differ ---------------------------------
	next := 0
	var deltaTimes, wireTimes sample
	deltaPulled, deltaWrong := 0, 0
	delta := func(parent spanRef, n int) error {
		for i := 0; i < deltaUploads; i++ { // untimed: a accepts new evidence
			m := fleet[(next*37)%len(fleet)]
			next++
			if err := m.upload(g, sites); err != nil {
				return err
			}
		}
		// Both merge pipelines are drained around the round, untimed, so a
		// round is the digest compare, the fetches and the stamped applies
		// and not whichever background merge happens to overlap it.
		a.srv.Flush()
		pulled, took, onWire := round(parent, n)
		b.srv.Flush()
		if n != warmupOp {
			deltaTimes, wireTimes = append(deltaTimes, took), append(wireTimes, onWire)
			deltaPulled += pulled
			if pulled != deltaUploads {
				deltaWrong++
			}
		}
		return nil
	}
	if err := delta(noParent, warmupOp); err != nil {
		r.op(1, fmt.Errorf("warm-up delta round: %w", err))
		return
	}
	// The uploads between rounds are not the phase's subject, so the phase
	// is charged only the rounds themselves.
	for n := 0; n < deltaRounds && failed == nil; n++ {
		failed = delta(noParent, n)
	}
	var deltaTotal time.Duration
	for _, d := range deltaTimes {
		deltaTotal += d
	}
	r.addPhase(phase{Name: "delta", Seconds: deltaTotal.Seconds(), Blocks: deltaRounds})
	r.op(deltaRounds, failed)
	if failed != nil {
		return
	}
	r.check(deltaWrong == 0, "%d of %d delta rounds did not pull exactly %d documents", deltaWrong, deltaRounds, deltaUploads)
	r.set("sync_delta_ms", ms(deltaTimes.percentile(50)))

	// --- output check: both daemons serve the same plan for every key ----
	a.srv.Flush()
	b.srv.Flush()
	diverged := 0
	for key := 0; key < keys; key++ {
		app, wl := fleetKey(key)
		ea, eb := a.srv.PlanETag(app, wl), b.srv.PlanETag(app, wl)
		if ea == "" || ea != eb {
			diverged++
		}
		r.output([]byte(ea))
	}
	r.check(diverged == 0, "%d of %d keys serve different plans on a and b", diverged, keys)

	if !r.cfg.Trace {
		return
	}
	r.spans.finish()
	// What a delta round spends off the wire is the stamped apply of the
	// documents it pulled.
	var applyTotal time.Duration
	for i := range deltaTimes {
		applyTotal += deltaTimes[i] - wireTimes[i]
	}
	r.set("planserver.sync_apply_us_per_doc", us(applyTotal)/float64(deltaPulled))
	r.set("planserver.peer_docs_applied", float64(b.counter("peer_docs_applied_total")))
	r.set("planserver.post_sync_merge_ms", ms(mergeTimes.percentile(50)))

	// The two server-side halves of a round, by direct ServeHTTP on a.
	var digest, doc sample
	var digestBytes int
	app, wl := fleetKey(0)
	docURL := "/v1/sync?app=" + app + "&workload=" + wl + "&instance=" + g.instanceID(0)
	for i := 0; i < 101; i++ {
		rec := httptest.NewRecorder()
		sp := r.spans.begin(noParent, "planserver", "sync_digest_build", i)
		a.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sync", nil))
		digest = append(digest, sp.end())
		digestBytes = rec.Body.Len()
		ok := rec.Code == http.StatusOK
		rec = httptest.NewRecorder()
		sp = r.spans.begin(noParent, "planserver", "sync_doc_serve", i)
		a.srv.ServeHTTP(rec, httptest.NewRequest("GET", docURL, nil))
		doc = append(doc, sp.end())
		if !ok || rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), g.instanceID(0)) {
			r.op(1, fmt.Errorf("direct sync reads answered badly (%d)", rec.Code))
			return
		}
	}
	r.set("planserver.sync_digest_build_us", us(digest.percentile(50)))
	r.set("planserver.sync_digest_bytes", float64(digestBytes))
	r.set("planserver.sync_doc_fetch_us", us(doc.percentile(50)))
}
