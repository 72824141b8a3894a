package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/fleetclient"
	"polm2/internal/gc"
	"polm2/internal/instrument"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/simclock"
)

// daemon is an in-process planserver listening on loopback TCP.
type daemon struct {
	srv    *planserver.Server
	store  *profilestore.Store
	url    string
	http   *http.Server
	served chan struct{}
}

func startDaemon(storeDir string, opts planserver.Options) (*daemon, error) {
	store, err := profilestore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: planserver.New(store, opts), store: store, url: "http://" + l.Addr().String(), served: make(chan struct{})}
	d.http = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.served)
		d.http.Serve(l) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return d, nil
}

// stop closes the listener and every connection and waits for the serve
// loop to exit.
func (d *daemon) stop() {
	d.http.Close()
	<-d.served
}

func (d *daemon) counter(name string) uint64 { return d.srv.Metrics().Counter(name).Value() }

// member is one fleet instance of one key: its client and its cumulative
// evidence round.
type member struct {
	key, idx int
	client   *fleetclient.Client
	round    int
	last     *analyzer.Profile // the latest evidence the daemon accepted
}

func newMember(g gen, hc *http.Client, url string, key, idx int) (*member, error) {
	c, err := fleetclient.New(fleetclient.Options{
		BaseURL: url, HTTPClient: hc, InstanceID: g.instanceID(idx), Seed: g.derive("client", fmt.Sprint(idx)),
	})
	return &member{key: key, idx: idx, client: c}, err
}

// upload sends the member's next cumulative evidence round.
func (m *member) upload(g gen, sites int) error {
	m.round++
	ev := g.evidence(m.key, m.idx, m.round, sites)
	if _, err := m.client.UploadEvidence(ev); err != nil {
		return err
	}
	m.last = ev
	return nil
}

// etagOf derives a plan's content version the way the daemon does: SHA-256
// over the canonical JSON body, newline-terminated.
func etagOf(p *analyzer.Profile) (string, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(body, '\n'))
	return fmt.Sprintf("%q", fmt.Sprintf("%x", sum)), nil
}

// steadyFleet is fleet-steady's fixture: the daemon and its fleet, client c
// owning the instances with idx%clients == c on every key, so both clients
// load all four shards.
type steadyFleet struct {
	d         *daemon
	transport *http.Transport
	hc        *http.Client
	fleet     [][]*member
}

func (f *steadyFleet) stop() {
	f.transport.CloseIdleConnections()
	f.d.stop()
}

// parallel runs fn once per client goroutine and returns the first error;
// each client is a closed loop.
func parallel(clients int, fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runFleetSteady drives one production-mode daemon (rollout off, merges
// asynchronous) through three sequential phases on the same four shards:
// write, read, converge. Writes sit beside reads on the same shards, so a
// gain for one that costs the other shows in the same row.
func runFleetSteady(r *run) {
	const (
		keys      = 4
		instances = 16
		clients   = 2
		sweepers  = 16
	)
	sites := 64
	uploadsPerBlock, pollsPerBlock, probes := 200, 40_000, r.blocks(100, 10)
	blocks := r.blocks(5, 1)
	if r.cfg.Tiny {
		uploadsPerBlock, pollsPerBlock, probes, sites = 50, 50, 5, 8
	}
	g := gen{r.cfg.Seed}

	// Set-up: daemon start, the fleet's clients, and store population —
	// every member uploads once, which is also the write phase's warm-up
	// block.
	f, err := setUp(r, r.setupReps(3), func(rep int) (*steadyFleet, error) {
		d, err := startDaemon(r.dir(fmt.Sprintf("store-%d", rep)), planserver.Options{})
		if err != nil {
			return nil, fmt.Errorf("starting daemon: %w", err)
		}
		f := &steadyFleet{d: d, transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}, fleet: make([][]*member, clients)}
		f.hc = &http.Client{Transport: f.transport, Timeout: 30 * time.Second}
		for idx := 0; idx < instances; idx++ {
			for key := 0; key < keys; key++ {
				m, err := newMember(g, f.hc, d.url, key, idx)
				if err != nil {
					f.stop()
					return nil, err
				}
				f.fleet[idx%clients] = append(f.fleet[idx%clients], m)
			}
		}
		err = parallel(clients, func(c int) error {
			for _, m := range f.fleet[c] {
				if err := m.upload(g, sites); err != nil {
					return err
				}
			}
			return nil
		})
		d.srv.Flush()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("populating the store: %w", err)
		}
		return f, nil
	}, (*steadyFleet).stop)
	if err != nil {
		r.op(1, err)
		return
	}
	defer f.stop()
	d, hc, fleet := f.d, f.hc, f.fleet

	// --- write ---------------------------------------------------------
	cursor := make([]int, clients)
	var flushes sample
	var allUploads sample
	writeBlock := func(parent spanRef, n int) (wall time.Duration, lat sample, err error) {
		perClient := make([]sample, clients)
		t0 := time.Now()
		err = parallel(clients, func(c int) error {
			for i := 0; i < uploadsPerBlock/clients; i++ {
				m := fleet[c][cursor[c]%len(fleet[c])]
				cursor[c]++
				sp := r.spans.begin(parent, "fleetclient", "upload", n)
				err := m.upload(g, sites)
				perClient[c] = append(perClient[c], sp.end())
				if err != nil {
					return err
				}
			}
			return nil
		})
		sp := r.spans.begin(parent, "planserver", "flush", n)
		d.srv.Flush()
		flushes = append(flushes, sp.end())
		wall = time.Since(t0)
		for _, s := range perClient {
			lat = append(lat, s...)
		}
		return wall, lat, err
	}
	uploads0, merges0 := d.counter("evidence_upload_total"), d.counter("evidence_merge_total")
	var rates []float64
	var failed error
	r.timedPhase("write", blocks, func() {
		for n := 0; n < blocks && failed == nil; n++ {
			sp := r.spans.begin(noParent, "bench", "write_block", n)
			wall, lat, err := writeBlock(sp, n)
			sp.end()
			failed = err
			rates = append(rates, float64(len(lat))/wall.Seconds())
			allUploads = append(allUploads, lat...)
		}
	})
	r.op(blocks*uploadsPerBlock, failed)
	if failed != nil {
		return
	}
	r.set("uploads_per_s", median(rates))
	// A block's 200 samples leave two beyond its p99; the phase's thousand
	// leave ten, so the percentile is taken over the phase.
	r.set("upload_ms_p99", ms(allUploads.percentile(99)))
	coalesce := float64(d.counter("evidence_merge_total")-merges0) / float64(d.counter("evidence_upload_total")-uploads0)

	// --- read ----------------------------------------------------------
	readBlock := func(parent spanRef, n int) (time.Duration, int, error) {
		stale := make([]int, clients)
		t0 := time.Now()
		err := parallel(clients, func(c int) error {
			sp := r.spans.begin(parent, "fleetclient", "poll304_block", n)
			defer sp.end()
			for i := 0; i < pollsPerBlock/clients; i++ {
				m := fleet[c][i%len(fleet[c])]
				app, wl := fleetKey(m.key)
				_, outcome, err := m.client.FetchPlan(app, wl)
				if err != nil {
					return err
				}
				if outcome != fleetclient.OutcomeNotModified {
					stale[c]++
				}
			}
			return nil
		})
		total := 0
		for _, n := range stale {
			total += n
		}
		return time.Since(t0), total, err
	}
	// Warm-up block: every member's first poll fetches the plan the write
	// phase converged on; from then on the daemon answers 304.
	if _, _, err := readBlock(noParent, warmupOp); err != nil {
		r.op(1, fmt.Errorf("warm-up polls: %w", err))
		return
	}
	var pollRates []float64
	var notCached int
	r.timedPhase("read", blocks, func() {
		for n := 0; n < blocks && failed == nil; n++ {
			sp := r.spans.begin(noParent, "bench", "read_block", n)
			wall, stale, err := readBlock(sp, n)
			sp.end()
			failed = err
			notCached += stale
			pollRates = append(pollRates, float64(pollsPerBlock)/wall.Seconds())
		}
	})
	r.op(blocks*pollsPerBlock, failed)
	if failed != nil {
		return
	}
	r.check(notCached == 0, "%d timed polls were not answered 304", notCached)
	r.set("polls_per_s", median(pollRates))

	// --- converge ------------------------------------------------------
	// One more instance uploads fresh evidence to key 0; the probe ends
	// when sixteen polling instances hold the plan that covers it and the
	// Instrumenter has accepted it on each.
	app0, wl0 := fleetKey(0)
	uploader, err := newMember(g, hc, d.url, 0, instances)
	if err != nil {
		r.op(1, err)
		return
	}
	var sweep []*member
	for _, members := range fleet {
		for _, m := range members {
			if m.key == 0 && m.idx < sweepers {
				sweep = append(sweep, m)
			}
		}
	}
	if len(sweep) != sweepers {
		r.op(1, fmt.Errorf("the converge sweep has %d instances, want %d", len(sweep), sweepers))
		return
	}
	var rewritten int
	probe := func(parent spanRef, n int) (stages [5]time.Duration, err error) {
		sp := r.spans.begin(parent, "fleetclient", "converge_upload", n)
		err = uploader.upload(g, sites)
		stages[0] = sp.end()
		if err != nil {
			return stages, err
		}
		sp = r.spans.begin(parent, "planserver", "converge_flush", n)
		d.srv.Flush()
		stages[1] = sp.end()
		want := d.srv.PlanETag(app0, wl0)
		plans := make([]*analyzer.Profile, len(sweep))
		for i, m := range sweep {
			name := "converge_sweep"
			if i == 0 {
				name = "converge_first_fetch"
			}
			sp = r.spans.begin(parent, "fleetclient", name, n)
			plan, outcome, err := m.client.FetchPlan(app0, wl0)
			took := sp.end()
			if i == 0 {
				stages[2] = took
			} else {
				stages[3] += took
			}
			if err != nil {
				return stages, err
			}
			if outcome != fleetclient.OutcomeFresh || m.client.LastETag() != want {
				return stages, fmt.Errorf("instance %d holds %s (%s) after the flush, daemon published %s", m.idx, m.client.LastETag(), outcome, want)
			}
			plans[i] = plan
		}
		sp = r.spans.begin(parent, "instrument", "converge_apply", n)
		for _, plan := range plans {
			col, err := core.NewCollector(core.CollectorNG2C, simclock.New(), core.ScaledGeometry(core.DefaultScale), core.ScaledCostModel(core.DefaultScale))
			if err != nil {
				return stages, err
			}
			installed, err := instrument.Apply(plan, col.(gc.Pretenuring))
			if err != nil {
				return stages, fmt.Errorf("instrumenter refused the converged plan: %w", err)
			}
			rewritten = installed.RewrittenLocations()
		}
		stages[4] = sp.end()
		return stages, nil
	}
	if _, err := probe(noParent, warmupOp); err != nil {
		r.op(1, fmt.Errorf("warm-up probe: %w", err))
		return
	}
	var latencies sample
	var stageSamples [5]sample
	r.timedPhase("converge", probes, func() {
		for n := 0; n < probes && failed == nil; n++ {
			sp := r.spans.begin(noParent, "bench", "converge_probe", n)
			stages, err := probe(sp, n)
			latencies = append(latencies, sp.end())
			failed = err
			for i, s := range stages {
				stageSamples[i] = append(stageSamples[i], s)
			}
		}
	})
	r.op(probes, failed)
	if failed != nil {
		return
	}
	r.set("converge_ms_p50", ms(latencies.percentile(50)))

	// --- output checks ---------------------------------------------------
	d.srv.Flush()
	up, covered := d.counter("evidence_upload_total"), d.counter("evidence_merge_total")+d.counter("evidence_coalesced_total")
	r.check(up == covered, "evidence_upload_total %d != merges + coalesced %d", up, covered)
	r.check(d.counter("store_error_total") == 0 && d.counter("evidence_reject_total") == 0,
		"daemon counted %d store errors and %d rejects", d.counter("store_error_total"), d.counter("evidence_reject_total"))
	latest := make([][]*analyzer.Profile, keys)
	for _, members := range append(fleet[:clients:clients], []*member{uploader}) {
		for _, m := range members {
			latest[m.key] = append(latest[m.key], m.last)
		}
	}
	for key := 0; key < keys; key++ {
		app, wl := fleetKey(key)
		merged, err := analyzer.MergeProfiles(analyzer.Options{App: app, Workload: wl}, latest[key]...)
		want := ""
		if err == nil {
			want, err = etagOf(merged)
		}
		got := d.srv.PlanETag(app, wl)
		r.output([]byte(got))
		r.check(err == nil && got == want, "key %s/%s: daemon serves %s, an independent merge of every instance's last upload is %s (%v)", app, wl, got, want, err)
	}

	if !r.cfg.Trace {
		return
	}
	var stageMean [5]float64
	var sum float64
	for i, s := range stageSamples {
		for _, v := range s {
			stageMean[i] += ms(v) / float64(len(s))
		}
		sum += stageMean[i]
	}
	var mean float64
	for _, v := range latencies {
		mean += ms(v) / float64(len(latencies))
	}
	fmt.Fprintf(r.cfg.Log, "identity: converge stages upload %.3f + flush %.3f + first fetch %.3f + sweep %.3f + apply %.3f = %.3f ms of a %.3f ms probe (%.1f %%)\n",
		stageMean[0], stageMean[1], stageMean[2], stageMean[3], stageMean[4], sum, mean, 100*sum/mean)
	r.set("fleetclient.converge_upload_ms", ms(stageSamples[0].percentile(50)))
	r.set("planserver.converge_flush_ms", ms(stageSamples[1].percentile(50)))
	r.set("fleetclient.fetch200_ms_p50", ms(stageSamples[2].percentile(50)))
	r.set("fleetclient.converge_sweep_ms", ms(stageSamples[3].percentile(50)))
	r.set("instrument.apply_us", us(stageSamples[4].percentile(50))/float64(len(sweep)))
	r.set("instrument.rewritten_locations", float64(rewritten))
	r.set("fleetclient.upload_ms_p50", ms(allUploads.percentile(50)))
	r.set("planserver.coalesce_ratio", coalesce)
	r.set("planserver.flush_ms", ms(flushes.percentile(50)))
	size, err := dirBytes(d.store.Dir())
	r.op(1, err)
	r.set("profilestore.disk_mb", float64(size)/(1<<20))
	probePlanPlane(r, g, d, fleet[0][0], sites)
}

// probePlanPlane calls the plan plane's layers directly, one at a time,
// with no socket between: the handler, the merge, the store.
func probePlanPlane(r *run, g gen, d *daemon, m *member, sites int) {
	reps := r.reps(200)
	// The conditional-GET fast path, by direct ServeHTTP. The gap between
	// this and 1/polls_per_s is net/http plus loopback, outside the repo.
	app, wl := fleetKey(m.key)
	req := httptest.NewRequest("GET", "/v1/plan?app="+app+"&workload="+wl, nil)
	req.Header.Set("If-None-Match", d.srv.PlanETag(app, wl))
	var w statusWriter
	polls := r.reps(200_000)
	sp := r.spans.begin(noParent, "planserver", "poll304", 0)
	for i := 0; i < polls; i++ {
		w.reset()
		d.srv.ServeHTTP(&w, req)
	}
	r.set("planserver.poll304_ns", float64(sp.end().Nanoseconds())/float64(polls))
	r.check(w.status == http.StatusNotModified, "direct conditional GET answered %d", w.status)

	// Everything below mutates a daemon, so it gets its own.
	store, err := profilestore.Open(r.dir("probe-store"))
	if err != nil {
		r.op(1, err)
		return
	}
	srv := planserver.New(store, planserver.Options{})
	var encode, handler, putEvidence, putPlan sample
	var plan *analyzer.Profile
	for i := 0; i < reps && err == nil; i++ {
		ev := g.evidence(0, i%64, 1+i/64, sites)
		sp := r.spans.begin(noParent, "fleetclient", "encode", i)
		body, merr := json.Marshal(ev)
		encode = append(encode, sp.end())
		if merr != nil {
			err = merr
			break
		}
		post := httptest.NewRequest("POST", "/v1/evidence", bytes.NewReader(body))
		post.Header.Set(planserver.InstanceHeader, g.instanceID(i%64))
		rec := httptest.NewRecorder()
		sp = r.spans.begin(noParent, "planserver", "upload_handler", i)
		srv.ServeHTTP(rec, post)
		handler = append(handler, sp.end())
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("direct upload answered %d: %s", rec.Code, rec.Body)
		}
	}
	srv.Flush()
	if err == nil {
		plan, err = store.Get(fleetKey(0))
	}
	for i := 0; i < reps && err == nil; i++ {
		ev := g.evidence(1, i%64, 1+i/64, sites)
		sp := r.spans.begin(noParent, "profilestore", "put_evidence", i)
		err = store.PutEvidenceStamped(g.instanceID(i%64), profilestore.Stamp{Seq: uint64(1 + i/64), Origin: "probe"}, ev)
		putEvidence = append(putEvidence, sp.end())
		if err == nil {
			sp = r.spans.begin(noParent, "profilestore", "put_plan", i)
			err = store.Put(plan)
			putPlan = append(putPlan, sp.end())
		}
	}
	r.op(1, err)
	if err != nil {
		return
	}
	r.set("fleetclient.encode_us", us(encode.percentile(50)))
	r.set("planserver.upload_handler_us_p50", us(handler.percentile(50)))
	r.set("profilestore.put_evidence_us", us(putEvidence.percentile(50)))
	r.set("profilestore.put_plan_us", us(putPlan.percentile(50)))

	// A cold load: a fresh handle on the same directory decodes all of key
	// 1's documents (64 of them at full size).
	cold, err := profilestore.Open(store.Dir())
	var loads sample
	for i := 0; i < 9 && err == nil; i++ {
		app, wl := fleetKey(1)
		sp := r.spans.begin(noParent, "profilestore", "evidence_load", i)
		var docs map[string]*analyzer.Profile
		docs, err = cold.Evidence(app, wl)
		loads = append(loads, sp.end())
		if want := min(reps, 64); err == nil && len(docs) != want {
			err = fmt.Errorf("cold load found %d of %d documents", len(docs), want)
		}
	}
	r.op(1, err)
	r.set("profilestore.evidence_load_ms", ms(loads.percentile(50)))

	// The merge on its own: 64 instances' evidence through one accumulator.
	inputs := make([]*analyzer.Profile, 64)
	for i := range inputs {
		inputs[i] = g.evidence(0, i, 3, sites)
	}
	var merges sample
	appM, wlM := fleetKey(0)
	acc := analyzer.NewMergeAccumulator(analyzer.Options{App: appM, Workload: wlM})
	for i := 0; i < 15 && err == nil; i++ {
		acc.Reset()
		sp := r.spans.begin(noParent, "analyzer", "merge", i)
		for _, p := range inputs {
			if err == nil {
				err = acc.Add(p)
			}
		}
		if err == nil {
			_, err = acc.Merge()
		}
		merges = append(merges, sp.end())
	}
	r.op(1, err)
	r.set("analyzer.merge_us_per_profile", us(merges.percentile(50))/float64(len(inputs)))
}

// statusWriter is the cheapest possible ResponseWriter, so a direct
// ServeHTTP probe times the handler and not a recorder.
type statusWriter struct {
	header http.Header
	status int
}

func (w *statusWriter) reset() {
	if w.header == nil {
		w.header = make(http.Header)
	}
	w.status = http.StatusOK
}
func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) WriteHeader(code int)        { w.status = code }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }
