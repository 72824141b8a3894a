package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"polm2/internal/profilestore"
	"polm2/internal/rollout"
)

// TestUnknownKeyProbesLeakNothing hammers GET /v1/plan with unknown keys —
// the probe traffic a daemon on an open port actually receives — from many
// goroutines, mixing distinct keys with contended repeats of the same key,
// and then asserts the probes left no trace: no shards surviving in the
// shard map (dropIfEmpty must win every interleaving with the concurrent
// cold loads) and no labeled evidence_instances gauges registered (the gauge is
// resolved lazily on the first accepted upload precisely so probes cannot
// mint metrics). A rollout-mode daemon additionally takes a POST
// /v1/feedback for every probed key, which must not leave its fresh
// tracker's shard or a rollout_state gauge behind either. Runs under -race
// in CI's planserver job.
func TestUnknownKeyProbesLeakNothing(t *testing.T) {
	plain, plainTS, _ := newTestServer(t)
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	canary, canaryTS := rolloutServer(t, store, rollout.Config{MinReports: 1})

	const probers = 16
	const probesPerWorker = 24
	for _, mode := range []struct {
		srv      *Server
		url      string
		feedback bool
	}{{plain, plainTS.URL, false}, {canary, canaryTS.URL, true}} {
		var wg sync.WaitGroup
		errs := make(chan error, probers)
		for w := 0; w < probers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < probesPerWorker; i++ {
					// Half the probes contend on one shared unknown key, half
					// spread over per-worker keys, so both the shared-shard
					// and the independent-shard paths race with dropIfEmpty.
					app := "ghost"
					if i%2 == 0 {
						app = fmt.Sprintf("ghost-%d", w)
					}
					workload := fmt.Sprintf("w%d", i)
					if err := probe(mode.url, app, workload, mode.feedback); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		srv := mode.srv
		srv.shardMu.RLock()
		leaked := len(srv.shards)
		srv.shardMu.RUnlock()
		if leaked != 0 {
			t.Fatalf("feedback=%v: %d shards leaked by unknown-key probes", mode.feedback, leaked)
		}

		// The exposition must carry no labeled per-key gauge for any probed
		// key: gauges are minted on accepted uploads and rollout moves only.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/metricsz", nil)
		srv.ServeHTTP(rec, req)
		body := rec.Body.String()
		if strings.Contains(body, "evidence_instances{") || strings.Contains(body, "rollout_state{") {
			t.Fatalf("feedback=%v: probes minted labeled gauges:\n%s", mode.feedback, body)
		}
		if got := srv.Metrics().Counter("plan_miss_total").Value(); got != probers*probesPerWorker {
			t.Fatalf("feedback=%v: plan_miss_total = %d, want %d", mode.feedback, got, probers*probesPerWorker)
		}
		if mode.feedback {
			if got := srv.Metrics().Counter("feedback_reports_total").Value(); got != probers*probesPerWorker {
				t.Fatalf("feedback_reports_total = %d, want %d", got, probers*probesPerWorker)
			}
		}
	}
}

// probe fetches the plan of an unknown key, expecting 404, and with
// feedback set then reports a health window for it, expecting 204.
func probe(url, app, workload string, feedback bool) error {
	resp, err := http.Get(fmt.Sprintf("%s/v1/plan?app=%s&workload=%s", url, app, workload))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("probe %s/%s = %d, want 404", app, workload, resp.StatusCode)
	}
	if !feedback {
		return nil
	}
	body, err := json.Marshal(&rollout.Report{
		App: app, Workload: workload, ETag: `"ghost"`,
		WindowEnd: time.Second, Pauses: 8,
		PauseP50: 5 * time.Millisecond, PauseP99: 10 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest("POST", url+"/v1/feedback", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(InstanceHeader, "prober")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("feedback probe %s/%s = %d, want 204", app, workload, resp.StatusCode)
	}
	return nil
}
