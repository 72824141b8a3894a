package planserver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestUnknownKeyProbesLeakNothing hammers GET /v1/plan with unknown keys —
// the probe traffic a daemon on an open port actually receives — from many
// goroutines, mixing distinct keys with contended repeats of the same key,
// and then asserts the probes left no trace: no shards surviving in the
// shard map (dropIfEmpty must win every interleaving with the concurrent
// cold loads) and no labeled evidence_instances gauges registered (the gauge is
// resolved lazily on the first accepted upload precisely so probes cannot
// mint metrics). Runs under -race in CI's planserver job.
func TestUnknownKeyProbesLeakNothing(t *testing.T) {
	srv, ts, _ := newTestServer(t)

	const probers = 16
	const probesPerWorker = 24
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
				resp, err := http.Get(fmt.Sprintf("%s/v1/plan?app=%s&workload=w%d", ts.URL, app, i))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Errorf("probe %s/w%d = %d, want 404", app, i, resp.StatusCode)
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

	srv.shardMu.RLock()
	leaked := len(srv.shards)
	srv.shardMu.RUnlock()
	if leaked != 0 {
		t.Fatalf("%d shards leaked by unknown-key probes", leaked)
	}

	// The exposition must carry no labeled per-key gauge for any probed
	// key: gauges are minted on accepted uploads only.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metricsz", nil)
	srv.ServeHTTP(rec, req)
	if body := rec.Body.String(); strings.Contains(body, "evidence_instances{") {
		t.Fatalf("probes minted labeled gauges:\n%s", body)
	}
	if got := srv.Metrics().Counter("plan_miss_total").Value(); got != probers*probesPerWorker {
		t.Fatalf("plan_miss_total = %d, want %d", got, probers*probesPerWorker)
	}
}
