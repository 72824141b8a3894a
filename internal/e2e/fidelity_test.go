package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"polm2/internal/fleetclient"
	"polm2/internal/online"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
	"polm2/internal/simclock"
	"polm2/internal/simnet"
)

// TestTransportFidelity runs one convergence scenario — two online
// instances syncing cumulative evidence into a fresh daemon — over both
// transports the repo ships: the httptest harness (real sockets, real
// server goroutines, wall-clock scheduling around the handlers) and the
// simulator's fabric (direct handler invocation on this goroutine,
// single-threaded merge workers, virtual time). The final merged fleet
// plan must be byte-identical. This is the simulator's license to stand
// in for the socket stack in CI: if the fabric ever changed an outcome
// the wire would not, this test is where the divergence surfaces.
func TestTransportFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("online runs skipped in -short mode")
	}

	// scenario drives the two instances against whatever transport the
	// client factory wires up and returns the daemon's final stored plan.
	// Each instance gets a fresh injected clock: online.Run assumes its
	// clock starts at instant zero, and the instances run sequentially in
	// both harnesses.
	scenario := func(t *testing.T, store *profilestore.Store, client func(seed int64) *fleetclient.Client) []byte {
		t.Helper()
		for _, seed := range []int64{1, 2} {
			res, err := online.Run(&churnApp{}, "w", online.Options{
				Duration:  12 * time.Minute,
				Warmup:    2 * time.Minute,
				Reprofile: 4 * time.Minute,
				Seed:      seed,
				Fleet:     client(seed),
				Clock:     simclock.New(),
			})
			if err != nil {
				t.Fatalf("instance seed=%d: %v", seed, err)
			}
			if len(res.FleetEvents) != 0 {
				t.Fatalf("instance seed=%d met fleet trouble on a healthy network: %+v", seed, res.FleetEvents)
			}
			if len(res.Updates) == 0 {
				t.Fatalf("instance seed=%d installed no plans", seed)
			}
		}
		plan, err := store.Get("churn", "w")
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Harness one: the existing end-to-end fixture, over real HTTP.
	httpFixture := newFixture(t)
	overHTTP := scenario(t, httpFixture.store, func(seed int64) *fleetclient.Client {
		return httpFixture.client(t, seed)
	})

	// Harness two: the same daemon configuration behind the simulator's
	// fabric, with merge workers run inline on the handling call so
	// nothing in the second run touches a socket or spawns a goroutine.
	simStore, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tick atomic.Int64
	srv := planserver.New(simStore, planserver.Options{
		Now:      func() time.Duration { return time.Duration(tick.Add(1)) * time.Millisecond },
		Executor: planserver.ExecutorFunc(func(w func()) { w() }),
	})
	fabric := simnet.NewFabric(srv, simclock.New(), nil)
	overFabric := scenario(t, simStore, func(seed int64) *fleetclient.Client {
		c, err := fleetclient.New(fleetclient.Options{
			BaseURL:    "http://polm2d.simnet",
			Seed:       seed,
			Sleep:      func(time.Duration) {},
			HTTPClient: &http.Client{Transport: fabric.Transport(fmt.Sprintf("inst-%d", seed))},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})

	if fabric.Deliveries() == 0 {
		t.Fatal("fabric carried no traffic — the second harness ran over something else")
	}
	if !bytes.Equal(overHTTP, overFabric) {
		t.Fatalf("transports disagree on the final merged plan:\n--- httptest\n%s\n--- fabric\n%s", overHTTP, overFabric)
	}
}
