package planserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"polm2/internal/profilestore"
)

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// workQueue is the single-threaded executor shape internal/simnet drives
// the daemon with: Go defers workers into a FIFO, Step runs exactly one
// deferred worker on the caller's goroutine. Nothing here spawns a
// goroutine — worker execution order is owned entirely by the queue.
type workQueue struct {
	pending []func()
	runs    int
}

func (q *workQueue) Go(work func()) { q.pending = append(q.pending, work) }

func (q *workQueue) Step() bool {
	if len(q.pending) == 0 {
		return false
	}
	work := q.pending[0]
	q.pending = q.pending[1:]
	q.runs++
	work()
	return true
}

// TestStepperDrivesDeferredWorkers is the executor contract the fleet
// simulator relies on: with a Stepper deferring every merge worker and
// stepping as the only execution engine, a cold upload (which must wait
// for the first published plan) completes on one goroutine, with the
// upload handler itself stepping the drain.
func TestStepperDrivesDeferredWorkers(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := &workQueue{}
	srv := New(store, Options{Executor: q})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Cold first upload: no plan exists, so the handler waits for the
	// batch covering it — the wait must step the deferred drain instead
	// of parking forever.
	resp := postEvidence(t, ts.URL, "inst-a", evidence("Step", "w", site("Step.run:1;Db.put:2", 4, 12)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold upload = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if q.runs == 0 {
		t.Fatal("upload completed without stepping the deferred worker")
	}
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 1 {
		t.Fatalf("evidence_merge_total = %d, want 1", got)
	}

	// Steady state: a second upload responds with the published plan
	// without waiting, leaving its drain parked in the queue until the
	// executor decides to run it.
	resp = postEvidence(t, ts.URL, "inst-b", evidence("Step", "w", site("Step.run:1;Db.put:2", 2, 6)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm upload = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if len(q.pending) != 1 {
		t.Fatalf("warm upload left %d deferred workers, want 1 parked", len(q.pending))
	}
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 1 {
		t.Fatalf("merge ran before the executor released it (merges = %d)", got)
	}

	// Flush steps the parked drain to quiesce.
	srv.Flush()
	if got := srv.Metrics().Counter("evidence_merge_total").Value(); got != 2 {
		t.Fatalf("evidence_merge_total after Flush = %d, want 2", got)
	}
	uploads := srv.Metrics().Counter("evidence_upload_total").Value()
	coalesced := srv.Metrics().Counter("evidence_coalesced_total").Value()
	if uploads != 2+coalesced {
		t.Fatalf("counter accounting: uploads %d != merges 2 + coalesced %d", uploads, coalesced)
	}
}

// swallower is a broken Stepper: Go drops the worker, so Step never has
// anything to run.
type swallower struct{}

func (swallower) Go(func())  {}
func (swallower) Step() bool { return false }

// TestStepperStallIsAnErrorNotADeadlock: a Stepper that runs dry while a
// waiter is uncovered reports a pipeline stall as a 500 — the failure mode
// a broken scheduler gets instead of a hung simulation.
func TestStepperStallIsAnErrorNotADeadlock(t *testing.T) {
	store, err := profilestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Executor: swallower{}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postEvidence(t, ts.URL, "inst-a", evidence("Stall", "w", site("Stall.run:1;Db.put:2", 4, 12)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stalled upload = %d, want 500", resp.StatusCode)
	}
	body := readBody(t, resp)
	if !strings.Contains(body, "stalled") {
		t.Fatalf("stall error does not name the stall: %q", body)
	}
}
