package fleetclient

import (
	"testing"
	"time"
)

// TestBackoffGolden pins the exact jitter stream to golden values: the
// backoff schedule is a pure function of (seed, operation, sequence,
// attempt) through core.DeriveSeed, so these durations must never move —
// not across runs, not across hosts, not across refactors. A fleet
// simulation replaying seed 42 depends on this schedule byte for byte; if
// an intentional change to the derivation lands, the simnet golden traces
// must be regenerated alongside these values.
func TestBackoffGolden(t *testing.T) {
	c, err := New(Options{BaseURL: "http://daemon", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.InstanceID(), "i-4199a4b70eda0d3b"; got != want {
		t.Errorf("derived instance id = %q, want %q", got, want)
	}
	golden := map[string][]time.Duration{
		"fetch/0":  {28109121, 65241193, 176344680, 388781166},
		"fetch/1":  {48338103, 87653255, 157260608, 278429412},
		"upload/0": {32848572, 56674194, 167486095, 298880386},
		"upload/1": {31986808, 72996568, 164039039, 364169883},
	}
	for opSeq, want := range golden {
		op, seq := opSeq[:len(opSeq)-2], uint64(opSeq[len(opSeq)-1]-'0')
		// The schedule holds the maxAttempts-1 delays an operation can
		// sleep; the fourth pinned delay, one attempt past it, is asked
		// of backoff directly.
		got := append(c.RetrySchedule(op, seq), c.backoff(op, seq, maxAttempts-1))
		if len(got) != len(want) {
			t.Fatalf("%s: %d delays, want %d", opSeq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s attempt %d = %v, want %v", opSeq, i, got[i], want[i])
			}
		}
	}

	// maxDelay caps the pre-jitter exponential: from attempt 6 on
	// (baseDelay<<6 = 3.2s), and where the shift overflows, every delay
	// stays within [maxDelay/2, maxDelay].
	capped, err := New(Options{BaseURL: "http://daemon", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for attempt, want := range map[int]time.Duration{6: 1245091438, 7: 1064632415, 63: 1735431671} {
		got := capped.backoff("fetch", 0, attempt)
		if got != want {
			t.Errorf("capped attempt %d = %v, want %v", attempt, got, want)
		}
		if got < maxDelay/2 || got > maxDelay {
			t.Errorf("capped attempt %d = %v outside [%v, %v]", attempt, got, maxDelay/2, maxDelay)
		}
	}
}

// TestBackoffIdenticalAcrossRuns constructs fresh clients repeatedly —
// the "separate process" case a test can approximate — and requires the
// whole jitter stream to replay identically: same delays for every
// (op, seq, attempt), with no dependence on construction order, prior
// clients, or anything ambient. This is the satellite audit's contract:
// retry jitter derives from the injected seed stream only.
func TestBackoffIdenticalAcrossRuns(t *testing.T) {
	schedule := func() [][]time.Duration {
		c, err := New(Options{BaseURL: "http://daemon", Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]time.Duration
		for _, op := range []string{"fetch", "upload"} {
			for seq := uint64(0); seq < 8; seq++ {
				out = append(out, c.RetrySchedule(op, seq))
			}
		}
		return out
	}
	first := schedule()
	// An unrelated client with another seed in between must not perturb
	// anything (no package-level RNG state to pollute).
	if other, err := New(Options{BaseURL: "http://daemon", Seed: 1234}); err != nil {
		t.Fatal(err)
	} else {
		other.RetrySchedule("fetch", 0)
	}
	for run := 0; run < 3; run++ {
		again := schedule()
		for i := range first {
			for j := range first[i] {
				if first[i][j] != again[i][j] {
					t.Fatalf("run %d: schedule %d attempt %d = %v, first run %v", run, i, j, again[i][j], first[i][j])
				}
			}
		}
	}
}
