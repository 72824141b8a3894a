package bench

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// The parallel experiment runner. Every requested experiment renders into
// its own buffer in its own goroutine, and the buffers are written in
// request order, so the bytes written never depend on the worker count.
// Experiments share simulations through the Session's single-flight memos.
// A simulation holds one of the call's worker slots only while it runs
// core.ProfileApp or core.RunApp, never while it waits on a memo entry, so
// a slot holder waits on nothing and the slots cannot deadlock: a POLM2 run
// fetches its target's profile before it asks for a slot.

// ParallelOptions configures RunExperiments.
type ParallelOptions struct {
	// Workers bounds the number of concurrently executing simulations.
	// Values below 1 mean serial execution. Worker count never affects
	// results, only wall-clock time.
	Workers int
	// Progress, if non-nil, receives one human-readable line per completed
	// simulation and per rendered experiment. Calls are serialized.
	Progress func(line string)
}

// Report describes one RunExperiments invocation. The Experiments slice
// (names and rendered output) is deterministic for a fixed Config; the
// wall-clock fields measure the host machine and vary run to run.
type Report struct {
	// Workers is the worker bound the simulations executed under.
	Workers int `json:"workers"`
	// Seed is the session's base seed.
	Seed int64 `json:"seed"`
	// Experiments holds each experiment's rendered output in request order.
	Experiments []ExperimentReport `json:"experiments"`
	// Units holds per-simulation timings, sorted by wave then key.
	Units []UnitReport `json:"units"`
	// TotalWallMS is the whole invocation's wall-clock time.
	TotalWallMS int64 `json:"total_wall_ms"`
}

// ExperimentReport is one experiment's rendered output and wall-clock time.
type ExperimentReport struct {
	Name   string `json:"name"`
	Output string `json:"output"`
	// WallMS runs from the experiment's start to its last line, the waits
	// on simulations it shares with other experiments included.
	WallMS int64 `json:"wall_ms"`
}

// UnitReport is one simulation's identity and wall-clock time.
type UnitReport struct {
	// Key identifies the simulation, e.g. "profile:Cassandra-WI" or
	// "run:Lucene/NG2C/polm2".
	Key string `json:"key"`
	// Wave is "profile" or "run".
	Wave string `json:"wave"`
	// WallMS is the simulation's wall-clock time in its worker slot.
	WallMS int64 `json:"wall_ms"`
}

// errStopped is what a simulation returns instead of starting once an
// earlier failure has stopped its RunExperiments call.
var errStopped = errors.New("bench: stopped after an earlier failure")

// experimentRun is the state of one RunExperiments call.
type experimentRun struct {
	slots    chan struct{} // one token per simulation in flight
	stop     chan struct{} // closed by the first failure
	progress func(line string)

	mu    sync.Mutex // guards err and units, and serializes progress
	err   error
	units []UnitReport
}

// fail records the call's first failure and stops it.
func (r *experimentRun) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
		close(r.stop)
	}
}

// simulate runs sim, the simulation of unit key. Within a RunExperiments
// call it first takes a worker slot, starts nothing once the call has
// stopped, and reports the unit when it succeeds; its failure stops the
// call. The slot is released only after the failure is recorded, so no
// simulation waiting for that slot starts after it.
func simulate[V any](s *Session, wave, key string, sim func() (V, error)) (V, error) {
	r := s.run
	if r != nil {
		var zero V
		select {
		case r.slots <- struct{}{}:
		case <-r.stop:
			return zero, errStopped
		}
		defer func() { <-r.slots }()
		select {
		case <-r.stop: // the slot came free as the call stopped
			return zero, errStopped
		default:
		}
	}
	start := time.Now()
	v, err := sim()
	if err != nil {
		err = fmt.Errorf("bench: %s: %w", key, err)
		if r != nil {
			r.fail(err)
		}
		return v, err
	}
	if r != nil {
		took := time.Since(start)
		r.mu.Lock()
		r.units = append(r.units, UnitReport{Key: key, Wave: wave, WallMS: took.Milliseconds()})
		r.progress(fmt.Sprintf("[%d] %s done in %v", len(r.units), key, took.Round(time.Millisecond)))
		r.mu.Unlock()
	}
	return v, nil
}

// fetchAll returns get(i) for every i in [0, n), or the first error by
// index. Within a RunExperiments call the gets run concurrently, so the
// simulations behind one experiment's rows take worker slots side by side;
// elsewhere they run in order.
func fetchAll[V any](s *Session, n int, get func(i int) (V, error)) ([]V, error) {
	out := make([]V, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		if s.run == nil {
			if out[i], errs[i] = get(i); errs[i] != nil {
				return nil, errs[i]
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = get(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunExperiments renders the named experiments concurrently, writes their
// output to w in request order, and returns a report with per-simulation
// timings. Every simulation the experiments share runs once, at most
// opts.Workers at a time. An unknown name is refused before anything runs;
// after the first failure no new simulation starts, and that failure is
// returned once the renders in flight have ended.
func (s *Session) RunExperiments(names []string, w io.Writer, opts ParallelOptions) (*Report, error) {
	start := time.Now()
	exps := make([]experiment, len(names))
	r := &experimentRun{stop: make(chan struct{}), progress: opts.Progress}
	if r.progress == nil {
		r.progress = func(string) {}
	}
	for i, name := range names {
		e, err := lookupExperiment(name)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	workers := max(opts.Workers, 1)
	r.slots = make(chan struct{}, workers)
	view := &Session{cfg: s.cfg, caches: s.caches, run: r}

	report := &Report{Workers: workers, Seed: s.cfg.Seed, Experiments: make([]ExperimentReport, len(exps))}
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := time.Now()
			var buf bytes.Buffer
			if err := e.render(view, &buf); err != nil {
				if !errors.Is(err, errStopped) {
					r.fail(err)
				}
				return
			}
			report.Experiments[i] = ExperimentReport{Name: e.name, Output: buf.String(), WallMS: time.Since(begin).Milliseconds()}
			r.mu.Lock()
			r.progress("rendered " + e.name)
			r.mu.Unlock()
		}()
	}
	wg.Wait()
	if r.err != nil {
		return nil, r.err
	}
	for _, e := range report.Experiments {
		if _, err := fmt.Fprintln(w, e.Output); err != nil {
			return nil, fmt.Errorf("bench: writing %s output: %w", e.Name, err)
		}
	}
	report.Units = r.units
	slices.SortFunc(report.Units, func(a, b UnitReport) int {
		// "profile" sorts before "run".
		return cmp.Or(strings.Compare(a.Wave, b.Wave), strings.Compare(a.Key, b.Key))
	})
	report.TotalWallMS = time.Since(start).Milliseconds()
	return report, nil
}
