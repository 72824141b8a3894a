package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// referenceSeconds is the --seconds value at which the workloads run the
// block counts ISSUE 14 sized them with; other values scale block counts
// (never input sizes) proportionally.
const referenceSeconds = 15

// config is one invocation's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Tiny shrinks inputs to smoke-test size (bench_test.go). Numbers from
	// a tiny run mean nothing; only names and finiteness are checked.
	Tiny bool
	// WorkDir receives temp stores and the span file; it must lie inside
	// the checkout, which is all the driver lets a run write to.
	WorkDir string
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// phase is one timed phase of a run, printed so a reader can check the
// ≥3 s / ≥5 blocks rule against what actually happened.
type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Blocks  int     `json:"blocks"`
	// UserS and SysS are the process CPU time spent while the phase ran
	// (all threads): they tell a slow phase that did more work from one
	// that waited on the host.
	UserS float64 `json:"user_s"`
	SysS  float64 `json:"sys_s"`
}

// run carries one workload execution: the wall-clock split between timed
// phases and set-up, the op and failure counts, the metrics, and (traced
// runs only) the span log.
type run struct {
	cfg    config
	start  time.Time
	tmp    string
	setups []time.Duration // one entry per repetition of the set-up
	timed  time.Duration
	phases []phase

	attempted int
	failed    int
	values    map[string]float64
	outputs   hash.Hash // fingerprint of the run's deterministic outputs
	spans     *spanLog
}

// newRun creates the run's scratch directory under the work directory.
//
// Where scratch files live and how they go away is a noise rule, found the
// hard way on the sizing host (ext4 without a journal, mounted with discard;
// README.md, "Noise"). A run that unlinks its scratch tree leaves thousands
// of recently deleted inodes behind, ext4 puts the next run's directories
// into the block groups just vacated, and every file created there scans
// past all of them: ten back-to-back fleet-sim runs went from 0.9 s to 7 s
// of system time for the same work. So the work directory is flagged as a
// "top-level directory" (chattr +T: ext4 then places each child directory in
// the flex group with the fewest directories) and cleanup removes the files
// but leaves the emptied directories, which keeps the next run out of the
// groups this one used. File systems without the flag ignore the request.
// Remove the work directory by hand when nothing is running.
func newRun(cfg config, start time.Time) (*run, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	spreadSubdirectories(cfg.WorkDir)
	tmp, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	// What the program under test writes to "the temp directory" (a
	// session's record streams, 15 MB a profiling run, which nothing removes)
	// stays inside the scratch directory and goes away with it.
	if abs, err := filepath.Abs(tmp); err == nil {
		os.Setenv("TMPDIR", abs) //nolint:errcheck // a name without NUL or '=' cannot fail
	}
	r := &run{cfg: cfg, start: start, tmp: tmp, values: make(map[string]float64), outputs: sha256.New()}
	if cfg.Trace {
		r.spans = &spanLog{origin: start}
	}
	return r, nil
}

// spreadSubdirectories sets FS_TOPDIR_FL on dir, best effort.
func spreadSubdirectories(dir string) {
	const getFlags, setFlags, topDir = 0x80086601, 0x40086602, 0x00020000 // FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags uint64 // the ioctl reads and writes a C long
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno == 0 && flags&topDir == 0 {
		flags |= topDir
		syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags))) //nolint:errcheck // best effort
	}
}

// cleanup removes the run's scratch files and keeps its directories.
func (r *run) cleanup() {
	filepath.Walk(r.tmp, func(path string, info os.FileInfo, err error) error { //nolint:errcheck // best effort
		if err == nil && !info.IsDir() {
			os.Remove(path) //nolint:errcheck // best effort
		}
		return nil
	})
}

// dir returns a fresh scratch directory under the run's temp root.
func (r *run) dir(name string) string {
	d := filepath.Join(r.tmp, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(fmt.Sprintf("benchmark: scratch dir: %v", err))
	}
	return d
}

// blocks scales a reference block count by --seconds, never below floor.
func (r *run) blocks(reference, floor int) int {
	return max((reference*r.cfg.Seconds+referenceSeconds/2)/referenceSeconds, floor)
}

// reps is a probe's repetition or input count: n, or a twentieth of it on
// a tiny run.
func (r *run) reps(n int) int {
	if r.cfg.Tiny {
		return max(n/20, 2)
	}
	return n
}

// setUp builds a workload's fixtures reps times and keeps the last: set-up
// is everything from process start to the first timed phase (scratch
// directories, daemon start, store population, the first warm-up block), and
// setup_s is the median repetition, so one stall does not decide it. The
// first repetition is charged from process start. discard releases a
// repetition that is not kept, off the clock.
func setUp[T any](r *run, reps int, build func(rep int) (T, error), discard func(T)) (T, error) {
	var kept T
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = r.start
		}
		fixture, err := build(rep)
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		if rep < reps-1 {
			discard(fixture)
			runtime.GC()
		}
		kept = fixture
	}
	return kept, nil
}

// setupReps is how often a workload whose set-up takes about a second
// repeats it.
func (r *run) setupReps(n int) int {
	if r.cfg.Tiny {
		return 1
	}
	return n
}

// timedPhase runs fn on the clock, after a collection so that every phase
// starts from the same collector state.
func (r *run) timedPhase(name string, blocks int, fn func()) time.Duration {
	runtime.GC()
	u0, s0 := cpuTimes()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	u1, s1 := cpuTimes()
	r.addPhase(phase{Name: name, Seconds: d.Seconds(), Blocks: blocks, UserS: (u1 - u0).Seconds(), SysS: (s1 - s0).Seconds()})
	return d
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// addPhase books a finished phase. Phases whose timed blocks alternate with
// untimed steps (a collection between two profiling runs, the uploads before
// a delta round) time their blocks themselves and book the sum here.
func (r *run) addPhase(p phase) {
	r.timed += time.Duration(p.Seconds * float64(time.Second))
	r.phases = append(r.phases, p)
	fmt.Fprintf(r.cfg.Log, "phase %-22s %8.3f s  (%d block(s))\n", p.Name, p.Seconds, p.Blocks)
}

// output adds bytes to the fingerprint of the run's deterministic outputs.
// The summary line prints it, and -selfcheck requires it to repeat across
// fresh processes of one seed.
func (r *run) output(data []byte) { r.outputs.Write(data) }

// op counts attempted operations; a non-nil err counts one of them failed.
func (r *run) op(n int, err error) {
	r.attempted += n
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: operation failed: %v\n", r.cfg.Workload, err)
	}
}

// check is one output check: an attempted operation that fails when ok is
// false.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check: "+format, args...)
	}
	r.op(1, err)
}

// set records a metric. Setting a name twice is a bug in the workload.
func (r *run) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	r.values[name] = v
}

// report fills in the host metrics, prints the named metrics this workload
// measured and returns the driver's result object: every end-to-end name on
// an untraced run, every per-layer name on a traced one. The driver wants
// every declared name on every run; a name this workload is not the home of
// reads notMeasured.
func (r *run) report() result {
	host := readHost()
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	r.set("setup_s", median(setups))
	for _, m := range endToEnd {
		if m.Name == "peak_rss_mb" && m.measuredBy(r.cfg.Workload) {
			r.set(m.Name, host.peakRSSMB)
		}
	}
	defs := endToEnd
	if r.cfg.Trace {
		defs = perLayer
		r.set("host.cpu_s", host.cpuS)
		r.set("host.peak_rss_mb", host.peakRSSMB)
		r.set("host.go_gc_cycles", float64(host.gcCycles))
		r.set("host.go_alloc_mb", host.allocMB)
		r.set("host.trace_overhead_pct", 100*r.spans.overhead().Seconds()/r.timed.Seconds())
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(r.cfg.Log, "\n%-36s %16s  %s\n", "metric", "value", "unit")
	for _, m := range defs {
		v, ok := r.values[m.Name]
		switch {
		case ok != m.measuredBy(r.cfg.Workload) && r.failed == 0:
			// A failed operation may cut a workload short; anything
			// else that leaves a name unmeasured is a bug here.
			panic(fmt.Sprintf("benchmark: %s: metric %s measured=%v disagrees with its declared home", r.cfg.Workload, m.Name, ok))
		case ok:
			fmt.Fprintf(r.cfg.Log, "%-36s %16.6g  %s\n", m.Name, v, m.Unit)
		default:
			v = notMeasured(r.cfg.Seed)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("benchmark: metric %s is not finite", m.Name))
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if !r.cfg.Trace {
		for _, m := range demoted {
			if v, ok := r.values[m.Name]; ok {
				fmt.Fprintf(r.cfg.Log, "%-36s %16.6g  %s  (no bound: listed per-layer)\n", m.Name, v, m.Unit)
			}
		}
	}
	return res
}

// result is the driver's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line before the result: what ran, how long each phase
// took, and the claim — null, because this benchmark defines names and
// claims no gain.
type summary struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Clients  int       `json:"closed_loop_clients"`
	SetupsS  []float64 `json:"setups_s"`
	Phases   []phase   `json:"phases"`
	TimedS   float64   `json:"timed_s"`
	WallS    float64   `json:"wall_s"`
	Outputs  string    `json:"outputs_sha256"`
	// Unbounded carries the metrics listed per-layer that an untraced run
	// measures all the same (metrics.go, demoted).
	Unbounded map[string]float64 `json:"unbounded,omitempty"`
	Spans     string             `json:"spans,omitempty"`
	Claim     *float64           `json:"claim"`
}

// hostStats are the process-level costs every workload reports.
type hostStats struct {
	cpuS      float64
	peakRSSMB float64
	gcCycles  uint32
	allocMB   float64 // bytes the Go heap handed out over the whole run
}

func readHost() hostStats {
	var h hostStats
	user, sys := cpuTimes()
	h.cpuS = (user + sys).Seconds()
	// VmHWM is the resident-set high-water mark an operator sees in top.
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					h.peakRSSMB = kb / 1024
				}
			}
		}
		f.Close()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.gcCycles = ms.NumGC
	h.allocMB = float64(ms.TotalAlloc) / (1 << 20)
	return h
}

// span is one timed call into a layer, recorded by the benchmark around
// the call (name, layer, start, end, parent span, op id). Spans live in
// memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	// StartNS and EndNS count from process start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the duration minus the part child spans cover; filled in
	// when the log is written.
	SelfNS int64 `json:"self_ns"`
}

// spanLog is the traced run's recorder. A nil log records nothing, so an
// untraced run pays one nil check per would-be span.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

// spanRef addresses an open span; the zero value of a nil log is inert.
type spanRef struct {
	log *spanLog
	id  int
	t0  time.Time // set only when no log records the span
}

var noParent = spanRef{id: -1}

func (l *spanLog) begin(parent spanRef, layer, name string, op int) spanRef {
	if l == nil {
		return spanRef{id: -1, t0: time.Now()}
	}
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent.id, Layer: layer, Name: name, Op: op, StartNS: now})
	l.mu.Unlock()
	return spanRef{log: l, id: id}
}

// end closes the span and returns its duration. Probes read their timing
// from it, so it measures even when no log records the span.
func (s spanRef) end() time.Duration {
	if s.log == nil {
		return time.Since(s.t0)
	}
	now := time.Since(s.log.origin).Nanoseconds()
	s.log.mu.Lock()
	sp := &s.log.spans[s.id]
	sp.EndNS = now
	d := sp.EndNS - sp.StartNS
	s.log.mu.Unlock()
	return time.Duration(d)
}

// add records a span whose interval was measured elsewhere (a unit of the
// paper suite, timed by the harness under test).
func (l *spanLog) add(parent spanRef, layer, name string, op int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent.id, Layer: layer, Name: name, Op: op,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals (children of concurrent clients may overlap).
func (l *spanLog) finish() {
	children := make(map[int][]int)
	for _, sp := range l.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	for i := range l.spans {
		sp := &l.spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].StartNS < l.spans[kids[b]].StartNS })
		var covered, reach int64
		reach = sp.StartNS
		for _, k := range kids {
			c := l.spans[k]
			lo, hi := max(c.StartNS, reach), min(c.EndNS, sp.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		sp.SelfNS = sp.EndNS - sp.StartNS - covered
	}
}

// warmupOp is the op id of spans recorded during untimed warm-up blocks;
// sums over a span name leave them out.
const warmupOp = -1

// selfSum totals the self time of every timed span of one (layer, name).
func (l *spanLog) selfSum(layer, name string) time.Duration {
	var sum int64
	for _, sp := range l.spans {
		if sp.Layer == layer && sp.Name == name && sp.Op != warmupOp {
			sum += sp.SelfNS
		}
	}
	return time.Duration(sum)
}

// overhead estimates what recording cost this run: the per-span cost of a
// calibration loop on this host times the number of spans recorded.
func (l *spanLog) overhead() time.Duration {
	const n = 20000
	cal := &spanLog{origin: l.origin, spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cal.begin(noParent, "host", "calibrate", i).end()
	}
	per := time.Since(t0) / n
	return per * time.Duration(len(l.spans))
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is a set of durations; percentile is nearest-rank. It is kept
// here, not borrowed from internal/metrics, so that no change under
// internal/ can move how the benchmark summarises what it measured.
type sample []time.Duration

func (s sample) percentile(p float64) time.Duration {
	v := append(sample(nil), s...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dirBytes totals the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
