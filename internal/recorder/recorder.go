// Package recorder implements the Recorder component of POLM2 (§3.2, §4.1).
//
// The Recorder runs attached to the execution engine (the paper attaches a
// Java agent to the JVM) and does two things:
//
//  1. It logs every object allocation: the stack trace of the allocation
//     site plus the allocated object's id (the paper logs its identity
//     hash). To bound memory and CPU overhead it keeps only a table of
//     distinct stack traces in memory and continuously streams the ids to
//     disk, one stream per allocation site; the stack-trace table itself
//     is flushed once, at the end of the profiling run (§3.2).
//
//  2. After every GC cycle (configurable to every k-th cycle) it prepares
//     the heap for a snapshot by marking pages holding no reachable objects
//     as no-need (the paper's madvise pass, §4.2) and asks the Dumper to
//     create a new incremental snapshot.
//
// Id streams (version 3) are CRC32C-framed with a commit trailer and store
// each id, an allocation serial, as its delta from the previous record's
// (see stream.go); the site table (version 2) carries a line
// count footer and is published by atomic rename. A profiling run killed
// mid-write never leaves an ambiguous artifact — only a shorter one.
package recorder

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"polm2/internal/faultio"
	"polm2/internal/heap"
	"polm2/internal/jvm"
)

// SiteTableFile is the name of the stack-trace table file within a
// recording directory.
const SiteTableFile = "sites.tsv"

// SiteTableVersion is the site table format this package writes and reads.
const SiteTableVersion = 2

// siteTableHeader and siteTableFooter frame a site table. A table without
// the header is not one we wrote and is refused; a table with the header
// but no matching footer was cut short.
var siteTableHeader = fmt.Sprintf("# polm2 sites v%d", SiteTableVersion)

const siteTableFooter = "# end sites="

// streamFile names the id stream for one allocation site.
func streamFile(site heap.SiteID) string {
	return fmt.Sprintf("site-%06d.bin", site)
}

// SnapshotSink receives snapshot requests from the Recorder. The Dumper
// implements it.
type SnapshotSink interface {
	// Snapshot creates a new heap snapshot. The heap's no-need bits have
	// already been refreshed by the Recorder.
	Snapshot(cycle uint64) error
}

// Config parameterizes a Recorder.
type Config struct {
	// Dir is the directory allocation records are written into. It must
	// exist.
	Dir string
	// SnapshotEvery requests a snapshot after every k-th GC cycle.
	// Default 1: after every cycle, the paper's default (§3.2).
	SnapshotEvery int
	// Fault optionally interposes a fault-injection plan on every artifact
	// write. Nil writes straight through.
	Fault *faultio.Injector
}

// Recorder streams allocation records to disk and triggers snapshots.
type Recorder struct {
	cfg   Config
	h     *heap.Heap
	sites *jvm.SiteTable
	sink  SnapshotSink

	streams  map[heap.SiteID]*streamWriter
	firstErr error
	closed   bool
}

// New builds a Recorder writing into cfg.Dir.
func New(cfg Config, h *heap.Heap, sites *jvm.SiteTable, sink SnapshotSink) (*Recorder, error) {
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("recorder: SnapshotEvery must be positive, got %d", cfg.SnapshotEvery)
	}
	info, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("recorder: output dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("recorder: output path %q is not a directory", cfg.Dir)
	}
	return &Recorder{
		cfg:     cfg,
		h:       h,
		sites:   sites,
		sink:    sink,
		streams: make(map[heap.SiteID]*streamWriter),
	}, nil
}

// Attach registers the Recorder's allocation hook and GC-cycle listener on
// the engine, the equivalent of loading the paper's recording agent into
// the JVM.
func (r *Recorder) Attach(vm *jvm.VM) {
	vm.AddAllocHook(r.RecordAlloc)
	vm.Collector().OnCycleEnd(r.CycleEnd)
}

// RecordAlloc logs one allocation: the object's id is appended
// to the site's stream. Errors are sticky and surfaced by Close.
func (r *Recorder) RecordAlloc(site heap.SiteID, obj *heap.Object) {
	if r.firstErr != nil || r.closed {
		return
	}
	s, ok := r.streams[site]
	if !ok {
		f, err := r.cfg.Fault.Create(filepath.Join(r.cfg.Dir, streamFile(site)))
		if err != nil {
			r.firstErr = fmt.Errorf("recorder: creating stream for site %d: %w", site, err)
			return
		}
		s, err = newStreamWriter(f)
		if err != nil {
			r.firstErr = fmt.Errorf("recorder: starting stream for site %d: %w", site, err)
			return
		}
		r.streams[site] = s
	}
	if err := s.appendID(obj.ID); err != nil {
		r.firstErr = fmt.Errorf("recorder: writing id for site %d: %w", site, err)
	}
}

// CycleEnd is the GC-cycle listener: on every k-th cycle it refreshes the
// no-need bits from the live set the collector just computed, then asks the
// Dumper for a snapshot.
func (r *Recorder) CycleEnd(cycle uint64, live *heap.LiveSet) {
	if r.firstErr != nil || r.closed || r.sink == nil {
		return
	}
	if cycle%uint64(r.cfg.SnapshotEvery) != 0 {
		return
	}
	r.h.MarkNoNeedPages(live)
	if err := r.sink.Snapshot(cycle); err != nil {
		r.firstErr = fmt.Errorf("recorder: snapshot at cycle %d: %w", cycle, err)
	}
}

// siteIDs returns the recorded sites in ascending order.
func (r *Recorder) siteIDs() []heap.SiteID {
	ids := make([]heap.SiteID, 0, len(r.streams))
	for id := range r.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Flush seals and pushes every id stream to disk and (re)writes the
// stack-trace table without ending the recording. The online profiling mode
// calls it before each re-analysis so the Analyzer sees a consistent
// on-disk state; flushed-but-unclosed streams carry no commit trailer yet,
// which is exactly what SalvageIDs tolerates and ReadIDs refuses.
func (r *Recorder) Flush() error {
	if r.closed {
		return fmt.Errorf("recorder: Flush after Close")
	}
	for _, id := range r.siteIDs() {
		if err := r.streams[id].Flush(); err != nil {
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("recorder: flushing site %d: %w", id, err)
			}
			return r.firstErr
		}
	}
	if err := r.writeSiteTable(); err != nil {
		if r.firstErr == nil {
			r.firstErr = err
		}
		return r.firstErr
	}
	return r.firstErr
}

// Close commits every id stream — sealing the last frame and writing the
// commit trailer — and writes the stack-trace table, then reports the first
// error encountered anywhere in the recording.
func (r *Recorder) Close() error {
	if r.closed {
		return r.firstErr
	}
	if err := r.writeSiteTable(); err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	r.closed = true
	for _, id := range r.siteIDs() {
		if err := r.streams[id].Close(); err != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("recorder: closing site %d: %w", id, err)
		}
	}
	return r.firstErr
}

// writeSiteTable persists only the sites that have a stream: one line
// per site, "id<TAB>frame;frame;...", framed by a version header and a
// count footer, published by atomic rename.
func (r *Recorder) writeSiteTable() error {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, siteTableHeader)
	lines := 0
	for _, entry := range r.sites.All() {
		if _, used := r.streams[entry.ID]; !used {
			continue
		}
		fmt.Fprintf(&buf, "%d\t%s\n", entry.ID, entry.Trace.String())
		lines++
	}
	fmt.Fprintf(&buf, "%s%d\n", siteTableFooter, lines)

	err := r.cfg.Fault.Publish(filepath.Join(r.cfg.Dir, SiteTableFile), func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("recorder: publishing site table: %w", err)
	}
	return nil
}

// TableSalvage describes how much of a site table a decode recovered.
type TableSalvage struct {
	// Sites is the number of entries recovered.
	Sites int
	// Complete reports a verified header and count footer.
	Complete bool
	// BadLines counts malformed lines that were skipped.
	BadLines int
	// Reason says why the table is incomplete, empty when Complete.
	Reason string
	// err is the first damage met, as a typed error; nil when Complete.
	err error
}

// Err returns the error LoadSiteTable refuses the table with: the first
// damage the decode met, wrapping ErrCorrupt or ErrTruncated, or nil when
// the table is Complete.
func (s *TableSalvage) Err() error { return s.err }

// LoadSiteTable reads a persisted stack-trace table back, strictly: it is
// SalvageSiteTable refusing any table that is not Complete, with the error
// of TableSalvage.Err. The Analyzer uses it as the first step of §3.3's
// algorithm.
func LoadSiteTable(dir string) (map[heap.SiteID]jvm.StackTrace, error) {
	out, sal, err := SalvageSiteTable(dir)
	if err == nil {
		err = sal.Err()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SalvageSiteTable reads back as much of a stack-trace table as survives,
// skipping malformed lines. The error is non-nil only when the file cannot
// be read at all.
func SalvageSiteTable(dir string) (map[heap.SiteID]jvm.StackTrace, *TableSalvage, error) {
	data, err := os.ReadFile(filepath.Join(dir, SiteTableFile))
	if err != nil {
		return nil, nil, fmt.Errorf("recorder: reading site table: %w", err)
	}
	const noHeader = "site table lacks its v2 header"
	sal := &TableSalvage{}
	out := make(map[heap.SiteID]jvm.StackTrace)
	text := string(data)
	headed := strings.HasPrefix(text, siteTableHeader+"\n")
	if !headed {
		typed := ErrCorrupt
		if strings.HasPrefix(siteTableHeader+"\n", text) {
			typed = ErrTruncated // empty, or cut inside the header line
		}
		sal.err = fmt.Errorf("%w: %s", typed, noHeader)
	}
	footerCount := -1
	for lineNo, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if v, ok := strings.CutPrefix(line, siteTableFooter); ok {
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
					footerCount = n
				}
			}
			continue
		}
		id, trace, err := parseSiteLine(line)
		if err != nil {
			if sal.err == nil {
				sal.err = fmt.Errorf("%w: site table line %d: %v", ErrCorrupt, lineNo+1, err)
			}
			sal.BadLines++
			continue
		}
		out[id] = trace
	}
	sal.Sites = len(out)
	switch {
	case !headed:
		sal.Reason = noHeader
	case footerCount < 0:
		sal.Reason = "site table ends without its count footer"
	case footerCount != len(out)+sal.BadLines:
		sal.Reason = fmt.Sprintf("site table footer promises %d sites, found %d", footerCount, len(out)+sal.BadLines)
	case sal.BadLines > 0:
		sal.Reason = fmt.Sprintf("%d malformed site table lines skipped", sal.BadLines)
	default:
		sal.Complete = true
	}
	if !sal.Complete && sal.err == nil {
		sal.err = fmt.Errorf("%w: %s", ErrTruncated, sal.Reason)
	}
	return out, sal, nil
}

func parseSiteLine(line string) (heap.SiteID, jvm.StackTrace, error) {
	idStr, traceStr, ok := strings.Cut(line, "\t")
	if !ok {
		return 0, nil, fmt.Errorf("no tab separator")
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		return 0, nil, err
	}
	var trace jvm.StackTrace
	for _, frameStr := range strings.Split(traceStr, ";") {
		loc, err := jvm.ParseCodeLoc(frameStr)
		if err != nil {
			return 0, nil, err
		}
		trace = append(trace, loc)
	}
	if len(trace) == 0 {
		return 0, nil, fmt.Errorf("empty trace")
	}
	return heap.SiteID(id), trace, nil
}
