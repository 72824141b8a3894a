package crashmatrix

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"polm2"
	"polm2/internal/analyzer"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// Outcomes of one corrupted-pipeline run. The crash-matrix contract is
// that every case lands in exactly one of these — never a panic, never a
// silently wrong profile.
const (
	outFullRecovery = "full-recovery"   // strict readers accept, profile matches the pristine one
	outSalvage      = "salvage"         // strict refuses (typed), salvage analyzes with a loss report
	outRefusal      = "typed-refusal"   // even salvage refuses, with a typed error
	outPanic        = "panic"           // must never happen
	outUntyped      = "untyped-refusal" // must never happen
	outSilentWrong  = "silently-wrong"  // must never happen
)

// pristine runs one short profiling phase into dir, returning the records
// and snapshot subdirectories plus the canonical profile JSON.
func pristine(t *testing.T, dir string) (recDir, snapDir string, baseline []byte) {
	t.Helper()
	recDir = filepath.Join(dir, "records")
	snapDir = filepath.Join(dir, "snaps")
	for _, d := range []string{recDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	res, err := polm2.ProfileApp(polm2.AppByName("Cassandra"), "WI", polm2.ProfileOptions{
		Duration:      45 * time.Second,
		Scale:         512,
		Seed:          1,
		SnapshotEvery: 2,
		RecordsDir:    recDir,
		SnapshotDir:   snapDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err = json.Marshal(res.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return recDir, snapDir, baseline
}

// copyTree duplicates the two artifact directories into a fresh root.
func copyTree(t *testing.T, srcRec, srcSnap, dst string) (recDir, snapDir string) {
	t.Helper()
	recDir = filepath.Join(dst, "records")
	snapDir = filepath.Join(dst, "snaps")
	for src, d := range map[string]string{srcRec: recDir, srcSnap: snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return recDir, snapDir
}

// streamOffsets computes truncation offsets for a framed id stream
// spanning the header, mid-frame, frame-boundary and trailer classes.
func streamOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	offs := []int64{0, 1, 3, 4, 5} // empty, inside the magic, and right after the header
	pos := int64(5)
	frames := 0
	for {
		n, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			break
		}
		if n == 0 { // trailer: uvarint 0 + stream CRC
			offs = append(offs, pos, pos+1, pos+3)
			break
		}
		end := pos + int64(k) + int64(n) + 4
		if frames < 2 {
			offs = append(offs, pos+int64(k)+int64(n)/2, end-2, end)
		}
		pos = end
		frames++
		if pos >= int64(len(data)) {
			break
		}
	}
	offs = append(offs, int64(len(data))-1)
	return dedupeOffsets(offs, int64(len(data)))
}

// genericCuts spans the classes positionally for formats the test does
// not parse byte-by-byte (site table, snapshot images). Each cut is named
// by its class, not its offset, so a change in an artifact's size moves
// the cuts without renaming a case.
func genericCuts(size int64) []cut {
	classes := []cut{
		{0, "@0"}, {1, "@1"}, {3, "@3"}, {5, "@5"},
		{size / 4, "@q1"}, {size / 2, "@mid"}, {3 * size / 4, "@q3"},
		{size - 5, "@end-5"}, {size - 1, "@end-1"},
	}
	var out []cut
	for _, c := range classes {
		if c.off >= 0 && c.off < size && !slices.ContainsFunc(out, func(o cut) bool { return o.off == c.off }) {
			out = append(out, c)
		}
	}
	return out
}

// cut is one truncation case: the offset (-1 deletes the file) and the
// name the case runs under, after the file's.
type cut struct {
	off  int64
	name string
}

// offsetCuts names each offset by itself.
func offsetCuts(offs []int64) []cut {
	out := make([]cut, len(offs))
	for i, o := range offs {
		out[i] = cut{o, fmt.Sprintf("@%d", o)}
	}
	return out
}

// fixedCuts are cuts this matrix made of earlier encodings of the same
// files, and of today's, before the generic cuts were named by class;
// they keep their offsets and their @<offset> names: those of the v2
// encodings, whose hash-valued ids made the artifacts several times
// larger, those of images 5 and 9 when every image listed all the heap's
// no-need pages rather than those that became no-need since the previous
// image, and the size-derived generic cuts of the site table and the
// three images as these files stand now. A cut inside today's file
// truncates it; one past its end grows it, and os.Truncate zero-fills the
// gap: the crash state in which a file's new size reached disk before its
// data did.
var fixedCuts = map[string][]int64{
	"sites.tsv":       {156, 312, 468, 619, 623},
	"site-000007.bin": {2057, 4109, 4111, 6163, 8216, 8218, 23638, 23639, 23641, 23642},
	"snap-000001.img": {535, 1070, 1605, 2136, 2140, 2660, 5320, 7980, 10635, 10639},
	"snap-000005.img": {941, 1883, 2824, 3761, 3765, 4486, 8972, 13458, 17940, 17944, 1101, 2202, 3303, 4399, 4403},
	"snap-000009.img": {1285, 2570, 3855, 5136, 5140, 6522, 13045, 19568, 26086, 26090, 1614, 3228, 4842, 6451, 6455},
}

// withFixedCuts adds file's fixed cuts to cuts. A fixed cut at the offset
// of a class-named one takes its place under the @<offset> name, so a
// case keeps its name whatever size the file has.
func withFixedCuts(file string, cuts []cut) []cut {
	for _, c := range fixedCuts[file] {
		fixed := cut{c, fmt.Sprintf("@%d", c)}
		if i := slices.IndexFunc(cuts, func(o cut) bool { return o.off == c }); i >= 0 {
			cuts[i] = fixed
		} else {
			cuts = append(cuts, fixed)
		}
	}
	return cuts
}

func dedupeOffsets(offs []int64, size int64) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, o := range offs {
		if o < 0 || o >= size || seen[o] {
			continue
		}
		seen[o] = true
		out = append(out, o)
	}
	return out
}

// cleanReport is the salvage report of artifacts that lost nothing.
var cleanReport = (&analyzer.SalvageReport{}).String()

// typed reports whether err wraps one of the pipeline's typed failures.
func typed(err error) bool {
	return errors.Is(err, recorder.ErrCorrupt) || errors.Is(err, recorder.ErrTruncated) ||
		errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrTruncated) ||
		errors.Is(err, os.ErrNotExist)
}

// runCase classifies one damaged artifact tree. Any panic is converted
// into the outPanic outcome so the matrix reports which case blew up.
func runCase(recDir, snapDir string, baseline []byte) (outcome string, detail string) {
	defer func() {
		if r := recover(); r != nil {
			outcome, detail = outPanic, fmt.Sprintf("%v", r)
		}
	}()

	strictErr := func() error {
		table, err := recorder.LoadSiteTable(recDir)
		if err != nil {
			return err
		}
		for sid := range table {
			if _, err := recorder.ReadIDs(recDir, sid); err != nil {
				return err
			}
		}
		if _, err := snapshot.ReadDir(snapDir); err != nil {
			return err
		}
		return nil
	}()

	opts := analyzer.Options{App: "Cassandra", Workload: "WI"}
	if strictErr == nil {
		// Strict readers accept: the profile must be byte-for-byte the
		// pristine one, or the damage went silently unnoticed.
		snaps, err := snapshot.ReadDir(snapDir)
		if err != nil {
			return outUntyped, err.Error()
		}
		p, err := analyzer.Analyze(recDir, snaps, opts)
		if err != nil {
			return outUntyped, err.Error()
		}
		got, err := json.Marshal(p)
		if err != nil {
			return outUntyped, err.Error()
		}
		if !bytes.Equal(got, baseline) {
			return outSilentWrong, "strict readers accepted damaged artifacts"
		}
		return outFullRecovery, ""
	}
	if !typed(strictErr) {
		return outUntyped, strictErr.Error()
	}

	_, report, err := analyzer.AnalyzeSalvageDir(recDir, snapDir, opts)
	if err != nil {
		if typed(err) {
			return outRefusal, err.Error()
		}
		return outUntyped, err.Error()
	}
	// A clean report after a strict refusal is the documented live-stream
	// ambiguity: a stream cut exactly at a frame boundary (or just its
	// commit trailer gone) reads like a recording still in progress. The
	// commit trailer exists precisely so strict mode refuses it.
	return outSalvage, report.String()
}

// TestCrashMatrix sweeps truncations (and whole-file deletions) across
// every artifact kind a profiling run leaves behind, asserting the
// pipeline always ends in full recovery, salvage-with-report, or a typed
// refusal — and never panics. It runs under -race in CI.
func TestCrashMatrix(t *testing.T) {
	srcRec, srcSnap, baseline := pristine(t, t.TempDir())

	streams, err := recorder.Streams(srcRec)
	if err != nil || len(streams) == 0 {
		t.Fatalf("pristine run produced no streams: %v", err)
	}
	snapFiles, err := filepath.Glob(filepath.Join(srcSnap, "snap-*.img"))
	if err != nil || len(snapFiles) < 2 {
		t.Fatalf("pristine run produced %d snapshots: %v", len(snapFiles), err)
	}

	type target struct {
		dir  string // "records" or "snaps"
		file string
		cuts func(data []byte) []cut
		// del also sweeps whole-file deletion. Losing the final snapshot
		// image is excluded: with no later chain link the directory is
		// indistinguishable from a run that took one fewer snapshot.
		del bool
	}
	streamName := fmt.Sprintf("site-%06d.bin", streams[len(streams)/2])
	generic := func(d []byte) []cut { return genericCuts(int64(len(d))) }
	targets := []target{
		{"records", recorder.SiteTableFile, generic, true},
		{"records", streamName, func(d []byte) []cut { return offsetCuts(streamOffsets(t, d)) }, true},
		{"snaps", filepath.Base(snapFiles[0]), generic, true},
		{"snaps", filepath.Base(snapFiles[len(snapFiles)/2]), generic, true},
		{"snaps", filepath.Base(snapFiles[len(snapFiles)-1]), generic, false},
	}

	outcomes := make(map[string]int)
	for _, tgt := range targets {
		src := srcRec
		if tgt.dir == "snaps" {
			src = srcSnap
		}
		data, err := os.ReadFile(filepath.Join(src, tgt.file))
		if err != nil {
			t.Fatal(err)
		}
		cases := withFixedCuts(tgt.file, tgt.cuts(data))
		if tgt.del {
			cases = append(cases, cut{-1, "@-1"}) // -1 marks whole-file deletion
		}
		for _, c := range cases {
			off := c.off
			t.Run(tgt.dir+"/"+tgt.file+c.name, func(t *testing.T) {
				recDir, snapDir := copyTree(t, srcRec, srcSnap, t.TempDir())
				victim := filepath.Join(recDir, tgt.file)
				if tgt.dir == "snaps" {
					victim = filepath.Join(snapDir, tgt.file)
				}
				if off < 0 {
					if err := os.Remove(victim); err != nil {
						t.Fatal(err)
					}
				} else if err := os.Truncate(victim, off); err != nil {
					t.Fatal(err)
				}
				outcome, detail := runCase(recDir, snapDir, baseline)
				if off > int64(len(data)) && outcome == outFullRecovery {
					// A cut past the end zero-fills a tail no writer
					// produces: strict readers must refuse it.
					t.Fatalf("zero-filled tail of %s accepted by strict readers", tgt.file)
				}
				if off == 0 && (outcome == outFullRecovery || detail == cleanReport) {
					// An empty artifact reads as nothing we wrote: strict
					// refuses it and salvage must account for the loss.
					t.Fatalf("empty %s: outcome %s %q", tgt.file, outcome, detail)
				}
				switch outcome {
				case outFullRecovery, outSalvage, outRefusal:
					outcomes[outcome]++
				default:
					t.Fatalf("outcome %s: %s", outcome, detail)
				}
			})
		}
	}
	// The sweep must actually exercise the interesting end states: damage
	// was injected in every case, so salvage must dominate, and at least
	// one deletion must end in a typed refusal (the site table's).
	if outcomes[outSalvage] == 0 || outcomes[outRefusal] == 0 {
		t.Fatalf("matrix did not span the outcome classes: %v", outcomes)
	}
	t.Logf("outcomes: %v", outcomes)
}
