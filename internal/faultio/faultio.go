// Package faultio injects deterministic, seed-driven I/O faults into the
// profiling pipeline's artifact writes — the adverse conditions a
// production profiling run actually meets: the profiled process killed
// mid-run, a disk filling up, a page cache lost on power failure.
//
// Faults model what the *disk* ends up holding, not what the writing
// process observes: a crashed process never sees its own torn write, so
// injected writers report success while silently dropping or mangling
// bytes. The Recorder and Dumper keep running; the Analyzer later meets the
// damage and must salvage (see analyzer.AnalyzeSalvage).
//
// Faults are injected live, on the way to the disk: every artifact file is
// opened through Create or published through Publish, whose writers apply
// short writes, torn streams, bit flips, crash-after-k-syscalls and missing
// files as the bytes are written.
//
// Every choice a fault makes (which write, which byte, which bit) derives
// from the plan seed and the artifact file name, never from wall-clock or
// map order, so a fault plan replays identically across runs and workers.
package faultio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Kind enumerates the fault classes of the fault model (DESIGN.md §9).
type Kind int

// Fault kinds.
const (
	// KindShortWrite persists only a prefix of one chosen write syscall;
	// the remainder of that write is lost but later writes land normally,
	// leaving a hole mid-stream.
	KindShortWrite Kind = iota + 1
	// KindTorn drops every byte from a chosen stream offset onward — the
	// classic truncation left by a process killed mid-append.
	KindTorn
	// KindBitFlip flips one bit of one byte.
	KindBitFlip
	// KindCrash stops the world after the k-th write syscall across all
	// artifact files: every later write (and every later create) is lost,
	// as if the machine lost power.
	KindCrash
	// KindMissing loses the whole file: it never reaches the directory.
	KindMissing
)

func (k Kind) String() string {
	switch k {
	case KindShortWrite:
		return "short"
	case KindTorn:
		return "torn"
	case KindBitFlip:
		return "bitflip"
	case KindCrash:
		return "crash"
	case KindMissing:
		return "missing"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one planned fault.
type Fault struct {
	Kind Kind
	// Match is a path.Match glob against the artifact file's base name;
	// empty matches every file. Ignored by KindCrash.
	Match string
	// Offset is the stream offset for torn and bitflip faults, counted
	// from the file start; it is never negative. OffsetSet false derives a
	// deterministic offset from the plan seed and the file name.
	Offset    int64
	OffsetSet bool
	// AfterOps is the crash point for KindCrash: the number of write
	// syscalls that still reach the disk. Zero derives it from the seed.
	AfterOps int
}

func (f Fault) String() string {
	s := f.Kind.String()
	if f.Match != "" {
		s += ":" + f.Match
	}
	if f.OffsetSet {
		s += "@" + strconv.FormatInt(f.Offset, 10)
	}
	if f.AfterOps > 0 {
		s += "#" + strconv.Itoa(f.AfterOps)
	}
	return s
}

// Plan is a complete, replayable fault plan.
type Plan struct {
	Seed   int64
	Faults []Fault
}

// String renders the plan back into ParseSpec's grammar.
func (p *Plan) String() string {
	parts := []string{"seed=" + strconv.FormatInt(p.Seed, 10)}
	for _, f := range p.Faults {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses a fault plan from its flag syntax:
//
//	spec  = "seed=N" *( ";" fault )  |  fault *( ";" fault )
//	fault = kind [ ":" glob ] [ "@" offset ] [ "#" afterOps ]
//	kind  = "short" | "torn" | "bitflip" | "crash" | "missing"
//
// Examples: "seed=7;torn:site-*.bin", "crash#2500",
// "bitflip:snap-*.img@100", "missing:sites.tsv".
func ParseSpec(spec string) (*Plan, error) {
	seed, faults, err := splitSpec(spec, parseFault)
	if err != nil {
		return nil, err
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("faultio: spec %q plans no faults", spec)
	}
	return &Plan{Seed: seed, Faults: faults}, nil
}

// splitSpec parses the outer grammar ParseSpec and ParseNetSpec share:
// ";"-separated parts, each "seed=N" or a fault that parse reads. Blank
// parts are skipped; the seed defaults to 1.
func splitSpec[F any](spec string, parse func(string) (F, error)) (int64, []F, error) {
	seed := int64(1)
	var faults []F
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("faultio: bad seed %q: %w", v, err)
			}
			seed = n
			continue
		}
		f, err := parse(part)
		if err != nil {
			return 0, nil, err
		}
		faults = append(faults, f)
	}
	return seed, faults, nil
}

func parseFault(s string) (Fault, error) {
	var f Fault
	rest := s
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n <= 0 {
			return f, fmt.Errorf("faultio: bad crash point in %q", s)
		}
		f.AfterOps = n
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		off, err := strconv.ParseInt(rest[i+1:], 10, 64)
		if err != nil || off < 0 {
			return f, fmt.Errorf("faultio: bad offset in %q", s)
		}
		f.Offset, f.OffsetSet = off, true
		rest = rest[:i]
	}
	kind, glob, _ := strings.Cut(rest, ":")
	switch kind {
	case "short":
		f.Kind = KindShortWrite
	case "torn":
		f.Kind = KindTorn
	case "bitflip":
		f.Kind = KindBitFlip
	case "crash":
		f.Kind = KindCrash
	case "missing":
		f.Kind = KindMissing
	default:
		return f, fmt.Errorf("faultio: unknown fault kind %q in %q", kind, s)
	}
	if glob != "" {
		if _, err := filepath.Match(glob, "probe"); err != nil {
			return f, fmt.Errorf("faultio: bad glob %q in %q: %w", glob, s, err)
		}
		f.Match = glob
	}
	return f, nil
}

// mix is a splitmix64 step: the deterministic source every per-file choice
// derives from.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// derive hashes the plan seed with a file name into a stable uint64.
func derive(seed int64, name string, salt uint64) uint64 {
	h := mix(uint64(seed) ^ salt)
	for i := 0; i < len(name); i++ {
		h = mix(h ^ uint64(name[i]))
	}
	return h
}

// Injector applies a Plan. The zero value (and a nil *Injector) injects
// nothing and writes straight through, so callers can thread one seam
// unconditionally.
type Injector struct {
	plan *Plan
	// ops counts write syscalls across every wrapped file, the clock the
	// crash fault ticks on.
	ops      int
	crashAt  int
	crashed  bool
	hasCrash bool
}

// New builds an injector for the plan. A nil plan yields a pass-through
// injector.
func New(plan *Plan) *Injector {
	in := &Injector{plan: plan}
	if plan == nil {
		return in
	}
	for _, f := range plan.Faults {
		if f.Kind == KindCrash {
			in.hasCrash = true
			in.crashAt = f.AfterOps
			if in.crashAt == 0 {
				in.crashAt = int(derive(plan.Seed, "crash", 0xc5a5)%4096) + 64
			}
		}
	}
	return in
}

// Plan returns the injector's plan (nil for a pass-through injector).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// Crashed reports whether the crash fault has fired.
func (in *Injector) Crashed() bool { return in != nil && in.crashed }

// faultsFor returns the per-file faults whose glob matches the base name.
func (in *Injector) faultsFor(base string) []Fault {
	if in == nil || in.plan == nil {
		return nil
	}
	var out []Fault
	for _, f := range in.plan.Faults {
		if f.Kind == KindCrash {
			continue // crash is global
		}
		if f.Match == "" {
			out = append(out, f)
			continue
		}
		if ok, _ := filepath.Match(f.Match, base); ok {
			out = append(out, f)
		}
	}
	return out
}

// Create opens path for writing through the fault plan. The returned
// WriteCloser always reports success — a crashed process never observes its
// own lost writes — but what reaches the disk is governed by the plan.
func (in *Injector) Create(path string) (io.WriteCloser, error) {
	// Atomic writers create "name.tmp" and rename; faults target the
	// logical artifact name, so the suffix is invisible to globs.
	base := strings.TrimSuffix(filepath.Base(path), ".tmp")
	faults := in.faultsFor(base)
	for _, f := range faults {
		if f.Kind == KindMissing {
			// The file never reaches the directory.
			return discardFile{}, nil
		}
	}
	if in != nil && in.crashed {
		// Files created after the crash point are lost too.
		return discardFile{}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if in == nil || in.plan == nil {
		return f, nil
	}
	fw := &faultWriter{in: in, f: f, name: base}
	fw.configure(faults)
	return fw, nil
}

// Publish makes path appear whole or not at all: write fills a temporary
// created through the fault plan, which is then renamed into place. It is
// the only whole-file publish in the repository. A crash before the rename
// leaves the temporary abandoned and the previous version in place, and a
// missing-file fault leaves nothing; neither is an error, since the
// writing process never observes its own lost writes. With a nil injector
// it adds only create, close and rename to the syscalls write makes.
func (in *Injector) Publish(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := in.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if _, swallowed := f.(discardFile); swallowed || in.Crashed() {
		return nil
	}
	return os.Rename(tmp, path)
}

// configure arms the writer with its matching live faults.
func (fw *faultWriter) configure(faults []Fault) {
	seed := fw.in.plan.Seed
	for _, fa := range faults {
		switch fa.Kind {
		case KindTorn:
			off := fa.Offset
			if !fa.OffsetSet {
				off = int64(derive(seed, fw.name, 0x7024) % 8192)
			}
			fw.tornAt = off
			fw.hasTorn = true
		case KindShortWrite:
			fw.shortAtOp = int(derive(seed, fw.name, 0x54a3) % 256)
			fw.hasShort = true
		case KindBitFlip:
			off := fa.Offset
			if !fa.OffsetSet {
				off = int64(derive(seed, fw.name, 0xb1f1) % 4096)
			}
			fw.flipAt = off
			fw.flipBit = uint(derive(seed, fw.name, 0xb172) % 8)
			fw.hasFlip = true
		}
	}
}

// discardFile swallows a missing file's bytes.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }

// faultWriter applies live faults to one file's write stream.
type faultWriter struct {
	in   *Injector
	f    io.WriteCloser
	name string
	// pos is the logical stream offset (bytes the writer claims written).
	pos int64
	// op counts this file's write syscalls (for the short-write choice).
	op int

	hasTorn bool
	tornAt  int64

	hasShort  bool
	shortAtOp int
	shortDone bool

	hasFlip bool
	flipAt  int64
	flipBit uint
}

// Write claims full success while persisting only what the fault plan
// allows.
func (fw *faultWriter) Write(p []byte) (int, error) {
	n := len(p)
	fw.op++
	fw.in.ops++
	if fw.in.hasCrash && !fw.in.crashed && fw.in.ops > fw.in.crashAt {
		fw.in.crashed = true
	}
	if fw.in.crashed {
		fw.pos += int64(n)
		return n, nil // lost to the crash
	}
	persist := p
	if fw.hasTorn && fw.pos+int64(n) > fw.tornAt {
		keep := fw.tornAt - fw.pos
		if keep < 0 {
			keep = 0
		}
		persist = p[:keep]
		// Everything past the tear point is gone for good: the file is
		// closed here and later writes are discarded.
		fw.hasTorn = false
		fw.hasShort = false
		fw.hasFlip = false
		fw.writeThrough(persist)
		fw.pos += int64(n)
		fw.f.Close() //nolint:errcheck // fault model: the process cannot see it
		fw.f = discardFile{}
		return n, nil
	}
	if fw.hasShort && !fw.shortDone && fw.op > fw.shortAtOp && n > 1 {
		fw.shortDone = true
		persist = p[:n/2]
		fw.writeThrough(persist)
		fw.pos += int64(n)
		return n, nil
	}
	if fw.hasFlip && fw.pos <= fw.flipAt && fw.flipAt < fw.pos+int64(n) {
		mangled := make([]byte, n)
		copy(mangled, p)
		mangled[fw.flipAt-fw.pos] ^= 1 << fw.flipBit
		persist = mangled
		fw.hasFlip = false
	}
	fw.writeThrough(persist)
	fw.pos += int64(n)
	return n, nil
}

// writeThrough persists bytes, ignoring real I/O errors the faulted
// process would never have observed anyway.
func (fw *faultWriter) writeThrough(p []byte) {
	if len(p) == 0 {
		return
	}
	fw.f.Write(p) //nolint:errcheck // fault model: the process cannot see it
}

func (fw *faultWriter) Close() error { return fw.f.Close() }
