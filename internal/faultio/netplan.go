package faultio

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the network half of the fault model: where faultio.Plan
// describes what a disk ends up holding, NetPlan describes what a fleet's
// network delivers — requests dropped on the floor, duplicated by a
// retransmitting middlebox, answered with gateway 5xxs, delayed, or cut
// off wholesale by a partition window. The deterministic discipline is the
// same: every choice derives from the plan seed and the decision's stable
// identity (instance, operation, decision ordinal), never from wall clock
// or map order, so a plan replays identically across runs.
//
// internal/simnet interposes a NetPlan between fleetclient and planserver;
// nothing here touches real sockets.

// NetKind enumerates the network fault classes.
type NetKind int

// Network fault kinds.
const (
	// NetDrop loses a request before it reaches the daemon: the client
	// observes a transport error after a timeout.
	NetDrop NetKind = iota + 1
	// NetDup delivers a request twice back to back — the classic
	// retransmission race. The duplicate must be harmless (uploads are
	// idempotent per instance).
	NetDup
	// NetStale redelivers the instance's previous request immediately
	// before the current one — an old retransmission surfacing late. The
	// fresh request is delivered last, so last-write-wins must converge.
	NetStale
	// NetDelay holds a request for a fixed extra latency before
	// delivering it.
	NetDelay
	// NetErr5xx answers with a synthesized 503 without delivering — a
	// loaded or misrouting gateway in front of the daemon.
	NetErr5xx
	// NetPartition makes a contiguous range of instances unreachable for
	// a time window.
	NetPartition
)

func (k NetKind) String() string {
	switch k {
	case NetDrop:
		return "drop"
	case NetDup:
		return "dup"
	case NetStale:
		return "stale"
	case NetDelay:
		return "delay"
	case NetErr5xx:
		return "err5xx"
	case NetPartition:
		return "partition"
	}
	return fmt.Sprintf("NetKind(%d)", int(k))
}

// NetFault is one planned network fault.
type NetFault struct {
	Kind NetKind
	// Op restricts a percentage fault to one operation kind ("upload",
	// "fetch"); empty matches every operation. Ignored by NetPartition.
	Op string
	// Pct is the percentage of matching decisions the fault fires on,
	// drawn deterministically from the plan seed. Ignored by NetPartition.
	Pct int
	// Delay is the extra latency of a NetDelay fault.
	Delay time.Duration
	// Prefix, First, Last name the partitioned instance range
	// "<Prefix>-<First>..<Prefix>-<Last>" (inclusive).
	Prefix      string
	First, Last int
	// Start and Dur bound the partition window [Start, Start+Dur).
	Start, Dur time.Duration
}

func (f NetFault) String() string {
	if f.Kind == NetPartition {
		return fmt.Sprintf("partition:%s-%d..%d@t=%s/%s",
			f.Prefix, f.First, f.Last, f.Start, f.Dur)
	}
	s := f.Kind.String()
	if f.Op != "" {
		s += ":" + f.Op
	}
	s += "%" + strconv.Itoa(f.Pct)
	if f.Kind == NetDelay {
		s += "@" + f.Delay.String()
	}
	return s
}

// NetPlan is a complete, replayable network fault plan. A nil *NetPlan
// injects nothing.
type NetPlan struct {
	Seed   int64
	Faults []NetFault
}

// String renders the plan back into ParseNetSpec's grammar.
func (p *NetPlan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{"seed=" + strconv.FormatInt(p.Seed, 10)}
	for _, f := range p.Faults {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, ";")
}

// ParseNetSpec parses a network fault plan from its flag syntax:
//
//	spec      = part *( ";" part )
//	part      = "seed=N" | partition | pct-fault
//	partition = "partition:" prefix "-" lo ".." hi "@t=" start "/" dur
//	pct-fault = kind [ ":" op ] "%" pct [ "@" delay ]
//	kind      = "drop" | "dup" | "stale" | "delay" | "err5xx"
//	op        = "upload" | "fetch"
//
// Durations use Go syntax ("40s", "250ms"). Examples:
//
//	"seed=9;partition:inst-3..7@t=40s/20s;drop:upload%5"
//	"dup:upload%10;delay:fetch%25@250ms;err5xx%2"
func ParseNetSpec(spec string) (*NetPlan, error) {
	seed, faults, err := splitSpec(spec, parseNetFault)
	if err != nil {
		return nil, err
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("faultio: net spec %q plans no faults", spec)
	}
	return &NetPlan{Seed: seed, Faults: faults}, nil
}

func parseNetFault(s string) (NetFault, error) {
	var f NetFault
	if rest, ok := strings.CutPrefix(s, "partition:"); ok {
		return parsePartition(s, rest)
	}
	rest := s
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		d, err := time.ParseDuration(rest[i+1:])
		if err != nil || d < 0 {
			return f, fmt.Errorf("faultio: bad delay in %q", s)
		}
		f.Delay = d
		rest = rest[:i]
	}
	i := strings.IndexByte(rest, '%')
	if i < 0 {
		return f, fmt.Errorf("faultio: net fault %q has no percentage", s)
	}
	pct, err := strconv.Atoi(rest[i+1:])
	if err != nil || pct < 0 || pct > 100 {
		return f, fmt.Errorf("faultio: bad percentage in %q", s)
	}
	f.Pct = pct
	kind, op, _ := strings.Cut(rest[:i], ":")
	switch kind {
	case "drop":
		f.Kind = NetDrop
	case "dup":
		f.Kind = NetDup
	case "stale":
		f.Kind = NetStale
	case "delay":
		f.Kind = NetDelay
	case "err5xx":
		f.Kind = NetErr5xx
	default:
		return f, fmt.Errorf("faultio: unknown net fault kind %q in %q", kind, s)
	}
	switch op {
	case "", "upload", "fetch":
		f.Op = op
	default:
		return f, fmt.Errorf("faultio: unknown operation %q in %q (want upload or fetch)", op, s)
	}
	if f.Kind == NetDelay && f.Delay == 0 {
		return f, fmt.Errorf("faultio: delay fault %q needs @duration", s)
	}
	return f, nil
}

func parsePartition(whole, s string) (NetFault, error) {
	f := NetFault{Kind: NetPartition}
	rangePart, window, ok := strings.Cut(s, "@t=")
	if !ok {
		return f, fmt.Errorf("faultio: partition %q has no @t=start/dur window", whole)
	}
	lo, hi, ok := strings.Cut(rangePart, "..")
	if !ok {
		return f, fmt.Errorf("faultio: partition %q has no lo..hi instance range", whole)
	}
	dash := strings.LastIndexByte(lo, '-')
	if dash <= 0 {
		return f, fmt.Errorf("faultio: partition range %q wants prefix-lo..hi", rangePart)
	}
	f.Prefix = lo[:dash]
	first, err := strconv.Atoi(lo[dash+1:])
	if err != nil || first < 0 {
		return f, fmt.Errorf("faultio: bad partition range start in %q", whole)
	}
	// The upper bound may repeat the prefix ("inst-3..inst-7") or not
	// ("inst-3..7").
	hi = strings.TrimPrefix(hi, f.Prefix+"-")
	last, err := strconv.Atoi(hi)
	if err != nil || last < first {
		return f, fmt.Errorf("faultio: bad partition range end in %q", whole)
	}
	f.First, f.Last = first, last
	start, dur, ok := strings.Cut(window, "/")
	if !ok {
		return f, fmt.Errorf("faultio: partition window %q wants start/dur", window)
	}
	if f.Start, err = time.ParseDuration(start); err != nil || f.Start < 0 {
		return f, fmt.Errorf("faultio: bad partition start in %q", whole)
	}
	if f.Dur, err = time.ParseDuration(dur); err != nil || f.Dur <= 0 {
		return f, fmt.Errorf("faultio: bad partition duration in %q", whole)
	}
	return f, nil
}

// Partitioned reports whether instance is cut off at instant at. Instance
// names follow the "<prefix>-<index>" convention the partition ranges use;
// other names never match.
func (p *NetPlan) Partitioned(instance string, at time.Duration) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind != NetPartition {
			continue
		}
		if at < f.Start || at >= f.Start+f.Dur {
			continue
		}
		idx, ok := strings.CutPrefix(instance, f.Prefix+"-")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(idx)
		if err != nil {
			continue
		}
		if n >= f.First && n <= f.Last {
			return true
		}
	}
	return false
}

// PartitionsClearBy returns the earliest instant at which every partition
// window has healed (zero when the plan has none). Simulations schedule
// their recovery rounds after it.
func (p *NetPlan) PartitionsClearBy() time.Duration {
	if p == nil {
		return 0
	}
	var clear time.Duration
	for _, f := range p.Faults {
		if f.Kind == NetPartition && f.Start+f.Dur > clear {
			clear = f.Start + f.Dur
		}
	}
	return clear
}

// Partitions returns the plan's partition windows.
func (p *NetPlan) Partitions() []NetFault {
	if p == nil {
		return nil
	}
	var out []NetFault
	for _, f := range p.Faults {
		if f.Kind == NetPartition {
			out = append(out, f)
		}
	}
	return out
}

// Draw decides whether a percentage fault of the given kind fires for the
// n-th decision of (instance, op), and returns the matched fault. The draw
// derives from the plan seed and the decision identity alone: a given
// (seed, kind, op, instance, n) always decides the same way, in any run,
// on any host.
func (p *NetPlan) Draw(kind NetKind, op, instance string, n uint64) (NetFault, bool) {
	if p == nil {
		return NetFault{}, false
	}
	for _, f := range p.Faults {
		if f.Kind != kind || f.Pct == 0 {
			continue
		}
		if f.Op != "" && f.Op != op {
			continue
		}
		id := kind.String() + "|" + op + "|" + instance + "|" + strconv.FormatUint(n, 10)
		if derive(p.Seed, id, 0x4e37)%100 < uint64(f.Pct) {
			return f, true
		}
	}
	return NetFault{}, false
}
