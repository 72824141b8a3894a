// Package jvm provides the execution engine that stands in for the HotSpot
// JVM in this reproduction of POLM2.
//
// Workloads are written against a Thread API mirroring Java execution:
// methods are entered and left, calls and allocations happen at (class,
// method, line) code locations, and every allocation carries the full stack
// trace of its allocation site. The engine exposes the two integration
// points POLM2 needs:
//
//   - an allocation hook, used by the Recorder (§3.2) to log (stack trace,
//     object id) pairs as the paper's Java agent logs (stack trace,
//     identity hash) pairs with ASM callbacks;
//   - an instrumentation plan, consulted at every call and allocation site,
//     which is observationally equivalent to the paper's load-time bytecode
//     rewriting (§3.4): a SetGeneration directive at a call site switches
//     the thread's target generation around the call, and a @Gen annotation
//     at an allocation site pretenures the allocated object into the
//     thread's current target generation.
//
// DESIGN.md documents this substitution (plan-at-execution vs. rewritten
// bytecode); everything observable to the profiler and the collector is the
// same.
package jvm

import (
	"fmt"
	"strconv"
	"strings"
)

// CodeLoc identifies one code location: a line within a method. It is the
// (class, method, line) triple of the paper's STTree nodes (§3.3 uses a
// 4-tuple whose fourth element, the target generation, is computed by the
// Analyzer).
type CodeLoc struct {
	Class  string
	Method string
	Line   int
}

// String renders the location as Class.Method:Line.
func (l CodeLoc) String() string {
	var sb strings.Builder
	sb.Grow(len(l.Class) + len(l.Method) + 8)
	sb.WriteString(l.Class)
	sb.WriteByte('.')
	sb.WriteString(l.Method)
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(l.Line))
	return sb.String()
}

// ParseCodeLoc parses the Class.Method:Line form produced by String.
// Class names may themselves contain dots (packages); the method is the
// segment after the last dot before the colon.
func ParseCodeLoc(s string) (CodeLoc, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return CodeLoc{}, fmt.Errorf("jvm: code location %q missing line number", s)
	}
	line, err := strconv.Atoi(s[colon+1:])
	if err != nil {
		return CodeLoc{}, fmt.Errorf("jvm: code location %q has invalid line: %w", s, err)
	}
	dot := strings.LastIndexByte(s[:colon], '.')
	if dot < 0 {
		return CodeLoc{}, fmt.Errorf("jvm: code location %q missing method", s)
	}
	return CodeLoc{Class: s[:dot], Method: s[dot+1 : colon], Line: line}, nil
}

// StackTrace is an allocation stack trace: outermost frame first, the
// allocation site's own location last. Each element is the code location
// *within* that frame where the next call (or, for the last element, the
// allocation) happens.
type StackTrace []CodeLoc

// String renders the trace as frame;frame;...;frame.
func (st StackTrace) String() string {
	parts := make([]string, len(st))
	for i, l := range st {
		parts[i] = l.String()
	}
	return strings.Join(parts, ";")
}

// ParseStackTrace parses the frame;frame;...;frame form produced by
// String. It rejects empty traces: the engine never produces one, so an
// empty serialized trace is corrupt input, not a value.
func ParseStackTrace(s string) (StackTrace, error) {
	if s == "" {
		return nil, fmt.Errorf("jvm: empty stack trace")
	}
	// The trace slice is the parse's one allocation: each frame's class
	// and method are substrings of s.
	st := make(StackTrace, strings.Count(s, ";")+1)
	for i := range st {
		frame, rest, _ := strings.Cut(s, ";")
		loc, err := ParseCodeLoc(frame)
		if err != nil {
			return nil, fmt.Errorf("jvm: stack trace frame %d: %w", i, err)
		}
		st[i], s = loc, rest
	}
	return st, nil
}

// Leaf returns the allocation site's own code location. It panics on an
// empty trace, which cannot be produced by the engine.
func (st StackTrace) Leaf() CodeLoc {
	if len(st) == 0 {
		panic("jvm: Leaf of empty stack trace")
	}
	return st[len(st)-1]
}

// Clone returns an independent copy of the trace.
func (st StackTrace) Clone() StackTrace {
	out := make(StackTrace, len(st))
	copy(out, st)
	return out
}
