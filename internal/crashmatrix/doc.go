// Package crashmatrix hosts the crash-matrix corruption sweep: a
// table-driven test that truncates every artifact kind of a profiling run
// (site table, id streams, snapshot images) at byte offsets spanning the
// header, mid-frame, frame-boundary and trailer classes, and asserts the
// pipeline always ends in exactly one of full recovery,
// salvage-with-report, or a typed refusal — never a panic. It is a
// test-only package; the sweep lives in crashmatrix_test.go, and
// torn_test.go checks that a run torn by live faults still salvages.
package crashmatrix
