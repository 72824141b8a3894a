package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"polm2/internal/core"
	"polm2/internal/metrics"
	"polm2/internal/snapshot"
)

// paperTable1 holds the paper's Table 1 values as "POLM2/NG2C" strings.
var paperTable1 = map[string][3]string{
	"Cassandra-WI": {"11/11", "4/N", "2/2"},
	"Cassandra-WR": {"11/11", "4/N", "2/2"},
	"Cassandra-RI": {"10/11", "4/N", "3/2"},
	"Lucene":       {"2/8", "2/2", "2/0"},
	"GraphChi-CC":  {"9/9", "2/2", "1/0"},
	"GraphChi-PR":  {"9/9", "2/2", "1/0"},
}

// Table1 reproduces the paper's Table 1: application profiling metrics for
// POLM2 against the expert's manual NG2C annotations.
func (s *Session) Table1(w io.Writer) error {
	fmt.Fprintln(w, "=== Table 1: Application Profiling Metrics (POLM2/NG2C, paper value in parens) ===")
	fmt.Fprintf(w, "%-14s %-28s %-24s %-24s\n",
		"Workload", "#Instrumented Alloc Sites", "#Used Generations", "#Conflicts Encountered")
	targets := Targets()
	profs, err := fetchAll(s, len(targets), func(i int) (*core.ProfileResult, error) { return s.Profile(targets[i]) })
	if err != nil {
		return err
	}
	for i, t := range targets {
		res := profs[i]
		manual, err := t.App.ManualProfile(t.Workload)
		if err != nil {
			return err
		}
		paper := paperTable1[t.Key()]
		fmt.Fprintf(w, "%-14s %-28s %-24s %-24s\n",
			t.Key(),
			fmt.Sprintf("%d/%d (%s)", res.Profile.InstrumentedSites(), manual.InstrumentedSites(), paper[0]),
			fmt.Sprintf("%d/%d (%s)", res.Profile.UsedGenerations(), manual.UsedGenerations(), paper[1]),
			fmt.Sprintf("%d/%d (%s)", res.Profile.Conflicts, manual.Conflicts, paper[2]))
	}
	return nil
}

// snapshotPairs aligns the first n CRIU snapshots of a profiling run with
// their jmap baselines.
func snapshotPairs(res *core.ProfileResult, n int) [][2]*snapshot.Snapshot {
	var out [][2]*snapshot.Snapshot
	for i := range min(n, len(res.Snapshots)) {
		out = append(out, [2]*snapshot.Snapshot{res.Snapshots[i], res.JmapSnapshots[i]})
	}
	return out
}

// figure34 prints one of the snapshot-comparison figures.
func (s *Session) figure34(w io.Writer, title, unit string, metric func(*snapshot.Snapshot) float64, paperNote string) error {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, paperNote)
	fmt.Fprintf(w, "%-14s %-10s %-14s %-14s %-10s\n", "Workload", "Snapshots", "Dumper(avg)", "jmap(avg)", "Ratio")
	targets := Targets()
	profs, err := fetchAll(s, len(targets), func(i int) (*core.ProfileResult, error) { return s.Profile(targets[i]) })
	if err != nil {
		return err
	}
	for i, t := range targets {
		pairs := snapshotPairs(profs[i], 20)
		if len(pairs) == 0 {
			fmt.Fprintf(w, "%-14s no snapshots\n", t.Key())
			continue
		}
		var criuSum, jmapSum, ratioSum float64
		for _, pair := range pairs {
			c, j := metric(pair[0]), metric(pair[1])
			criuSum += c
			jmapSum += j
			if j > 0 {
				ratioSum += c / j
			}
		}
		n := float64(len(pairs))
		fmt.Fprintf(w, "%-14s %-10d %-14.2f %-14.2f %-10.3f\n",
			t.Key(), len(pairs), criuSum/n, jmapSum/n, ratioSum/n)
	}
	fmt.Fprintf(w, "(values in %s; ratio = Dumper/jmap averaged over the first 20 snapshots)\n", unit)
	return nil
}

// Figure3 reproduces the snapshot-time comparison: Dumper vs jmap,
// normalized to jmap, first 20 snapshots of each workload.
func (s *Session) Figure3(w io.Writer) error {
	return s.figure34(w,
		"=== Figure 3: Memory Snapshot Time, Dumper normalized to jmap ===",
		"ms",
		func(sn *snapshot.Snapshot) float64 { return float64(sn.Duration) / float64(time.Millisecond) },
		"(paper: Dumper reduces snapshot time by more than 90% on all workloads)")
}

// Figure4 reproduces the snapshot-size comparison.
func (s *Session) Figure4(w io.Writer) error {
	return s.figure34(w,
		"=== Figure 4: Memory Snapshot Size, Dumper normalized to jmap ===",
		"MB",
		func(sn *snapshot.Snapshot) float64 { return float64(sn.SizeBytes) / (1 << 20) },
		"(paper: Dumper reduces snapshot size by approximately 60% on all workloads)")
}

// paperWorstReduction holds the paper's reported worst-pause reductions of
// POLM2 vs G1 (§5.4.1).
var paperWorstReduction = map[string]int{
	"Cassandra-WI": 55, "Cassandra-WR": 67, "Cassandra-RI": 78,
	"Lucene": 58, "GraphChi-CC": 78, "GraphChi-PR": 80,
}

// Figure5 reproduces the pause-time percentile figure: percentiles 50 to
// 99.999 plus the worst observable pause, per workload, for G1, manual NG2C
// and POLM2.
func (s *Session) Figure5(w io.Writer) error {
	fmt.Fprintln(w, "=== Figure 5: Pause Time Percentiles (ms) ===")
	targets := Targets()
	runs, err := s.runsOf(targets, pauseSetups)
	if err != nil {
		return err
	}
	for i, t := range targets {
		fmt.Fprintf(w, "--- %s ---\n", t.Key())
		fmt.Fprintf(w, "%-8s", "")
		for _, p := range metrics.PaperPercentiles {
			fmt.Fprintf(w, "%10v", p)
		}
		fmt.Fprintf(w, "%10s\n", "worst")
		var g1Worst, polm2Worst time.Duration
		for j, su := range pauseSetups(t) {
			res := runs[i][j]
			fmt.Fprintf(w, "%-8s", su.label)
			for _, p := range metrics.PaperPercentiles {
				fmt.Fprintf(w, "%10s", fmtMS(res.WarmPauses.Percentile(p)))
			}
			fmt.Fprintf(w, "%10s\n", fmtMS(res.WarmPauses.Max()))
			switch su.label {
			case "G1":
				g1Worst = res.WarmPauses.Max()
			case "POLM2":
				polm2Worst = res.WarmPauses.Max()
			}
		}
		if g1Worst > 0 {
			reduction := 100 * (1 - float64(polm2Worst)/float64(g1Worst))
			fmt.Fprintf(w, "worst-pause reduction POLM2 vs G1: %.0f%% (paper: %d%%)\n",
				reduction, paperWorstReduction[t.Key()])
		}
	}
	return nil
}

// figure6Edges are the pause-duration intervals of Figure 6.
var figure6Edges = []time.Duration{
	16 * time.Millisecond,
	32 * time.Millisecond,
	64 * time.Millisecond,
	128 * time.Millisecond,
	256 * time.Millisecond,
	512 * time.Millisecond,
	1024 * time.Millisecond,
	2048 * time.Millisecond,
}

// Figure6 reproduces the pause-count-per-duration-interval figure.
func (s *Session) Figure6(w io.Writer) error {
	fmt.Fprintln(w, "=== Figure 6: Number of Application Pauses per Duration Interval ===")
	fmt.Fprintln(w, "(paper: POLM2 and NG2C shift pause counts toward shorter intervals on every workload)")
	targets := Targets()
	runs, err := s.runsOf(targets, pauseSetups)
	if err != nil {
		return err
	}
	for i, t := range targets {
		fmt.Fprintf(w, "--- %s ---\n", t.Key())
		fmt.Fprintf(w, "%-8s", "")
		for b := 0; b <= len(figure6Edges); b++ {
			fmt.Fprintf(w, "%16s", figure6Label(b))
		}
		fmt.Fprintln(w)
		for j, su := range pauseSetups(t) {
			counts := make([]int, len(figure6Edges)+1)
			for _, d := range runs[i][j].WarmPauses.Values() {
				counts[figure6Bucket(d)]++
			}
			fmt.Fprintf(w, "%-8s", su.label)
			for _, c := range counts {
				fmt.Fprintf(w, "%16d", c)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// figure6Bucket returns the interval of Figure 6 that holds pause d: bucket
// b > 0 is the half-open [figure6Edges[b-1], figure6Edges[b]), bucket 0 is
// below the first edge and the last one at or above the last edge.
func figure6Bucket(d time.Duration) int {
	return sort.Search(len(figure6Edges), func(i int) bool { return d < figure6Edges[i] })
}

// figure6Label renders bucket b, e.g. "[64ms,128ms)".
func figure6Label(b int) string {
	switch {
	case b == 0:
		return fmt.Sprintf("[0,%v)", figure6Edges[0])
	case b < len(figure6Edges):
		return fmt.Sprintf("[%v,%v)", figure6Edges[b-1], figure6Edges[b])
	default:
		return fmt.Sprintf("[%v,+inf)", figure6Edges[len(figure6Edges)-1])
	}
}

// paperFig7 holds the paper's throughput-vs-G1 percentages for POLM2.
var paperFig7 = map[string]string{
	"Cassandra-WI": "+1%", "Cassandra-WR": "+11%", "Cassandra-RI": "+18%",
	"Lucene": "-1%", "GraphChi-CC": "-4%", "GraphChi-PR": "-5%",
}

// Figure7 reproduces the throughput figure, normalized to G1. C4 is added
// for the Cassandra workloads, as in the paper.
func (s *Session) Figure7(w io.Writer) error {
	fmt.Fprintln(w, "=== Figure 7: Application Throughput normalized to G1 ===")
	fmt.Fprintf(w, "%-14s %-10s %-10s %-10s %-10s %-18s\n",
		"Workload", "G1", "NG2C", "POLM2", "C4", "paper POLM2 vs G1")
	targets := Targets()
	runs, err := s.runsOf(targets, withC4)
	if err != nil {
		return err
	}
	for i, t := range targets {
		g1, manual, polm2 := runs[i][0], runs[i][1], runs[i][2]
		c4Cell := "-"
		if len(runs[i]) > 3 {
			c4Cell = fmt.Sprintf("%.3f", float64(runs[i][3].WarmOps)/float64(g1.WarmOps))
		}
		fmt.Fprintf(w, "%-14s %-10s %-10.3f %-10.3f %-10s %-18s\n",
			t.Key(), "1.000",
			float64(manual.WarmOps)/float64(g1.WarmOps),
			float64(polm2.WarmOps)/float64(g1.WarmOps),
			c4Cell, paperFig7[t.Key()])
	}
	return nil
}

// Figure8 reproduces the Cassandra throughput time series: a 10-minute
// sample of transactions per second for each collector. The harness prints
// 30-second aggregates; one simulated operation stands for core.OpScale
// real transactions, so the reported rate is comparable to the paper's.
func (s *Session) Figure8(w io.Writer) error {
	fmt.Fprintln(w, "=== Figure 8: Cassandra Throughput (transactions/second), 10-minute sample ===")
	scale := s.cfg.Scale
	if scale == 0 {
		scale = core.DefaultScale
	}
	var targets []Target
	for _, t := range Targets() {
		if t.App.Name() == "Cassandra" {
			targets = append(targets, t)
		}
	}
	runs, err := s.runsOf(targets, withC4)
	if err != nil {
		return err
	}
	const window, bucket = 10 * time.Minute, 30 * time.Second
	secsPerBucket := int(bucket / time.Second)
	for i, t := range targets {
		fmt.Fprintf(w, "--- %s (30s buckets, tx/s) ---\n", t.Key())
		rows := make([][]int64, len(runs[i]))
		for j, res := range runs[i] {
			perSec := res.Ops.Slice(res.Warmup, min(res.Warmup+window, res.SimDuration))
			for b := 0; b+secsPerBucket <= len(perSec); b += secsPerBucket {
				var sum int64
				for _, n := range perSec[b : b+secsPerBucket] {
					sum += n
				}
				rows[j] = append(rows[j], sum*int64(scale)/int64(secsPerBucket))
			}
		}
		fmt.Fprintf(w, "%-8s", "t(s)")
		for b := range rows[0] {
			fmt.Fprintf(w, "%7d", (b+1)*30)
		}
		fmt.Fprintln(w)
		for j, su := range withC4(t) {
			fmt.Fprintf(w, "%-8s", su.label)
			for _, v := range rows[j] {
				fmt.Fprintf(w, "%7d", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "(paper: G1, NG2C and POLM2 sustain similar rates; C4 is the slowest)")
	return nil
}

// Figure9 reproduces the max-memory figure, normalized to G1. C4 is shown
// for Cassandra with its pre-reserved footprint, as discussed in the paper.
func (s *Session) Figure9(w io.Writer) error {
	fmt.Fprintln(w, "=== Figure 9: Application Max Memory Usage normalized to G1 ===")
	fmt.Fprintf(w, "%-14s %-10s %-10s %-10s %-14s\n", "Workload", "G1", "NG2C", "POLM2", "C4(reserved)")
	targets := Targets()
	runs, err := s.runsOf(targets, withC4)
	if err != nil {
		return err
	}
	for i, t := range targets {
		g1, manual, polm2 := runs[i][0], runs[i][1], runs[i][2]
		c4Cell := "-"
		if len(runs[i]) > 3 {
			c4Cell = fmt.Sprintf("%.2f", float64(runs[i][3].MaxMemoryBytes)/float64(g1.MaxMemoryBytes))
		}
		fmt.Fprintf(w, "%-14s %-10s %-10.3f %-10.3f %-14s\n",
			t.Key(), "1.000",
			float64(manual.MaxMemoryBytes)/float64(g1.MaxMemoryBytes),
			float64(polm2.MaxMemoryBytes)/float64(g1.MaxMemoryBytes),
			c4Cell)
	}
	fmt.Fprintln(w, "(paper: G1, NG2C and POLM2 use similar memory; C4 pre-reserves all available memory)")
	return nil
}
