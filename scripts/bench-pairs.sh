#!/usr/bin/env bash
# Run one workload of the repository benchmark (BENCHMARK.json) as N
# alternated base/head pairs, and summarize what a timing or memory claim
# needs: for every end-to-end metric the workload measures, each side's
# median and q1–q3 (Python's statistics.quantiles, exclusive method, as the
# benchmark computes them) and in how many pairs head was lower; then
# whether every run's outputs_sha256 agreed. Each side's ./benchmark is
# built once and runs from its own checkout root; base runs first in odd
# pairs, head in even ones. The per-run result lines go to stdout as JSON after the table
# (one {"pair", "side", "summary", "result"} object a line), so a BENCH_*.json
# can be assembled from them.
#
# usage: scripts/bench-pairs.sh <base checkout> <workload> [pairs] [seed]
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 <base checkout> <workload> [pairs] [seed]" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${4:-1}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for side in base head; do
  (cd "${!side}" && go build -o "$out/bench-$side" ./benchmark) \
    || { echo "bench-pairs: $side does not build" >&2; exit 1; }
done
for i in $(seq 1 "$pairs"); do
  order="base head"
  [ $((i % 2)) = 1 ] || order="head base"
  for side in $order; do
    # The last two stdout lines are the run summary and the result.
    (cd "${!side}" && "$out/bench-$side" -workload "$workload" -seed "$seed" 2>/dev/null) | tail -n 2 \
      | jq -c -s --argjson pair "$i" --arg side "$side" '{pair: $pair, side: $side, summary: .[0], result: .[1]}' \
      >>"$out/runs.jsonl" || { echo "bench-pairs: $workload did not run on $side (pair $i)" >&2; exit 1; }
    echo "pair $i/$pairs: $side done" >&2
  done
done

metrics=$(jq -c '[.end_to_end[].name]' "$head/BENCHMARK.json")
echo "== $workload, $pairs alternated pairs, seed $seed (base: $base)"
jq -r -s --argjson names "$metrics" '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  def quartiles: sort as $d | ($d | length) as $n | [1, 3] | map(
      (. * ($n + 1) / 4 | floor) as $j0 | ([([$j0, 1] | max), $n - 1] | min) as $j
      | (. * ($n + 1) - $j * 4) as $delta
      | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4);
  def r: . * 1000 | round / 1000;
  def vals($side; $m): map(select(.side == $side) | .result.metrics[$m].value);
  . as $runs
  | ($names[] | select(($runs[0].result.metrics[.].value) as $v | $v <= 1 or $v >= 1.001)) as $m
  | ($runs | vals("base"; $m)) as $b | ($runs | vals("head"; $m)) as $h
  | ([range($b | length) | select($h[.] < $b[.])] | length) as $lower
  | "  \($m) (\($runs[0].result.metrics[$m].unit)): base median \($b | median | r) q1-q3 \($b | quartiles | map(r) | join("-"))"
    + "  head median \($h | median | r) q1-q3 \($h | quartiles | map(r) | join("-"))"
    + "  head lower in \($lower)/\($b | length)"
' "$out/runs.jsonl"
jq -r -s '
  "  outputs_sha256: \(if (map(.summary.outputs_sha256) | unique | length) == 1 then "same in every run" else "DIFFER" end)"
  + "   failed: base \(map(select(.side == "base") | .result.failed) | add), head \(map(select(.side == "head") | .result.failed) | add)"
' "$out/runs.jsonl"
cat "$out/runs.jsonl"
