#!/usr/bin/env bash
# Run the repository benchmark (go run ./benchmark, BENCHMARK.json) on a base
# checkout and on this one, one run per workload at a fixed seed, and fail
# when a number that repeats exactly got worse: the exact end-to-end metrics
# (sync_idle_bytes, artifact_mb, paper_err_pp — all lower-is-better), the
# failed-operation count, or the output check — or when a workload's
# outputs_sha256 differs from the base's ("outputs: differ"). The outputs are
# seeded and deterministic, so a PR that means to change them changes them
# visibly: the job fails, and the review decides. Everything else — timings
# and memory, which move by a quarter between hours on a shared runner
# (benchmark/README.md, Noise) — is printed for reviewers and never judged.
# A claimed gain still needs alternated pairs and quartiles; this only keeps
# a regression nobody looked for from landing.
#
# usage: scripts/bench-compare.sh <base checkout> [seed]     (CI job bench-compare)
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <base checkout> [seed]" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
seed=${2:-1}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

exact="sync_idle_bytes artifact_mb paper_err_pp"
rc=0
for w in paper-quick profile-pipeline fleet-steady replica-sync fleet-sim; do
  for side in base head; do
    # The last two stdout lines are the run summary and the result.
    (cd "${!side}" && go run ./benchmark -workload "$w" -seed "$seed") | tail -n 2 >"$out/$side-$w.jsonl" \
      || { echo "bench-compare: FAIL: $w did not run on $side" >&2; exit 1; }
  done
  # Four values: base summary, base result, head summary, head result.
  pair=$(jq -s '{bs: .[0], b: .[1], hs: .[2], h: .[3]}' "$out/base-$w.jsonl" "$out/head-$w.jsonl")
  echo "== $w (seed $seed)"
  # A name the workload does not measure reads a placeholder just above 1.
  jq -r '(.h.metrics | keys[]) as $m | select(.h.metrics[$m].value | . <= 1 or . >= 1.001)
    | "  \($m): \(.b.metrics[$m].value) -> \(.h.metrics[$m].value) \(.h.metrics[$m].unit)"' <<<"$pair"
  jq -r '(.hs.unbounded | keys[]) as $m | "  \($m): \(.bs.unbounded[$m]) -> \(.hs.unbounded[$m])"' <<<"$pair"
  jq -r '"  failed: \(.b.failed)/\(.b.attempted) -> \(.h.failed)/\(.h.attempted)   outputs: \(if .bs.outputs_sha256 == .hs.outputs_sha256 then "same" else "differ" end)"' <<<"$pair"
  for m in $exact; do
    jq -e --arg m "$m" '.h.metrics[$m].value <= .b.metrics[$m].value' <<<"$pair" >/dev/null \
      || { echo "bench-compare: FAIL: $w: exact metric $m got worse" >&2; rc=1; }
  done
  jq -e '.h.correct and (.h.failed * .b.attempted <= .b.failed * .h.attempted)' <<<"$pair" >/dev/null \
    || { echo "bench-compare: FAIL: $w: output check failed or a larger share of operations failed" >&2; rc=1; }
  jq -e '.bs.outputs_sha256 == .hs.outputs_sha256' <<<"$pair" >/dev/null \
    || { echo "bench-compare: FAIL: $w: outputs differ from the base (outputs_sha256)" >&2; rc=1; }
done
[ "$rc" = 0 ] && echo "bench-compare: PASS"
exit "$rc"
