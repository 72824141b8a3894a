#!/usr/bin/env bash
# End-to-end smoke test for the polm2d plan-distribution daemon, run as a
# real OS process over real TCP (CI job polm2d-smoke; fine to run locally).
#
# Scenario: start the daemon on a random port, confirm there is no plan,
# upload profiling evidence from two simulated fleet instances, check the
# store's plan (polm2-inspect plan: the merge of the stored evidence)
# carries the merged evidence, that the served plan is that plan without
# its per-site evidence under the plan's SHA-256 as a stable ETag (304 on a
# conditional re-fetch), and that /metricsz accounts
# for every upload
# (merges + coalesced, no rejects or store errors), then shut down
# cleanly with SIGTERM. A second
# phase restarts against a fresh store with -rollout: the first merged
# plan is adopted as stable (rollout_state 0), a plan-health report lands
# on POST /v1/feedback, and fresh evidence opens a canary (rollout_state 1).
# A third phase boots a replicated pair with -peer pointed at each other:
# each daemon gets one instance's evidence, anti-entropy must carry the
# missing document both ways, and both daemons must publish the same
# merged plan and advertise the same key sums on GET /v1/sync — proven
# again offline by polm2-inspect sync over the two stores. A fourth phase
# stores an offline seed with polm2-profile -store: the store holds it as
# the key's __seed__ evidence, a daemon serves its plan under the SHA-256
# of polm2-inspect plan's bytes, and a daemon refuses a store holding a
# *.profile.json. No phase may leave a plan file in its store.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "polm2d-smoke: FAIL: $*" >&2; [ -f "${log:-}" ] && cat "$log" >&2; exit 1; }

go build -o /tmp/polm2d-smoke-bin ./cmd/polm2d
go build -o /tmp/polm2-inspect-smoke-bin ./cmd/polm2-inspect
go build -o /tmp/polm2-profile-smoke-bin ./cmd/polm2-profile

# await_merged URL STORE polls until the daemon at URL publishes the merge
# of both smoke instances' evidence. The evidence lives in STORE's plan,
# which polm2-inspect plan prints: the shared site summed (each instance
# counted exactly once, replays included) and both instance-unique sites
# kept. The daemon serves that plan without "sites", under the plan's
# SHA-256 as the ETag. The daemon merges asynchronously behind the uploads
# (coalescing pipeline), so a first fetch may predate the merge. Leaves the
# response in /tmp/polm2d-smoke-headers.txt and /tmp/polm2d-smoke-plan.json,
# and the stored plan in /tmp/polm2d-smoke-stored.json.
await_merged() {
  local shared= nsites= etag= plantag= pf=/tmp/polm2d-smoke-stored.json
  for _ in $(seq 150); do
    curl -s -D /tmp/polm2d-smoke-headers.txt -o /tmp/polm2d-smoke-plan.json \
      "$1/v1/plan?app=Cassandra&workload=WI"
    etag=$(tr -d '\r' </tmp/polm2d-smoke-headers.txt | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')
    if /tmp/polm2-inspect-smoke-bin plan "$2" Cassandra/WI >"$pf" 2>/dev/null; then
      shared=$(jq '[.sites[]? | select(.trace=="S.serve:1;Memtable.put:10") | .allocated] | add' "$pf")
      nsites=$(jq '.sites | length' "$pf")
      plantag="\"$(sha256sum "$pf" | cut -d' ' -f1)\""
    fi
    [ "$shared" = "150" ] && [ "$nsites" = "3" ] && [ "$etag" = "$plantag" ] && break
    sleep 0.1
  done
  [ "$shared" = "150" ] || fail "$1: stored plan's shared site evidence $shared, want 100+50=150"
  [ "$nsites" = "3" ] || fail "$1: stored plan has $nsites sites, want 3"
  [ -n "$etag" ] || fail "$1: plan response carried no ETag"
  [ "$etag" = "$plantag" ] || fail "$1: served ETag $etag is not the stored plan's SHA-256 $plantag"
  [ "$(jq 'has("sites")' /tmp/polm2d-smoke-plan.json)" = "false" ] \
    || fail "$1: served plan carries per-site evidence"
  [ "$(jq -c 'del(.sites)' "$pf")" = "$(jq -c . /tmp/polm2d-smoke-plan.json)" ] \
    || fail "$1: served plan is not the stored plan without its sites: $(cat /tmp/polm2d-smoke-plan.json)"
}

# no_plan_files STORE fails if STORE holds a plan file: a key's plan is the
# merge of its evidence, never a stored copy.
no_plan_files() {
  local pf
  pf=$(compgen -G "$1/*.profile.json" || true)
  [ -z "$pf" ] || fail "plan files in $1: $pf"
}

store=$(mktemp -d)
log=$(mktemp)
/tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$store" >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

url=
for _ in $(seq 100); do
  url=$(sed -n 's|^polm2d: serving on \(http://[^ ]*\).*|\1|p' "$log")
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || fail "daemon never printed its listen address"
echo "daemon up at $url (store $store)"

[ "$(curl -s "$url/healthz")" = "ok" ] || fail "healthz did not answer ok"

code=$(curl -s -o /dev/null -w '%{http_code}' "$url/v1/plan?app=Cassandra&workload=WI")
[ "$code" = "404" ] || fail "expected 404 before any evidence, got $code"

# Evidence documents from two instances of the same workload: one shared
# allocation site with different counts, one site unique to each instance.
evidence1='{"app":"Cassandra","workload":"WI","generations":0,"allocs":[],"calls":[],"conflicts":0,
  "sites":[{"trace":"S.serve:1;Memtable.put:10","allocated":100,"buckets":[10,90],"gen":0},
           {"trace":"S.serve:1;Cell.make:4","allocated":40,"buckets":[40],"gen":0}]}'
evidence2='{"app":"Cassandra","workload":"WI","generations":0,"allocs":[],"calls":[],"conflicts":0,
  "sites":[{"trace":"S.serve:1;Memtable.put:10","allocated":50,"buckets":[5,45],"gen":0},
           {"trace":"S.serve:1;Index.flush:9","allocated":30,"buckets":[30],"gen":0}]}'

i=0
for ev in "$evidence1" "$evidence2"; do
  i=$((i + 1))
  code=$(curl -s -o /tmp/polm2d-smoke-merge.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -H "X-Polm2-Instance: smoke-$i" \
    -d "$ev" "$url/v1/evidence")
  [ "$code" = "200" ] || fail "evidence upload status $code: $(cat /tmp/polm2d-smoke-merge.json)"
done

# A replayed upload (same instance id, same body — what a client retry
# after a lost response sends) replaces instance 2's evidence instead of
# double-counting it.
code=$(curl -s -o /tmp/polm2d-smoke-merge.json -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-2' \
  -d "$evidence2" "$url/v1/evidence")
[ "$code" = "200" ] || fail "replayed upload status $code: $(cat /tmp/polm2d-smoke-merge.json)"

# The merged plan counts each instance exactly once despite the replay.
await_merged "$url" "$store"
etag=$(tr -d '\r' </tmp/polm2d-smoke-headers.txt | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H "If-None-Match: $etag" "$url/v1/plan?app=Cassandra&workload=WI")
[ "$code" = "304" ] || fail "conditional re-fetch status $code, want 304"

# The daemon's counters account for every accepted upload: each one is
# covered by a merge or coalesced into one (evidence_upload_total ==
# evidence_merge_total + evidence_coalesced_total), with nothing rejected
# and no store errors. The replayed upload may still be merging behind
# the converged plan, so poll until the counters settle.
metric() { sed -n "s/^$1 //p" /tmp/polm2d-smoke-metrics.txt; }
uploads= covered=
for _ in $(seq 100); do
  curl -s -o /tmp/polm2d-smoke-metrics.txt "$url/metricsz"
  uploads=$(metric evidence_upload_total)
  covered=$(( $(metric evidence_merge_total) + $(metric evidence_coalesced_total) ))
  [ "$uploads" = "3" ] && [ "$covered" = "3" ] && break
  sleep 0.1
done
[ "$uploads" = "3" ] || fail "evidence_upload_total $uploads, want 3"
[ "$covered" = "$uploads" ] || fail "merges + coalesced = $covered, want $uploads uploads"
[ "$(metric evidence_reject_total)" = "0" ] || fail "daemon rejected an upload: $(cat /tmp/polm2d-smoke-metrics.txt)"
[ "$(metric store_error_total)" = "0" ] || fail "daemon reported store errors: $(cat /tmp/polm2d-smoke-metrics.txt)"

# An upload without an instance id is rejected: the daemon cannot know
# whose evidence to replace.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -d "$evidence2" "$url/v1/evidence")
[ "$code" = "400" ] || fail "anonymous upload status $code, want 400"

# Internally inconsistent evidence (buckets exceed the allocation total)
# must be rejected and must not disturb the stored plan.
bad='{"app":"Cassandra","workload":"WI","generations":0,"allocs":[],"calls":[],"conflicts":0,
  "sites":[{"trace":"S.serve:1;Memtable.put:10","allocated":1,"buckets":[2],"gen":0}]}'
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-1' \
  -d "$bad" "$url/v1/evidence")
[ "$code" = "400" ] || fail "inconsistent evidence status $code, want 400"
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H "If-None-Match: $etag" "$url/v1/plan?app=Cassandra&workload=WI")
[ "$code" = "304" ] || fail "rejected upload moved the plan version"

kill -TERM "$pid"
wait "$pid" || fail "daemon exited non-zero after SIGTERM"
grep -q 'shutdown complete' "$log" || fail "daemon did not report a clean shutdown"
no_plan_files "$store"

# --- canary rollout phase: fresh store, daemon restarted with -rollout ---
store=$(mktemp -d)
log=$(mktemp)
/tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$store" -rollout >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

url=
for _ in $(seq 100); do
  url=$(sed -n 's|^polm2d: serving on \(http://[^ ]*\).*|\1|p' "$log")
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || fail "rollout daemon never printed its listen address"
grep -q 'canary rollout on' "$log" || fail "daemon did not announce the rollout controller"
echo "rollout daemon up at $url (store $store)"

# First merge on a fresh store is adopted as stable, no canary: the
# labeled state gauge must publish 0 (stable).
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-1' \
  -d "$evidence1" "$url/v1/evidence")
[ "$code" = "200" ] || fail "rollout-phase upload status $code"
etag=
for _ in $(seq 100); do
  curl -s -D /tmp/polm2d-smoke-headers.txt -o /dev/null \
    "$url/v1/plan?app=Cassandra&workload=WI"
  etag=$(tr -d '\r' </tmp/polm2d-smoke-headers.txt | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')
  [ -n "$etag" ] && break
  sleep 0.1
done
[ -n "$etag" ] || fail "rollout daemon never published the adopted plan"
curl -s "$url/metricsz" | grep -q 'rollout_state{app="Cassandra",workload="WI"} 0' \
  || fail "adopted plan did not publish rollout_state 0 (stable)"

# One plan-health report for a window run under the adopted version; the
# daemon must accept it (204) and count it.
feedback=$(jq -cn --arg etag "$etag" '{app:"Cassandra",workload:"WI",etag:$etag,
  window_start_ns:0,window_end_ns:60000000000,pauses:8,
  pause_p50_ns:6000000,pause_p99_ns:15000000,promotion_rate:0.2,survivor_rate:0.8}')
code=$(curl -s -o /tmp/polm2d-smoke-feedback.txt -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-1' \
  -d "$feedback" "$url/v1/feedback")
[ "$code" = "204" ] || fail "feedback status $code: $(cat /tmp/polm2d-smoke-feedback.txt)"
curl -s "$url/metricsz" | grep -q '^feedback_reports_total 1' \
  || fail "feedback was not counted in /metricsz"

# Fresh evidence from a second instance changes the merged plan: the new
# version must open a canary (state 1), not install fleet-wide.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-2' \
  -d "$evidence2" "$url/v1/evidence")
[ "$code" = "200" ] || fail "canary-opening upload status $code"
state=
for _ in $(seq 100); do
  state=$(curl -s "$url/metricsz" | sed -n 's/^rollout_state{app="Cassandra",workload="WI"} //p')
  [ "$state" = "1" ] && break
  sleep 0.1
done
[ "$state" = "1" ] || fail "new merged plan did not open a canary (rollout_state=$state, want 1)"
curl -s "$url/metricsz" | grep -q '^rollout_canary_total 1' \
  || fail "canary was not counted in /metricsz"

kill -TERM "$pid"
wait "$pid" || fail "rollout daemon exited non-zero after SIGTERM"
grep -q 'shutdown complete' "$log" || fail "rollout daemon did not report a clean shutdown"
no_plan_files "$store"

# --- replication phase: a pair of daemons pulling each other by anti-entropy ---
storeA=$(mktemp -d); storeB=$(mktemp -d)
logA=$(mktemp); logB=$(mktemp)

await_url() { # logfile -> base URL
  local u=
  for _ in $(seq 100); do
    u=$(sed -n 's|^polm2d: serving on \(http://[^ ]*\).*|\1|p' "$1")
    [ -n "$u" ] && break
    sleep 0.1
  done
  echo "$u"
}

# The pair needs each other's address before either exists: boot A plain
# just to claim a port, then restart it on that fixed port once B (pointed
# at it) is up.
/tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$storeA" >"$logA" 2>&1 &
pidA=$!
trap 'kill "$pidA" 2>/dev/null || true' EXIT
urlA=$(await_url "$logA")
[ -n "$urlA" ] || { log=$logA; fail "daemon A never printed its listen address"; }
addrA=${urlA#http://}
kill -TERM "$pidA"; wait "$pidA" || { log=$logA; fail "daemon A exited non-zero on port probe"; }

/tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$storeB" -id smoke-b \
  -peer "$urlA" -sync-interval 200ms >"$logB" 2>&1 &
pidB=$!
trap 'kill "$pidB" 2>/dev/null || true' EXIT
urlB=$(await_url "$logB")
[ -n "$urlB" ] || { log=$logB; fail "daemon B never printed its listen address"; }

/tmp/polm2d-smoke-bin -addr "$addrA" -store "$storeA" -id smoke-a \
  -peer "$urlB" -sync-interval 200ms >"$logA" 2>&1 &
pidA=$!
trap 'kill "$pidA" "$pidB" 2>/dev/null || true' EXIT
urlA=$(await_url "$logA")
[ -n "$urlA" ] || { log=$logA; fail "daemon A never printed its address after restart"; }
grep -q 'replicating with 1 peer(s) as smoke-a' "$logA" \
  || { log=$logA; fail "daemon A did not announce replication"; }
echo "replicated pair up: A=$urlA B=$urlB"

# One instance's evidence to each daemon: only anti-entropy can build the
# full merged plan on both sides.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-1' \
  -d "$evidence1" "$urlA/v1/evidence")
[ "$code" = "200" ] || { log=$logA; fail "replication-phase upload to A status $code"; }
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'X-Polm2-Instance: smoke-2' \
  -d "$evidence2" "$urlB/v1/evidence")
[ "$code" = "200" ] || { log=$logB; fail "replication-phase upload to B status $code"; }

log=$logA
await_merged "$urlA" "$storeA"
log=$logB
await_merged "$urlB" "$storeB"
curl -s "$urlA/metricsz" | grep -q '^peer_sync_total' \
  || { log=$logA; fail "daemon A exposes no peer sync counters"; }
# Converged means both daemons advertise the same per-key document count
# and key sum in their sync summaries (the daemon name aside).
sumsA=$(curl -s "$urlA/v1/sync" | jq -c '[.keys[] | {app, workload, docs, sum}]')
sumsB=$(curl -s "$urlB/v1/sync" | jq -c '[.keys[] | {app, workload, docs, sum}]')
[ "$sumsA" = "$sumsB" ] && [ "$(jq '.[0].docs' <<<"$sumsA")" = "2" ] \
  || { log=$logA; fail "converged replicas advertise different key sums: A=$sumsA B=$sumsB"; }
# ... and so the same root over those entries, the one value a puller sends.
rootA=$(curl -s "$urlA/v1/sync" | jq -r .root)
rootB=$(curl -s "$urlB/v1/sync" | jq -r .root)
[ "${#rootA}" = 32 ] && [ "$rootA" = "$rootB" ] \
  || { log=$logA; fail "converged replicas advertise different roots: A=$rootA B=$rootB"; }

kill -TERM "$pidA" "$pidB"
wait "$pidA" || { log=$logA; fail "daemon A exited non-zero after SIGTERM"; }
wait "$pidB" || { log=$logB; fail "daemon B exited non-zero after SIGTERM"; }
no_plan_files "$storeA"
no_plan_files "$storeB"

# Offline proof of convergence: both stores list the same stamped
# evidence documents.
/tmp/polm2-inspect-smoke-bin sync "$storeA" >/tmp/polm2d-smoke-sync-a.txt \
  || fail "polm2-inspect sync failed on store A"
/tmp/polm2-inspect-smoke-bin sync "$storeB" >/tmp/polm2d-smoke-sync-b.txt \
  || fail "polm2-inspect sync failed on store B"
diff /tmp/polm2d-smoke-sync-a.txt /tmp/polm2d-smoke-sync-b.txt \
  || fail "replica stores diverge after convergence (see diff above)"
grep -q '@smoke-' /tmp/polm2d-smoke-sync-a.txt \
  || fail "converged store carries no replication stamps: $(cat /tmp/polm2d-smoke-sync-a.txt)"

# --- seeded phase: an offline profile stored with polm2-profile -store ---
store=$(mktemp -d)
work=$(mktemp -d)
log=$(mktemp)
/tmp/polm2-profile-smoke-bin -app Lucene -workload default -duration 2m \
  -o "$work/profile.json" -store "$store" >"$log" 2>&1 || fail "polm2-profile -store failed"
no_plan_files "$store"
compgen -G "$store/evidence/*__seed__-*.evidence.json" >/dev/null \
  || fail "polm2-profile -store left no __seed__ evidence document in $store"
/tmp/polm2-inspect-smoke-bin plan "$store" Lucene/default >/tmp/polm2d-smoke-stored.json \
  || fail "polm2-inspect plan failed on the seeded store"
plantag="\"$(sha256sum /tmp/polm2d-smoke-stored.json | cut -d' ' -f1)\""

/tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$store" >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT
url=$(await_url "$log")
[ -n "$url" ] || fail "seeded daemon never printed its listen address"
code=$(curl -s -D /tmp/polm2d-smoke-headers.txt -o /tmp/polm2d-smoke-plan.json -w '%{http_code}' \
  "$url/v1/plan?app=Lucene&workload=default")
[ "$code" = "200" ] || fail "seeded key fetch status $code, want 200"
etag=$(tr -d '\r' </tmp/polm2d-smoke-headers.txt | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')
[ "$etag" = "$plantag" ] || fail "seeded key served ETag $etag, want the stored plan's SHA-256 $plantag"
# The seed is a fixed point of the merge: the served body is the profile
# polm2-profile wrote, without its per-site evidence.
[ "$(jq -c 'del(.sites)' "$work/profile.json")" = "$(jq -c . /tmp/polm2d-smoke-plan.json)" ] \
  || fail "seeded key's served plan is not the stored profile without its sites"
kill -TERM "$pid"
wait "$pid" || fail "seeded daemon exited non-zero after SIGTERM"
no_plan_files "$store"

# A store holding a plan file is refused at start, naming the fix.
cp "$work/profile.json" "$store/Lucene__default.profile.json"
if timeout 10 /tmp/polm2d-smoke-bin -addr 127.0.0.1:0 -store "$store" >"$log" 2>&1; then
  fail "daemon served a store holding a plan file"
fi
grep -q 'polm2-profile -store' "$log" || fail "plan-file refusal does not name the fix: $(cat "$log")"

echo "polm2d-smoke: PASS"
