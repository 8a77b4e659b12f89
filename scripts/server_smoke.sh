#!/usr/bin/env bash
# server_smoke.sh — end-to-end acceptance test for cmd/diag-server.
#
# Proves the four service-level guarantees from the outside, with no
# test harness in the loop:
#
#   1. cache: the same submission served twice simulates once — the
#      second job reports cached:true and sims_total does not move;
#   2. determinism: the two result bodies are byte-identical (cmp);
#   3. metrics: /metrics speaks Prometheus text and carries the
#      serving counters with the values this session implies;
#   4. drain: SIGTERM finishes cleanly — the process exits 0.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d /tmp/server-smoke.XXXXXX)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
$GO build -o "$WORK/diag-server" ./cmd/diag-server

# Start on an ephemeral port; the server announces it on stderr.
"$WORK/diag-server" -addr 127.0.0.1:0 2> "$WORK/server.log" &
SERVER_PID=$!

base=
for _ in $(seq 1 100); do
    base=$(sed -n 's#^diag-server: listening on \(http://[^ ]*\)$#\1#p' "$WORK/server.log")
    [ -n "$base" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died at startup"; cat "$WORK/server.log"; exit 1; }
    sleep 0.05
done
[ -n "$base" ] || { echo "FAIL: server never announced its address"; cat "$WORK/server.log"; exit 1; }
echo "server at $base"

curl -fsS "$base/healthz" > /dev/null

req='{"kind":"run","machine":"I4C2","asm":"li x5, 42\nli x6, 0x1000\nsw x5, 0(x6)\nebreak"}'

# fetch_job BODY OUT — submit and wait, saving the job view to OUT.
submit() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$req" "$base/api/v1/jobs?wait=60s"
}

submit > "$WORK/job1.json"
submit > "$WORK/job2.json"

# jfield FILE FIELD — extract a scalar field from a job view without
# assuming jq exists.
jfield() {
    sed -n 's#^ *"'"$2"'": *\([^,]*\),*$#\1#p' "$1" | head -1
}

state1=$(jfield "$WORK/job1.json" state); state2=$(jfield "$WORK/job2.json" state)
cached1=$(jfield "$WORK/job1.json" cached); cached2=$(jfield "$WORK/job2.json" cached)
id1=$(jfield "$WORK/job1.json" id | tr -d '"'); id2=$(jfield "$WORK/job2.json" id | tr -d '"')

[ "$state1" = '"done"' ] || { echo "FAIL: first job state $state1"; cat "$WORK/job1.json"; exit 1; }
[ "$state2" = '"done"' ] || { echo "FAIL: second job state $state2"; cat "$WORK/job2.json"; exit 1; }
[ "$cached1" = "false" ] || { echo "FAIL: first job claims cached=$cached1"; exit 1; }
[ "$cached2" = "true" ]  || { echo "FAIL: second job not served from cache (cached=$cached2)"; exit 1; }
echo "cache: first run simulated, repeat served from cache"

curl -fsS "$base/api/v1/jobs/$id1/result" > "$WORK/res1.json"
curl -fsS "$base/api/v1/jobs/$id2/result" > "$WORK/res2.json"
cmp "$WORK/res1.json" "$WORK/res2.json" || { echo "FAIL: cached result body differs"; exit 1; }
grep -q '"mem_digest"' "$WORK/res1.json" || { echo "FAIL: result body missing mem_digest"; exit 1; }
echo "determinism: result bodies byte-identical"

curl -fsS "$base/metrics" > "$WORK/metrics.txt"
metric() {
    grep "^$1 " "$WORK/metrics.txt" | awk '{print $2}'
}
for m in diag_server_requests_total diag_server_jobs_submitted_total \
         diag_server_jobs_done_total diag_server_queue_depth \
         diag_server_uptime_seconds diag_server_job_total_ms_count; do
    grep -q "^$m " "$WORK/metrics.txt" || { echo "FAIL: /metrics missing $m"; exit 1; }
done
[ "$(metric diag_server_sims_total)" = "1" ] || { echo "FAIL: sims_total=$(metric diag_server_sims_total), want 1"; exit 1; }
[ "$(metric diag_server_cache_hits_total)" = "1" ] || { echo "FAIL: cache_hits_total=$(metric diag_server_cache_hits_total), want 1"; exit 1; }
echo "metrics: counters present with expected values"

# Graceful drain: SIGTERM must finish with exit code 0.
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
SERVER_PID=
[ "$rc" -eq 0 ] || { echo "FAIL: server exited $rc on SIGTERM"; cat "$WORK/server.log"; exit 1; }
grep -q 'draining' "$WORK/server.log" || { echo "FAIL: no drain announcement"; cat "$WORK/server.log"; exit 1; }
echo "drain: SIGTERM exited 0"

echo "PASS: server smoke"
