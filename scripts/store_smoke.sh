#!/usr/bin/env bash
# store_smoke.sh — CI smoke test for restart persistence: start rapserved
# with -store-dir, submit a batch, SIGTERM it, start a fresh daemon over
# the same store, resubmit the identical batch, and require it to be
# served from the warm-started cache with identical results.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)/rapserved
LOG=$(mktemp)
DIR=$(mktemp -d)
ADDR=127.0.0.1:18081

go build -o "$BIN" ./cmd/rapserved

start() {
    "$BIN" -addr "$ADDR" -store-dir "$DIR" >>"$LOG" 2>&1 &
    SRV=$!
    for _ in $(seq 1 50); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -sf "http://$ADDR/healthz" | grep -q '"status": "ok"' || {
        echo "FAIL: daemon never became healthy"; cat "$LOG"; exit 1; }
}

stop() {
    kill -TERM $SRV
    for _ in $(seq 1 100); do
        kill -0 $SRV 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 $SRV 2>/dev/null; then
        echo "FAIL: daemon still running 10s after SIGTERM"; cat "$LOG"; exit 1
    fi
    wait $SRV && RC=0 || RC=$?
    [ "$RC" -eq 0 ] || { echo "FAIL: daemon exited $RC"; cat "$LOG"; exit 1; }
}

BATCH='{"jobs":[
  {"id":"rap5", "source":"int main() { int i = 0; int t = 0; while (i < 9) { t = t + i; i = i + 1; } print(t); return 0; }", "allocator":"rap", "k":5, "verify":true},
  {"id":"rap3", "source":"int main() { int i = 0; int t = 0; while (i < 9) { t = t + i; i = i + 1; } print(t); return 0; }", "allocator":"rap", "k":3},
  {"id":"gra5", "source":"int main() { print(40+2); return 0; }", "allocator":"gra", "k":5}
]}'

trap 'kill -9 $SRV 2>/dev/null || true' EXIT

# First life: cold batch computes and persists.
start
FIRST=$(curl -sf -X POST "http://$ADDR/v1/batch" -d "$BATCH")
echo "$FIRST" | grep -q '"status": "ok"' || { echo "FAIL: first batch failed"; echo "$FIRST"; exit 1; }
if echo "$FIRST" | grep -q '"cached": true'; then
    echo "FAIL: cold batch reported a cache hit"; echo "$FIRST"; exit 1
fi
# The cold life's result writes show under store.*.
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -Eq '"store\.write": [1-9]' || {
    echo "FAIL: no store writes in cold life's /metrics"; echo "$METRICS"; exit 1; }
stop
[ -s "$DIR/artifacts.log" ] || { echo "FAIL: nothing persisted to $DIR"; exit 1; }

# Second life: fresh process, same store. The identical batch must be
# served entirely from the warm-started cache, with identical payloads.
start
SECOND=$(curl -sf -X POST "http://$ADDR/v1/batch" -d "$BATCH")
HITS=$(echo "$SECOND" | grep -c '"cached": true' || true)
[ "$HITS" -eq 3 ] || { echo "FAIL: $HITS/3 jobs cached after restart"; echo "$SECOND"; exit 1; }

# Results must be byte-identical modulo the cached/duration fields.
norm() { echo "$1" | grep -o '"ret": [0-9-]*\|"output": \[[^]]*\]\|"verified": true' | sort; }
[ "$(norm "$FIRST")" = "$(norm "$SECOND")" ] || {
    echo "FAIL: restart results differ"; diff <(norm "$FIRST") <(norm "$SECOND") || true; exit 1; }

# The warm start and the hits are visible in /metrics.
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -Eq '"serve\.cache\.warm_loaded": [1-9]' || {
    echo "FAIL: no warm-loaded entries in /metrics"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -Eq '"serve\.cache\.hits": [1-9]' || {
    echo "FAIL: no cache hits in /metrics"; echo "$METRICS"; exit 1; }

stop
trap - EXIT

echo "PASS: store smoke (persist, SIGTERM, restart, warm cache hit, identical results)"
