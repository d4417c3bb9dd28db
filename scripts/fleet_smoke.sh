#!/usr/bin/env bash
# fleet_smoke.sh — CI smoke test for the fleet: a raprouter over three
# store-backed rapserved workers takes a deterministic raploadgen stream,
# a worker is SIGKILLed mid-run and every job must still complete, the
# worker comes back on its surviving store directory and must warm-start
# from it (serve.cache.warm_loaded > 0), and every run's result digest
# must be byte-identical to a single-node run of the same stream — the
# fleet changes scheduling, never results. The router is checked the
# way serve_smoke.sh checks a worker: it refuses a body over the
# workers' 8 MiB limit with 413, and its /metrics?format=prom lints.
set -euo pipefail

cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/rapserved" ./cmd/rapserved
go build -o "$TMP/raprouter" ./cmd/raprouter
go build -o "$TMP/raploadgen" ./cmd/raploadgen

W1=127.0.0.1:18181; W2=127.0.0.1:18182; W3=127.0.0.1:18183
SOLO=127.0.0.1:18184; ROUTER=127.0.0.1:18180

wait_healthy() { # addr
    for _ in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $1 never became healthy"; cat "$TMP"/*.log; exit 1
}

start_worker() { # name addr extra-flags...
    local name=$1 addr=$2; shift 2
    "$TMP/rapserved" -addr "$addr" -store-dir "$TMP/store-$name" -queue 64 "$@" \
        >"$TMP/$name.log" 2>&1 &
    eval "${name^^}_PID=$!"
    wait_healthy "$addr"
}

# page_has url regexp: the page matches. The page is read whole before
# grep looks at it: under pipefail, `curl | grep -q` fails whenever grep
# matches and exits before curl has written the rest of a long page.
page_has() {
    local page
    page=$(curl -sf "$1") && grep -Eq "$2" <<<"$page"
}

digest_of() { # loadgen-report-file
    grep -o '"digest": "[0-9a-f]*"' "$1" | grep -o '[0-9a-f]\{64\}'
}

start_worker w1 "$W1"
start_worker w2 "$W2"
start_worker w3 "$W3"
start_worker solo "$SOLO"

"$TMP/raprouter" -addr "$ROUTER" -health-interval 250ms \
    -fleet "http://$W1,http://$W2,http://$W3" >"$TMP/router.log" 2>&1 &
ROUTER_PID=$!
wait_healthy "$ROUTER"
page_has "http://$ROUTER/healthz" '"workers_alive": 3' || {
    echo "FAIL: router does not see 3 live workers"; cat "$TMP/router.log"; exit 1; }

# Run 1: cold fleet vs single node — the digests must be byte-identical.
"$TMP/raploadgen" -target "http://$ROUTER" -jobs 60 -concurrency 8 -seed 1 \
    >"$TMP/fleet1.json" 2>"$TMP/fleet1.err"
"$TMP/raploadgen" -target "http://$SOLO" -jobs 60 -concurrency 8 -seed 1 \
    >"$TMP/solo1.json" 2>/dev/null
[ "$(digest_of "$TMP/fleet1.json")" = "$(digest_of "$TMP/solo1.json")" ] || {
    echo "FAIL: fleet digest differs from single-node digest (seed 1)"
    cat "$TMP/fleet1.json" "$TMP/solo1.json"; exit 1; }
# Duplicate jobs in the stream (-dup 4) must have hit worker caches.
grep -Eq '"cached": [1-9]' "$TMP/fleet1.json" || {
    echo "FAIL: no cache hits across the fleet run"; cat "$TMP/fleet1.json"; exit 1; }

# Run 2 (fresh seed, so every job computes): SIGKILL w3 mid-run. The
# router must requeue its share and the loadgen must still see 60/60
# ok (raploadgen exits nonzero otherwise).
"$TMP/raploadgen" -target "http://$ROUTER" -jobs 60 -concurrency 8 -seed 2 \
    >"$TMP/fleet2.json" 2>"$TMP/fleet2.err" &
LG=$!
for _ in $(seq 1 100); do
    STARTED=$(curl -sf "http://$W3/metrics" | grep -o '"serve.jobs.started": [0-9]*' | grep -o '[0-9]*$' || echo 0)
    [ "${STARTED:-0}" -ge 3 ] && break
    sleep 0.05
done
kill -9 "$W3_PID"
wait $LG || { echo "FAIL: jobs lost after worker kill"; cat "$TMP/fleet2.err" "$TMP/router.log"; exit 1; }
"$TMP/raploadgen" -target "http://$SOLO" -jobs 60 -concurrency 8 -seed 2 \
    >"$TMP/solo2.json" 2>/dev/null
[ "$(digest_of "$TMP/fleet2.json")" = "$(digest_of "$TMP/solo2.json")" ] || {
    echo "FAIL: kill-a-worker run digest differs from single-node digest (seed 2)"; exit 1; }
page_has "http://$ROUTER/metrics" '"fleet.requeue": [1-9]' || {
    echo "FAIL: router recorded no requeues after the kill"; exit 1; }
page_has "http://$ROUTER/healthz" '"workers_alive": 2' || {
    echo "FAIL: router still counts the killed worker alive"; exit 1; }

# The router enforces the workers' request limits itself: a body past
# 8 MiB is refused with 413 before any worker sees it.
{ printf '{"jobs":[{"source":"'; head -c $((8 << 20)) /dev/zero | tr '\0' x; printf '"}]}'; } >"$TMP/big.json"
CODE=$(curl -s -o "$TMP/big.out" -w '%{http_code}' --data-binary @"$TMP/big.json" "http://$ROUTER/v1/batch" || true)
[ "$CODE" = 413 ] || {
    echo "FAIL: router answered a POST over 8 MiB with $CODE, want 413"; cat "$TMP/big.out"; exit 1; }

# The router's Prometheus rendering lints and carries its endpoint
# timings next to the fleet counters.
curl -sf "http://$ROUTER/metrics?format=prom" >"$TMP/router.prom"
./scripts/prom_lint.sh "$TMP/router.prom" || {
    echo "FAIL: router prom exposition does not lint"; cat "$TMP/router.prom"; exit 1; }
for series in serve_http_jobs_ns_count fleet_requeue_total; do
    grep -q "^$series" "$TMP/router.prom" || {
        echo "FAIL: router prom exposition missing $series"; cat "$TMP/router.prom"; exit 1; }
done

# Restart w3 on the store directory the SIGKILL left behind: run 1
# already persisted w3's share of the seed-1 work, so it must warm-start
# from its own store. Rerunning the seed-2 stream routes w3's share back
# to it, and the digest must not change.
start_worker w3 "$W3"
sleep 0.6  # let the router's health probe revive w3
"$TMP/raploadgen" -target "http://$ROUTER" -jobs 60 -concurrency 8 -seed 2 \
    >"$TMP/fleet3.json" 2>/dev/null
[ "$(digest_of "$TMP/fleet3.json")" = "$(digest_of "$TMP/solo2.json")" ] || {
    echo "FAIL: post-restart digest differs from single-node digest"; exit 1; }
page_has "http://$W3/metrics" '"serve.cache.warm_loaded": [1-9]' || {
    echo "FAIL: restarted worker loaded no results from its own store"
    curl -sf "http://$W3/metrics"; exit 1; }

# Graceful teardown: the router drains on SIGTERM.
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
    kill -0 "$ROUTER_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && { echo "FAIL: router ignored SIGTERM"; exit 1; }
grep -q "drained cleanly" "$TMP/router.log" || {
    echo "FAIL: no clean-drain log line from router"; cat "$TMP/router.log"; exit 1; }

echo "PASS: fleet smoke (3 workers, byte-identical digests, kill+requeue, 413, prom lint, rejoin warm-start, drain)"
