#!/bin/sh
# forensics_smoke.sh boots a real rrqserver with tracing on, drives a
# mixed load (single queries, a batch, a mutation, a metrics scrape in
# both exposition flavors), then exercises the whole forensic surface
# end to end: /debug/flight must show the traffic, with the Case-1/2/3
# breakdown or the deciding dominator count on every answered query's
# digest, the OpenMetrics scrape
# must end in `# EOF`, and /debug/bundle — fetched with rrqdiag, which
# manifest-validates before writing — must inspect cleanly. It is the
# CI proof that the incident-forensics workflow in README.md works
# against a live binary, not just in unit tests.
#
# Usage: scripts/forensics_smoke.sh [addr]   (default 127.0.0.1:18080)
# Needs curl and jq.
set -eu
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:18080}"
BASE="http://$ADDR"
WORK=$(mktemp -d)
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/rrqserver" ./cmd/rrqserver
go build -o "$WORK/rrqdiag" ./cmd/rrqdiag

echo "== boot rrqserver on $ADDR"
"$WORK/rrqserver" -demo -np 2000 -nw 1000 -d 4 -addr "$ADDR" \
    -trace-sample 1 -log off &
SRV_PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: server never became healthy" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== mixed load"
for p in 1 2 3 4 5; do
    curl -sf -d "{\"product\": $p, \"k\": 10}" "$BASE/v1/reverse-topk" >/dev/null
done
curl -sf -d '{"product": 1, "k": 5}' "$BASE/v1/reverse-kranks" >/dev/null
curl -sf -d '{"queries": [{"type": "reverse-topk", "product": 6, "k": 10},
    {"type": "reverse-kranks", "product": 7, "k": 5},
    {"type": "reverse-topk", "product": 8, "k": 10}], "parallelism": 2}' \
    "$BASE/v1/batch" >/dev/null
curl -sf -d '{"products": [[1, 2, 3, 4]]}' "$BASE/v1/products" >/dev/null

echo "== flight recorder saw the traffic"
FLIGHT=$(curl -sf "$BASE/debug/flight")
echo "$FLIGHT" | grep -q '"enabled":true' || {
    echo "FAIL: flight recorder not enabled: $FLIGHT" >&2; exit 1; }
echo "$FLIGHT" | grep -q '"records":\[{' || {
    echo "FAIL: flight ring empty after load: $FLIGHT" >&2; exit 1; }

echo "== every answered query's digest explains itself"
# Six single queries and three batch items ran; each ok digest that was
# not a cache hit must record a non-zero case1+case2+case3 (the scan's
# breakdown) or aux1 >= k (the dominator pre-pass found k products
# undercutting the query and decided the empty top-k answer without a
# scan; on this demo data that happens to several queried products).
SCANNED=$(echo "$FLIGHT" | jq '[.records[] | select(.class == "query" and .outcome == "ok" and (.cacheHit | not))]')
[ "$(echo "$SCANNED" | jq length)" -ge 9 ] || {
    echo "FAIL: expected >= 9 answered query digests: $SCANNED" >&2; exit 1; }
ZERO=$(echo "$SCANNED" | jq '[.[] | select((.case1 // 0) + (.case2 // 0) + (.case3 // 0) == 0 and (.aux1 // 0) < .k)]')
[ "$(echo "$ZERO" | jq length)" -eq 0 ] || {
    echo "FAIL: query digests with neither case counts nor k dominators: $ZERO" >&2; exit 1; }
DECIDED=$(echo "$SCANNED" | jq '[.[] | select((.case1 // 0) + (.case2 // 0) + (.case3 // 0) == 0)] | length')
echo "answered query digests: $(echo "$SCANNED" | jq length), decided by the dominator pre-pass: $DECIDED"

echo "== OpenMetrics scrape with exemplars"
OM=$(curl -sf -H 'Accept: application/openmetrics-text' "$BASE/metrics")
printf '%s\n' "$OM" | tail -1 | grep -q '^# EOF$' || {
    echo "FAIL: OpenMetrics scrape does not end with # EOF" >&2; exit 1; }
printf '%s\n' "$OM" | grep -q 'trace_id=' || {
    echo "FAIL: no exemplar in OpenMetrics scrape" >&2; exit 1; }
curl -sf "$BASE/metrics" | grep -q '# EOF' && {
    echo "FAIL: classic scrape contains # EOF" >&2; exit 1; }

echo "== fetch and validate the diagnostics bundle"
"$WORK/rrqdiag" -server "$BASE" -out "$WORK/bundle.tar.gz"
"$WORK/rrqdiag" -inspect "$WORK/bundle.tar.gz"
for entry in goroutines.txt metrics.om flight.json traces.json config.json; do
    "$WORK/rrqdiag" -inspect "$WORK/bundle.tar.gz" | grep -q "$entry" || {
        echo "FAIL: bundle manifest missing $entry" >&2; exit 1; }
done

echo "forensics smoke OK"
