#!/bin/sh
# bench.sh runs the GIR benchmark suite and records the results in
# BENCH_gir.json so performance changes are tracked in review, not lost
# in terminal scrollback.
#
# Usage: scripts/bench.sh [-short]
#
#   -short   quick smoke run: fewer iterations, skips the distribution
#            sweep (BenchmarkGIRGroupedSweep skips itself under -short),
#            and writes BENCH_gir.short.json (git-ignored) instead, so
#            2-iteration numbers never overwrite the tracked full-mode
#            record. Used by the CI bench job, which uploads that file.
#
# Covered benchmarks: the query-path suite (BenchmarkGIR*) from
# bench_test.go, parallel_bench_test.go and group_bench_test.go — the
# grouped acceptance workloads, the paper-parameter RTK/RKR runs, the
# high-dimensional run and the intra-query parallel sweep — plus the
# mutation-throughput suite (BenchmarkGIRMutation*) from
# mutate_bench_test.go: single insert/delete epoch derivation, batch
# rebuild, mutation latency under concurrent query load, and the
# subscriber fan-out sweep (BenchmarkGIRMutationSubscriberFanout),
# which prices the per-epoch subscription diff pass at 0/4/16/64 live
# monitors — and the
# tracing-overhead suite (BenchmarkGIRTraceOverhead) from
# trace_bench_test.go, whose off/sampled sub-benchmarks price the
# span instrumentation so a regression on the untraced path is caught
# in review — and the answer-cache suite (BenchmarkGIRCache*,
# BenchmarkGIRMutationUnderQueryLoadCached) from cache_bench_test.go,
# which prices the warm-hit path against the uncached scan and reports
# the achieved hit rate (hit_%) under concurrent mutation churn — and
# the index-load suite (BenchmarkGIRIndexLoad, BenchmarkGIRIndexLoadMmap)
# from scale_test.go, which prices opening a saved GRI3 file through the
# fully validating heap loader against the zero-copy mmap loader; B/op
# on those is each loader's heap footprint per open index, the proxy
# for resident memory (the mmap payload lives in the page cache) — and
# the flight-recorder suite (BenchmarkFlightRecorderOverhead) from
# flight_bench_test.go, whose off/on sub-benchmarks price the always-on
# digest ring against a recorder-disabled index — and the catalog suite
# (BenchmarkGIRCatalog) from catalog_bench_test.go, one reverse top-k and
# one reverse k-ranks query at a time on perfbench's DIANPING catalog
# shape, where the packed scan's all-Case-2 block drop carries the
# scan. Each
# entry records ns/op, B/op, allocs/op and any custom metrics the
# benchmark reports (e.g. filter% for the grouped sweep).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME=1s
SHORT_FLAG=""
OUT=BENCH_gir.json
if [ "${1:-}" = "-short" ]; then
    BENCHTIME=2x
    SHORT_FLAG="-short"
    OUT=BENCH_gir.short.json
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkGIR|BenchmarkFlightRecorderOverhead' -benchmem -benchtime "$BENCHTIME" \
    $SHORT_FLAG . | tee "$RAW"

# Parse `go test -bench` lines into JSON. A line looks like:
#   BenchmarkName-8  	  123	  456 ns/op	  789 B/op	  2 allocs/op	  91.2 filter%
awk '
BEGIN { print "{"; print "  \"benchmarks\": ["; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    printf "%s    {\"name\": \"%s\", \"iterations\": %s", \
        (first ? "" : ",\n"), name, iters
    first = 0
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9_%\/]/, "_", unit)
        gsub(/\//, "_per_", unit)
        gsub(/%/, "_pct", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
/^cpu:/ { cpu = substr($0, 6); gsub(/^[ \t]+|"/, "", cpu) }
END {
    print ""
    print "  ],"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\"\n", BT
    print "}"
}' BT="$BENCHTIME" "$RAW" > "$OUT"

echo "wrote $OUT"
