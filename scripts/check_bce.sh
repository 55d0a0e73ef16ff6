#!/bin/sh
# check_bce.sh fails when the compiler inserts more bounds checks into
# the hot scan kernels than the recorded budget. The packed classify
# kernels (classifyPacked4 / classifyPackedRow), the scan loop around
# them (rankBounded), the Dot/Dot2 kernels and the bit-packing
# primitives run per group per preference — a bounds check that slips
# into one of them (say, by reordering an index expression the prover
# no longer sees through) is a silent performance regression no test
# catches.
#
# The budgets are per file, counted from `-d=ssa/check_bce` output, and
# deliberately equal to the current counts: the remaining checks are
# data-dependent loads (row words, group liveness, member lists) the
# prover cannot eliminate, so any increase means a kernel change
# regressed. After a deliberate kernel change, re-run with -update
# semantics by editing the budgets below, justifying the new count in
# the commit.
set -eu
cd "$(dirname "$0")/.."

out=$(go build -gcflags='-d=ssa/check_bce/debug=1' \
    ./internal/vec ./internal/bits ./internal/topk ./internal/algo 2>&1 |
    grep -E 'Found Is(In|Slice)Bounds' || true)
if [ -z "$out" ]; then
    echo "check_bce: no compiler output — toolchain change?" >&2
    exit 1
fi

bad=0
check() {
    file=$1
    budget=$2
    n=$(printf '%s\n' "$out" | awk -F: -v f="$file" '$1 == f' | wc -l | tr -d ' ')
    if [ "$n" -gt "$budget" ]; then
        echo "new bounds checks in $file: $n, budget $budget:" >&2
        printf '%s\n' "$out" | awk -F: -v f="$file" '$1 == f' | sed 's/^/  /' >&2
        bad=1
    else
        echo "$file: $n bounds checks (budget $budget)"
    fi
}

# gir_packed_widths.go: 4 per kernel x 5 width-specialized kernels, all
# outer-loop row-word loads (words[oN+wi]); the per-code table loads are
# check-free via the constant-stride slice window.
check internal/algo/gir_packed.go 1
check internal/algo/gir_packed_widths.go 20
check internal/algo/gir.go 12
check internal/vec/vec.go 2
check internal/bits/bits.go 12
check internal/topk/topk.go 25

if [ "$bad" -ne 0 ]; then
    echo "hot-kernel bounds checks grew; see -gcflags='-d=ssa/check_bce' output above" >&2
    exit 1
fi
echo "hot-kernel bounds checks within budget"
