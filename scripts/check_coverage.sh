#!/bin/sh
# check_coverage.sh fails when statement coverage over the correctness
# core — the root package plus internal/{algo,grid,answers,server} —
# drops below the recorded baseline, so test debt shows up in the PR
# that introduces it instead of accumulating silently.
#
# The baseline is set ~1.5 points below the measured total at the time
# of recording (93.7% when the answer cache landed), leaving headroom
# for benign fluctuation (new error paths, platform-dependent branches)
# while still catching a change that lands real logic untested. Raise it
# when coverage improves durably; never lower it to make CI pass — add
# tests instead.
#
# Usage: scripts/check_coverage.sh
set -eu
cd "$(dirname "$0")/.."

BASELINE=92.0
PKGS=". ./internal/algo ./internal/grid ./internal/answers ./internal/server"

PROFILE=$(mktemp)
trap 'rm -f "$PROFILE"' EXIT

# shellcheck disable=SC2086 # PKGS is a deliberate word list
go test -count=1 -coverprofile="$PROFILE" $PKGS

TOTAL=$(go tool cover -func="$PROFILE" | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
if [ -z "$TOTAL" ]; then
    echo "check_coverage: could not parse total coverage" >&2
    exit 1
fi

echo "total statement coverage: ${TOTAL}% (baseline ${BASELINE}%)"
awk -v total="$TOTAL" -v base="$BASELINE" 'BEGIN {
    if (total + 0 < base + 0) {
        printf "coverage %.1f%% fell below the %.1f%% baseline\n", total, base
        exit 1
    }
}'
