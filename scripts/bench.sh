#!/usr/bin/env bash
# Runs the `kernels` criterion bench and emits BENCH_kernels.json at the
# repo root so successive PRs accumulate a performance trajectory.
#
# Usage: scripts/bench.sh [name-filter]
#   name-filter  optional substring restricting which benchmarks run
#                (e.g. `scripts/bench.sh circuit_unitary`).
#
# Environment:
#   BENCH_OUT        output path, relative to the repo root unless absolute
#                    (default BENCH_kernels.json)
#   RPO_THREADS      kernel thread cap (default: the machine's available
#                    parallelism; 1 runs every kernel on the calling
#                    thread, the configuration the committed baseline
#                    records); the bench itself records the effective
#                    count as "threads" in the JSON (the requested value
#                    clamps to pool capacity)
#
# The bench writes to a temporary file that is moved into place only when
# the bench binary exits 0, so a crashed or interrupted run can never
# clobber the committed summary with a truncated JSON.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_kernels.json}"

case "$OUT" in
    /*) ABS_OUT="$OUT" ;;
    *) ABS_OUT="$PWD/$OUT" ;;
esac
mkdir -p "$(dirname "$ABS_OUT")"
TMP="${ABS_OUT}.tmp.$$"
trap 'rm -f "$TMP"' EXIT

CRITERION_JSON_OUT="$TMP" \
    cargo bench -p qc-bench --bench kernels -- "${1:-}"

mv "$TMP" "$ABS_OUT"

echo
echo "Summary written to $OUT:"
cat "$ABS_OUT"
