#!/usr/bin/env bash
# Bench-regression gate: fails when any benchmark in a fresh run regresses
# more than FACTOR× against the committed baseline.
#
# Usage: scripts/bench_check.sh <candidate.json> [baseline.json] [factor]
#   candidate.json  a BENCH_kernels.json produced by scripts/bench.sh
#   baseline.json   the committed reference (default BENCH_kernels.json)
#   factor          allowed slowdown ratio (default $BENCH_REGRESSION_FACTOR
#                   or 2.5)
#
# The bound is deliberately loose: shared CI runners are noisy, and the
# gate exists to catch *algorithmic* cliffs (a kernel falling off its fast
# path, a planner suddenly emitting an order of magnitude more sweeps), not
# single-digit-percent drift.
#
# Every benchmark in the candidate must have a baseline entry: a name with
# none fails the gate (a PR that adds a bench also adds its baseline
# line), so a dropped baseline cannot silently disarm it. Baseline entries
# absent from the candidate are only reported, because each CI job runs a
# subset of the benchmarks against the one shared baseline file.
set -euo pipefail

CANDIDATE="${1:?usage: bench_check.sh <candidate.json> [baseline.json] [factor]}"
BASELINE="${2:-BENCH_kernels.json}"
FACTOR="${3:-${BENCH_REGRESSION_FACTOR:-2.5}}"

for f in "$CANDIDATE" "$BASELINE"; do
    [[ -r "$f" ]] || { echo "bench_check: cannot read $f" >&2; exit 2; }
done

# The criterion shim emits one record per line:
#   {"name": "...", "median_ns": 123.4, "samples": ..., ...},
# so a line-oriented awk join on "name" is all the parsing needed.
awk -v factor="$FACTOR" -v baseline="$BASELINE" -v candidate="$CANDIDATE" '
    function record(line, out) {
        if (match(line, /"name": *"[^"]+"/)) {
            out["name"] = substr(line, RSTART, RLENGTH)
            sub(/.*: *"/, "", out["name"])
            sub(/"$/, "", out["name"])
            if (match(line, /"median_ns": *[0-9.eE+-]+/)) {
                out["median"] = substr(line, RSTART, RLENGTH)
                sub(/.*: */, "", out["median"])
                return 1
            }
        }
        return 0
    }
    NR == FNR {
        if (record($0, r)) { base[r["name"]] = r["median"] + 0 }
        next
    }
    {
        if (record($0, r)) {
            name = r["name"]
            names[++n] = name
            cand[name] = r["median"] + 0
        }
    }
    END {
        if (n == 0) {
            printf "bench_check: no benchmark records in %s\n", candidate
            exit 2
        }
        fail = 0
        printf "%-45s %14s %14s %7s\n", "benchmark", "baseline_ns", "candidate_ns", "ratio"
        for (i = 1; i <= n; i++) {
            name = names[i]
            if (!(name in base)) {
                fail = 1
                printf "%-45s %14s %14.1f %7s  << NO BASELINE\n", name, "(missing)", cand[name], "-"
                offenders[++noff] = sprintf("  %s: no baseline entry in %s", name, baseline)
                continue
            }
            ratio = base[name] > 0 ? cand[name] / base[name] : 1
            verdict = ""
            if (ratio > factor) {
                fail = 1
                verdict = "  << REGRESSION (limit " factor "x)"
                offenders[++noff] = sprintf("  %s: baseline %.1f ns, measured %.1f ns (%.2fx, limit %sx)", \
                                            name, base[name], cand[name], ratio, factor)
            }
            printf "%-45s %14.1f %14.1f %6.2fx%s\n", name, base[name], cand[name], ratio, verdict
        }
        for (name in base) {
            if (!(name in cand)) {
                printf "%-45s %14.1f %14s %7s\n", name, base[name], "(absent)", "-"
            }
        }
        if (fail) {
            printf "\nbench_check: FAIL — regression beyond %sx or missing baseline vs %s\n", factor, baseline
            for (i = 1; i <= noff; i++) print offenders[i]
            exit 1
        }
        printf "\nbench_check: OK (limit %sx vs %s)\n", factor, baseline
    }
' "$BASELINE" "$CANDIDATE"
