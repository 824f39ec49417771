#!/usr/bin/env bash
# Interleaved A/B of two revisions on one perfbench workload, or on the
# kernel benches.
#
# Usage: scripts/ab.sh <rev-a> <rev-b> <workload> [pairs=4] [seconds=30]
#        scripts/ab.sh <rev-a> <rev-b> kernels:<filter> [pairs=10]
#   rev-a, rev-b  any git revisions (commit, branch, tag, HEAD~1, ...)
#   workload      a perfbench workload (paper-compile, fleet-serve)
#   filter        a `scripts/bench.sh` name filter (substring; empty = all)
#   pairs         number of (a, b) run pairs; pair i uses --seed i
#   seconds       --seconds of every perfbench run
#
# Both revisions are checked out as detached worktrees in a temporary
# directory under $TMPDIR (default /tmp), removed again on exit. Each pair
# runs once in each worktree, alternating which side goes first: either
# `perfbench/run.sh --workload W --seed i --seconds S --trace 0`, or, in
# kernel mode, `RPO_THREADS=1 BENCH_FEATURES= scripts/bench.sh <filter>`:
# one kernel thread on both sides (`BENCH_FEATURES=` selects the
# single-threaded build of revisions whose bench.sh still takes cargo
# features). Its JSON goes to the temporary directory, not over the
# worktree's BENCH_kernels.json. Every side builds into its own worktree:
# in kernel mode both bench binaries are built before pair 1, so no timed
# run shares the host with a compile; a perfbench side's first run builds
# it.
#
# For every end-to-end metric (in kernel mode: every bench's median_ns) it
# prints which direction is better, both medians, the b/a ratio of the
# medians, each side's min–max, side a's quartiles and in how many pairs b
# read better than a; then each side's failed checks and failed runs. The
# direction and the bound of a perfbench metric come from BENCHMARK.json
# (a metric it does not list counts as lower-is-better, without a bound);
# a metric whose b median is worse than a's by more than its bound, as a
# fraction of a's median, is flagged "PAST BOUND". Kernel benches are
# lower-is-better, without a bound. Exits 1 if any run exited non-zero or
# reported a failed check, or, in kernel mode, if a bench is missing on
# one side; 2 on bad usage.
set -euo pipefail

usage() {
    sed -n '5,11p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    usage
fi
cd "$(dirname "$0")/.."
W=$3
PAIRS=${4:-4}
SECS=${5:-30}
KERNELS=0
case "$W" in
    kernels:*)
        KERNELS=1
        FILTER=${W#kernels:}
        PAIRS=${4:-10}
        [ $# -le 4 ] || usage
        ;;
esac
a_sha=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "ab: unknown revision $1" >&2; exit 2; }
b_sha=$(git rev-parse --verify --quiet "$2^{commit}") || { echo "ab: unknown revision $2" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
    for side in a b; do
        if [ -d "$work/$side" ]; then
            git worktree remove --force "$work/$side" >/dev/null 2>&1 || true
        fi
    done
    git worktree prune || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/a" "$a_sha"
git worktree add --detach --quiet "$work/b" "$b_sha"

if [ "$KERNELS" -eq 1 ]; then
    for side in a b; do
        echo "ab: building side $side" >&2
        (cd "$work/$side" &&
            CARGO_TARGET_DIR="$work/$side/.bench_build" \
                cargo bench -q -p qc-bench --bench kernels --no-run >&2) ||
            { echo "ab: side $side does not build" >&2; exit 1; }
    done
fi

failed_runs=0
# kernel_run <side> <seed>: one kernel bench run, printed as a perfbench
# style result line, {"metrics": {name: {"value": median_ns}}}.
kernel_run() {
    local out="$work/$1.$2.json"
    (cd "$work/$1" &&
        CARGO_TARGET_DIR="$work/$1/.bench_build" RPO_THREADS=1 BENCH_FEATURES= \
            BENCH_OUT="$out" bash scripts/bench.sh "$FILTER" >&2) || return
    python3 -c '
import json, sys
benches = json.load(open(sys.argv[1]))
print(json.dumps({"metrics": {b["name"]: {"value": b["median_ns"]} for b in benches}}))
' "$out"
}

# run_side <a|b> <seed>: one benchmark run, its JSON line appended to
# $work/<side>.jsonl (an empty line when the run printed none).
run_side() {
    local line rc=0
    echo "ab: pair $2, side $1" >&2
    if [ "$KERNELS" -eq 1 ]; then
        line=$(kernel_run "$1" "$2") || rc=$?
    else
        line=$(cd "$work/$1" &&
            CARGO_TARGET_DIR="$work/$1/.bench_build" bash perfbench/run.sh \
                --workload "$W" --seed "$2" --seconds "$SECS" --trace 0 | tail -n 1) || rc=$?
    fi
    if [ "$rc" -ne 0 ]; then
        echo "ab: side $1 seed $2 exited $rc" >&2
        failed_runs=$((failed_runs + 1))
    fi
    printf '%s\n' "$line" >>"$work/$1.jsonl"
}

for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side a "$i"
        run_side b "$i"
    else
        run_side b "$i"
        run_side a "$i"
    fi
done

if [ "$KERNELS" -eq 1 ]; then
    echo "# $W: a=$a_sha b=$b_sha, $PAIRS pairs, median_ns per bench"
else
    echo "# $W: a=$a_sha b=$b_sha, $PAIRS pairs of ${SECS} s"
fi
summary=0
python3 - "$work/a.jsonl" "$work/b.jsonl" "$KERNELS" <<'EOF' || summary=$?
import json
import math
import statistics
import sys


def load(path):
    """One entry per run, in pair order: its result, or None."""
    runs = []
    for line in open(path):
        try:
            runs.append(json.loads(line))
        except ValueError:
            runs.append(None)
    return runs


a, b = (load(p) for p in sys.argv[1:3])
# In kernel mode a bench missing on one side fails the run.
strict = sys.argv[3] == "1"
# name -> (higher is better, bound or None); kernel benches: lower, none.
spec = {}
if not strict:
    declared = json.load(open("BENCHMARK.json"))
    for m in declared["end_to_end"] + declared.get("per_layer", []):
        spec[m["name"]] = (m["better"] == "higher", m.get("bound"))
bad = 0
names = []
for r in a + b:
    if r:
        names += [n for n in r["metrics"] if n not in names]


def value(run, name):
    return run["metrics"][name]["value"] if run and name in run["metrics"] else None


def span(vals):
    lo, hi = min(vals), max(vals)
    return f"{lo:.5g}–{hi:.5g}"


def worse_by(ma, mb, higher):
    """How much worse median b is than median a, as a fraction of a."""
    d = ma - mb if higher else mb - ma
    if d <= 0:
        return 0.0
    return d / abs(ma) if ma else math.inf


w = max([22] + [len(n) for n in names])
print(f"{'metric':<{w}} {'better':<6} {'median a':>10} {'median b':>10} {'b/a':>6}  "
      f"{'a min–max':<19} {'b min–max':<19} {'a q1–q3':<19} b better")
for n in names:
    pairs = [(value(x, n), value(y, n)) for x, y in zip(a, b)]
    va = [x for x, _ in pairs if x is not None]
    vb = [y for _, y in pairs if y is not None]
    if not va or not vb:
        print(f"{n:<{w}} missing on one side")
        bad += strict
        continue
    higher, bound = spec.get(n, (False, None))
    ma, mb = statistics.median(va), statistics.median(vb)
    ratio = f"{mb / ma:.3f}" if ma else "-"
    q = statistics.quantiles(va, n=4, method="inclusive") if len(va) > 1 else [va[0]] * 3
    both = [(x, y) for x, y in pairs if x is not None and y is not None]
    better = sum(1 for x, y in both if (y > x if higher else y < x))
    flag = ""
    if bound is not None and worse_by(ma, mb, higher) > bound:
        flag = f"  PAST BOUND ({worse_by(ma, mb, higher):.1%} worse, bound {bound:.0%})"
    print(f"{n:<{w}} {'higher' if higher else 'lower':<6} {ma:>10.5g} {mb:>10.5g} {ratio:>6}  "
          f"{span(va):<19} {span(vb):<19} {span([q[0], q[2]]):<19} "
          f"{better}/{len(both)}{flag}")
for side, runs in (("a", a), ("b", b)):
    checks = sum(r.get("failed", 0) for r in runs if r)
    missing = sum(1 for r in runs if r is None)
    print(f"side {side}: {len(runs)} runs, {checks} failed checks, "
          f"{missing} runs without a result line")
    bad += checks + missing
sys.exit(1 if bad else 0)
EOF
echo "runs that exited non-zero: $failed_runs"
[ "$failed_runs" -eq 0 ] && [ "$summary" -eq 0 ]
