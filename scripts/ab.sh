#!/usr/bin/env bash
# Interleaved A/B of two revisions on one perfbench workload.
#
# Usage: scripts/ab.sh <rev-a> <rev-b> <workload> [pairs=4] [seconds=30]
#   rev-a, rev-b  any git revisions (commit, branch, tag, HEAD~1, ...)
#   workload      a perfbench workload (paper-compile, fleet-serve)
#   pairs         number of (a, b) run pairs; pair i uses --seed i
#   seconds       --seconds of every run
#
# Both revisions are checked out as detached worktrees in a temporary
# directory under $TMPDIR (default /tmp), removed again on exit. Each pair
# runs `perfbench/run.sh --workload W --seed i --seconds S --trace 0` once
# in each worktree, alternating which side goes first. A side's first run
# also builds it, into its own worktree.
#
# For every end-to-end metric it prints both medians, the b/a ratio of the
# medians, each side's min–max, side a's quartiles and in how many pairs b
# read lower than a; then each side's failed checks and failed runs. Exits
# 1 if any run exited non-zero or reported a failed check, 2 on bad usage.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
cd "$(dirname "$0")/.."
W=$3
PAIRS=${4:-4}
SECS=${5:-30}
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

failed_runs=0
# run_side <a|b> <seed>: one benchmark run, its JSON line appended to
# $work/<side>.jsonl (an empty line when the run printed none).
run_side() {
    local line rc=0
    echo "ab: pair $2, side $1" >&2
    line=$(cd "$work/$1" &&
        CARGO_TARGET_DIR="$work/$1/.bench_build" bash perfbench/run.sh \
            --workload "$W" --seed "$2" --seconds "$SECS" --trace 0 | tail -n 1) || rc=$?
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

echo "# $W: a=$a_sha b=$b_sha, $PAIRS pairs of ${SECS} s"
summary=0
python3 - "$work/a.jsonl" "$work/b.jsonl" <<'EOF' || summary=$?
import json
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
names = []
for r in a + b:
    if r:
        names += [n for n in r["metrics"] if n not in names]


def value(run, name):
    return run["metrics"][name]["value"] if run and name in run["metrics"] else None


def span(vals):
    lo, hi = min(vals), max(vals)
    return f"{lo:.5g}–{hi:.5g}"


print(f"{'metric':<22} {'median a':>10} {'median b':>10} {'b/a':>6}  "
      f"{'a min–max':<19} {'b min–max':<19} {'a q1–q3':<19} b<a")
for n in names:
    pairs = [(value(x, n), value(y, n)) for x, y in zip(a, b)]
    va = [x for x, _ in pairs if x is not None]
    vb = [y for _, y in pairs if y is not None]
    if not va or not vb:
        print(f"{n:<22} missing on one side")
        continue
    ma, mb = statistics.median(va), statistics.median(vb)
    ratio = f"{mb / ma:.3f}" if ma else "-"
    q = statistics.quantiles(va, n=4, method="inclusive") if len(va) > 1 else [va[0]] * 3
    lower = sum(1 for x, y in pairs if x is not None and y is not None and y < x)
    both = sum(1 for x, y in pairs if x is not None and y is not None)
    print(f"{n:<22} {ma:>10.5g} {mb:>10.5g} {ratio:>6}  "
          f"{span(va):<19} {span(vb):<19} {span([q[0], q[2]]):<19} {lower}/{both}")
bad = 0
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
