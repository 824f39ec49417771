#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-compile|fleet-serve \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout of the repository. The qc-fleet and
# qc-serve binaries come from the repository's own workspace (its default
# release build), the benchmark binary from perfbench/Cargo.toml. Build output
# goes to $CARGO_TARGET_DIR (default .bench_build); traces and the
# determinism records to $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "perfbench: no repository workspace next to perfbench/; run it from a checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qc-serve --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
