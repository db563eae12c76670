#!/usr/bin/env bash
# Builds the analyzer's `stamp` binary and the benchmark from source,
# then runs the benchmark. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload e6_large --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin stamp >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --stamp "$CARGO_TARGET_DIR/release/stamp" "$@"
