#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#                    [--out FILE] [--trace-out FILE]
#
# The last line of standard output is the result as one JSON object; the
# exit status is non-zero on any correctness failure. Build output goes
# to CARGO_TARGET_DIR, or to the root workspace's target/ when that is
# unset, so the workspace's crates are not compiled a second time.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Cargo's own output goes to stderr; stdout carries the result only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export COLIBRI_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export COLIBRI_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/colibri-benchmark" "$@"
