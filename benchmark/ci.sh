#!/usr/bin/env bash
# The benchmark's own checks: unit and integration tests, then a one-second
# smoke run of every workload, untraced and traced.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo test --release --offline --manifest-path "$here/Cargo.toml"
for workload in dp-short-hot dp-long-cold dp-attack-mix cp-flow-churn cp-segr-loaded; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        "$here/run.sh" --workload "$workload" --seconds 1 --trace "$trace" | tail -n 1 | cut -c1-100
    done
done
echo "ci: all workloads correct"
