#!/usr/bin/env bash
# The full local gate: release build, the complete test suite, and
# clippy with warnings promoted to errors. CI and pre-merge runs use
# exactly this script, so a clean run here means a clean run there.
set -euo pipefail
cd "$(dirname "$0")/.."

# `check.sh --attack` runs only the adversarial battery: the seeded
# mutation/flood/kill gates plus the attack-focused unit suites. Fast
# enough to run on every data-plane change; the full gate below also
# covers all of it via `cargo test -q` and the quick bench gates.
if [[ "${1:-}" == "--attack" ]]; then
  echo "==> adversarial test battery (mutation taxonomy, 4x flood goodput, shard-kill recovery)"
  cargo test --release -q -p colibri-dataplane --test adversarial
  echo "==> attack-generator + supervisor unit suites"
  cargo test --release -q -p colibri-sim --lib attack
  cargo test --release -q -p colibri-dataplane --lib supervisor
  cargo test --release -q -p colibri-ring --lib
  echo "==> repro_pipeline --quick --gate (survivability rows: taxonomy exact, goodput ≥95%, ledger balanced)"
  cargo run --release -q -p colibri-bench --bin repro_pipeline -- \
    --quick --gate --out target/BENCH_dataplane.attack.json
  echo "==> attack checks passed"
  exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> chaos suite, release (renewal storm, shedding priority, regional outage — must replay bit-identically)"
cargo test --release -q -p colibri --test chaos

echo "==> breaker/budget property suite"
cargo test --release -q -p colibri-ctrl --test breaker_props

echo "==> repro_pipeline --quick --gate (data plane must not regress; telemetry ≤2%," \
     "scrape verified: no unregistered/duplicate metric names; storm amplification ≤3," \
     "renewals admitted ahead of new setups under overload)"
cargo run --release -q -p colibri-bench --bin repro_pipeline -- \
  --quick --gate --out target/BENCH_dataplane.quick.json

echo "==> timeline/store property suites (segment tree ≡ slot-vector oracle, aggregates reconcile)"
cargo test --release -q -p colibri-ctrl --test timeline_props
cargo test --release -q -p colibri-ctrl --test proptests

echo "==> repro_store --quick --gate (admit at 10^6 ≤ 2x 10^3; naive foil ≥100x;" \
     "GC ∝ expired records and ∝ due EERs; timeline ≡ oracle in release)"
cargo run --release -q -p colibri-bench --bin repro_store -- \
  --quick --gate --out target/BENCH_store.quick.json

echo "==> qdisc fairness property suite (tenant isolation, no token creation, fair refill, burst ≤ capacity)"
cargo test --release -q -p colibri-qdisc --test fairness_props

echo "==> gateway QoS differential suite (flat ≡ degenerate hierarchy, renewal carries tokens, churn conserves nodes)"
cargo test --release -q -p colibri-dataplane --test qos_props

echo "==> repro_qos --quick --gate (reserved goodput ≥95% of entitlement under 4x best-effort" \
     "overload with zero reserved drops; idle link scavenged ≥90%; flat ≡ degenerate in release)"
cargo run --release -q -p colibri-bench --bin repro_qos -- \
  --quick --gate --out target/BENCH_qos.quick.json

echo "==> benchmark/ci.sh (the repo benchmark's own tests, then a 1 s oracle-checked smoke of all" \
     "five workloads, traced and untraced)"
bash benchmark/ci.sh

echo "==> all checks passed"
