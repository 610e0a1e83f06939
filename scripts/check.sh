#!/usr/bin/env bash
# The full local gate: release build, the complete test suite, and
# clippy with warnings promoted to errors. CI and pre-merge runs use
# exactly this script, so a clean run here means a clean run there.
set -euo pipefail
cd "$(dirname "$0")/.."

# `check.sh --attack` runs only the adversarial battery: the seeded
# mutation/flood/kill gates plus the attack-focused unit suites. Fast
# enough to run on every data-plane change; the full gate below also
# covers all of it via `cargo test -q` and `repro --quick --gate`.
if [[ "${1:-}" == "--attack" ]]; then
  echo "==> adversarial test battery (mutation taxonomy, 4x flood goodput, shard-kill recovery)"
  cargo test --release -q -p colibri-dataplane --test adversarial
  echo "==> attack-generator + shard-pool unit suites (steering, supervision, exact kill ledger)"
  cargo test --release -q -p colibri-sim --lib attack
  cargo test --release -q -p colibri-dataplane --lib -- parallel:: supervisor::
  cargo test --release -q -p colibri-ring --lib
  echo "==> repro --quick --gate survivability (mutation taxonomy exact, reserved goodput ≥95% under a" \
       "4x flood with zero reserved shed, shard-kill ledger balanced)"
  cargo run --release -q -p colibri-bench --bin repro -- --quick --gate survivability
  echo "==> attack checks passed"
  exit 0
fi

echo "==> cargo build --release"
cargo build --release

# Debug build: overflow checks on. Every property and chaos suite runs
# here once; nothing below re-runs one in release.
echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# A doc link to a renamed or deleted item fails the gate.
echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "==> repro --quick --gate (every paper shape: Figs. 3/4 admission slope ≤0.25; Fig. 5 and" \
     "App. E exact AES counts; Table 2 guarantees ≥0.99, zero unauthentic; §5.3 DoC; OFD no false" \
     "negatives; batched router ≡ scalar and flat in reservations; telemetry ≤2% with verified" \
     "scrape; storm amplification ≤3; survivability ledgers; store O(log n) admit and GC ∝ expired;" \
     "QoS isolation ≥95% with zero reserved drops)"
cargo run --release -q -p colibri-bench --bin repro -- \
  --quick --gate --out target/REPRO.quick.json

echo "==> benchmark/ci.sh (the repo benchmark's own tests, then a 1 s oracle-checked smoke of all" \
     "five workloads, traced and untraced)"
bash benchmark/ci.sh

echo "==> all checks passed"
