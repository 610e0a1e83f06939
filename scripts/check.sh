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
  cargo test --release -q -p colibri-dataplane --lib -- supervisor::
  cargo test --release -q -p colibri-ring --lib
  echo "==> repro --quick --gate survivability (mutation taxonomy exact, reserved goodput ≥95% under a" \
       "4x flood with zero reserved shed, shard-kill ledger balanced)"
  cargo run --release -q -p colibri-bench --bin repro -- --quick --gate survivability
  echo "==> attack checks passed"
  exit 0
fi

# An island is a module nothing else reaches: none of its top-level
# `pub` items, and no `<mod>::` path, is named anywhere but in its own
# file, its crate root's `pub mod`/`pub use` lines and its crate's own
# tests/. Such code serves no packet, request or figure; delete it or
# give it a caller.
echo "==> no islands (every crates/*/src/<mod>.rs is named outside its own file, crate-root" \
     "re-exports and crate tests)"
islands=0
for f in crates/*/src/*.rs; do
  mod=$(basename "$f" .rs)
  crate=${f%/src/*}
  [[ $mod == lib || $mod == main ]] && continue
  pattern="\\b${mod}::"
  for n in $(grep -oE '^pub (unsafe )?(fn|struct|enum|trait|type|const|static|mod|union) \w+' "$f" \
               | awk '{print $NF}'); do
    pattern+="|\\b$n\\b"
  done
  users=$(grep -rlE --include='*.rs' --exclude-dir=target "$pattern" crates tests examples benchmark \
            | grep -vxF -e "$f" -e "$crate/src/lib.rs" | grep -v "^$crate/tests/" || true)
  root=$(sed '/^pub use/,/;/d; /^pub mod/d' "$crate/src/lib.rs" 2>/dev/null | grep -cE "$pattern" || true)
  if [[ -z $users && ${root:-0} == 0 ]]; then
    echo "island: $f has no user outside its own file, its crate root's re-exports and $crate/tests/"
    islands=1
  fi
done
(( islands == 0 ))

# A caller-less item is one public item nothing names: its name occurs
# exactly once in the workspace's sources, in its own definition. One
# pass counts every word; no allow-list.
echo "==> no caller-less public items (every pub fn/struct/enum/trait/type/const/static under" \
     "crates/*/src/ is named somewhere besides its own definition)"
words=$(grep -rohw --include='*.rs' --exclude-dir=target -E '\w+' crates tests examples benchmark \
          | sort | uniq -c)
uncalled=$(grep -rnoE --include='*.rs' --exclude-dir=target \
             '^\s*pub ((const|unsafe) )*(fn|struct|enum|trait|type|const|static) \w+' crates/*/src \
  | awk 'NR == FNR { if ($1 == 1) once[$2]; next }
         $NF in once { split($1, at, ":"); print "caller-less: " at[1] ":" at[2] " " $NF }' \
        <(echo "$words") -)
[[ -z $uncalled ]] || { echo "$uncalled"; false; }

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

echo "==> repro --quick --gate (every paper shape: Figs. 3/4 admission slope ≤0.25; Fig. 5 exact" \
     "AES blocks and key expansions (one each per hop) and 4-hop Mpps at r=2^15 ≥0.38x r=1; App. E" \
     "exact AES counts; Table 2 guarantees ≥0.99, zero unauthentic; §5.3 DoC; OFD no false" \
     "negatives; batched router ≡ scalar and flat in reservations; telemetry ≤2% with verified" \
     "scrape; storm amplification ≤3; survivability ledgers; store O(log n) admit and GC ∝ expired;" \
     "QoS isolation ≥95% with zero reserved drops)"
cargo run --release -q -p colibri-bench --bin repro -- \
  --quick --gate --out target/REPRO.quick.json

echo "==> benchmark/ci.sh (the repo benchmark's own tests, then a 1 s oracle-checked smoke of all" \
     "five workloads, traced and untraced)"
bash benchmark/ci.sh

echo "==> all checks passed"
