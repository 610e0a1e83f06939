#!/usr/bin/env bash
# The full local gate: release build, the complete test suite, and
# clippy with warnings promoted to errors. CI and pre-merge runs use
# exactly this script, so a clean run here means a clean run there.
#
# Every step runs, whatever the steps before it did: one red step does
# not hide the others. The script ends with the list of failed steps and
# exits non-zero if there is any.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()

# step <name> <command…>: announces and runs one step, recording it as
# failed if the command exits non-zero.
step() {
  local name=$1
  shift
  echo "==> $name"
  if ! "$@"; then
    echo "FAILED: $name"
    failed+=("$name")
  fi
}

# Prints the failed steps and exits 1 if any failed, 0 otherwise.
finish() {
  if (( ${#failed[@]} )); then
    echo "==> ${#failed[@]} step(s) failed:"
    printf '  %s\n' "${failed[@]%%$'\n'*}"
    exit 1
  fi
  echo "==> $1"
  exit 0
}

# `check.sh --attack` runs only the adversarial battery: the seeded
# mutation/flood/kill gates plus the attack-focused unit suites. Fast
# enough to run on every data-plane change; the full gate below also
# covers all of it via `cargo test -q` and `repro --quick --gate`.
if [[ "${1:-}" == "--attack" ]]; then
  step "adversarial test battery (mutation taxonomy, 4x flood goodput, shard-kill recovery)" \
    cargo test --release -q -p colibri-dataplane --test adversarial
  step "attack-generator unit suite" cargo test --release -q -p colibri-sim --lib attack
  step "shard-pool unit suite (steering, supervision, exact kill ledger)" \
    cargo test --release -q -p colibri-dataplane --lib -- supervisor::
  step "ring unit suite" cargo test --release -q -p colibri-ring --lib
  step "repro --quick --gate survivability (mutation taxonomy exact, reserved goodput ≥95% under a
    4x flood with zero reserved shed, shard-kill ledger balanced)" \
    cargo run --release -q -p colibri-bench --bin repro -- --quick --gate survivability
  finish "attack checks passed"
fi

# An island is a module nothing else reaches: none of its top-level
# `pub` items, and no `<mod>::` path, is named anywhere but in its own
# file, its crate root's `pub mod`/`pub use` lines and its crate's own
# tests/. Such code serves no packet, request or figure; delete it or
# give it a caller.
no_islands() {
  local islands=0 f mod crate pattern n users root
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
}
step "no islands (every crates/*/src/<mod>.rs is named outside its own file, crate-root re-exports
    and crate tests)" no_islands

# A caller-less item is one public item nothing names: its name occurs
# exactly once in the workspace's sources, in its own definition. One
# pass counts every word; no allow-list.
no_callerless_items() {
  local words uncalled
  words=$(grep -rohw --include='*.rs' --exclude-dir=target -E '\w+' crates tests examples benchmark \
            | sort | uniq -c) || return 1
  uncalled=$(grep -rnoE --include='*.rs' --exclude-dir=target \
               '^\s*pub ((const|unsafe) )*(fn|struct|enum|trait|type|const|static) \w+' crates/*/src \
    | awk 'NR == FNR { if ($1 == 1) once[$2]; next }
           $NF in once { split($1, at, ":"); print "caller-less: " at[1] ":" at[2] " " $NF }' \
          <(echo "$words") -) || return 1
  [[ -z $uncalled ]] || { echo "$uncalled"; return 1; }
}
step "no caller-less public items (every pub fn/struct/enum/trait/type/const/static under
    crates/*/src/ is named somewhere besides its own definition)" no_callerless_items

step "cargo build --release" cargo build --release

# Debug build: overflow checks on. Every property and chaos suite runs
# here once; nothing below re-runs one in release.
step "cargo test -q" cargo test -q

step "cargo clippy --all-targets -- -D warnings" cargo clippy --all-targets -- -D warnings

# A doc link to a renamed or deleted item fails the gate.
step "cargo doc (broken intra-doc links are errors)" \
  env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

step "repro --quick --gate (every paper shape: Figs. 3/4 admission slope ≤0.25; Fig. 5 exact
    AES blocks and key expansions (one each per hop), ≤288 B per 4-hop reservation, one record
    region per packet, and 4-hop Mpps at r=2^15 ≥0.38x r=1; App. E exact AES counts; Table 2
    guarantees ≥0.99, zero unauthentic; §5.3 DoC; OFD no false negatives; batched router ≡ scalar
    and flat in reservations; telemetry ≤2% with verified scrape; storm amplification ≤3;
    survivability ledgers; store O(log n) admit and GC ∝ expired; QoS isolation ≥95% with zero
    reserved drops)" \
  cargo run --release -q -p colibri-bench --bin repro -- --quick --gate --out target/REPRO.quick.json

step "benchmark/ci.sh (the repo benchmark's own tests, then a 1 s oracle-checked smoke of all
    five workloads, traced and untraced)" bash benchmark/ci.sh

finish "all checks passed"
