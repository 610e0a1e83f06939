#!/usr/bin/env bash
# A/A check: runs the full set of workloads twice on the same commit —
# seeds 1 and 1, then 1 and 2 — and fails if any end-to-end metric differs
# between two runs by more than its bound, or if any exact count differs
# between two runs of the same seed.
#
#   benchmark/aa.sh [seconds]      (default: run_seconds of BENCHMARK.json)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
seconds="${1:-$(python3 -c "import json; print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}"
out="$CARGO_TARGET_DIR/aa"
mkdir -p "$out"
status=0
for workload in dp-short-hot dp-long-cold dp-attack-mix cp-flow-churn cp-segr-loaded; do
    for run in a:1:0 b:1:0 c:2:0 a:1:1 b:1:1; do
        IFS=: read -r tag seed trace <<<"$run"
        "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --out "$out/$workload.$tag.$trace.json" >/dev/null
    done
    python3 - "$here/../BENCHMARK.json" "$out/$workload" <<'PY' || status=1
import json, sys
catalog, stem = json.load(open(sys.argv[1])), sys.argv[2]
load = lambda tag, trace: json.load(open(f"{stem}.{tag}.{trace}.json"))
bad = []
a, b, c = load("a", 0), load("b", 0), load("c", 0)
for m in catalog["end_to_end"]:
    base = a["metrics"][m["name"]]["value"]
    for label, other in (("seed 1 vs 1", b), ("seed 1 vs 2", c)):
        diff = abs(other["metrics"][m["name"]]["value"] - base) / base
        flag = "FAIL" if diff > m["bound"] else "ok"
        print(f"{a['workload']:15s} {m['name']:24s} {label}: {100 * diff:6.2f}% of bound {100 * m['bound']:.0f}%  {flag}")
        if diff > m["bound"]:
            bad.append(f"{m['name']} ({label})")
for trace in (0, 1):
    x, y = load("a", trace)["exact_counts"], load("b", trace)["exact_counts"]
    for k in sorted(set(x) | set(y)):
        if x.get(k) != y.get(k):
            bad.append(f"exact count {k}: {x.get(k)} != {y.get(k)} (--trace {trace})")
for r in (a, b, c, load("a", 1), load("b", 1)):
    if not r["correct"]:
        bad.append(f"run incorrect: failed {r['failed']} {r['violations']}")
if bad:
    print(f"{a['workload']}: A/A FAILED: " + "; ".join(bad))
    sys.exit(1)
print(f"{a['workload']}: A/A ok, exact counts identical for equal seeds")
PY
done
exit $status
