#!/usr/bin/env bash
# Repeatability check: two sets of N full runs of the *same* binary,
# alternating A/B, with seeds base+1..base+N in both sets. Prints, per
# (workload, end-to-end metric): both medians, both quartile pairs, each
# set's spread (IQR / median, what the driver computes) and the gap
# between the medians against the metric's bound in BENCHMARK.json.
# Exits non-zero when a gap or a spread (setup_s' spread excepted, as in
# the driver's rule) exceeds its bound, or when the two runs of one seed
# disagree on anything the model decides: the digest, `model_tail_ms`
# (bit for bit) and the attempted and failed counts. The bound on
# `model_tail_ms` in BENCHMARK.json covers its spread *across* seeds,
# which the driver demands; for one seed the only tolerance is zero.
#
# usage: e2ebench/selfcheck.sh [N=5] [base-seed=100]      (from the repo root)
#
# If a wall-clock metric fails: lengthen rounds or add rounds. Do not
# add a normalising kernel (the README's noise section says why).
set -euo pipefail

n=${1:-5}
base=${2:-100}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
target=${CARGO_TARGET_DIR:-e2ebench/target}
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml --target-dir "$target"
bin="$target/release/e2ebench"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

out=$(mktemp -d "${TMPDIR:-/tmp}/e2ebench-selfcheck.XXXXXX")
trap 'rm -rf "$out"' EXIT
for i in $(seq 1 "$n"); do
  for set in A B; do
    for w in $workloads; do
      "$bin" --workload "$w" --seed $((base + i)) --seconds "$seconds" --trace 0 \
        >"$out/$set.$w.$i.log" || true # a failed check is reported below
      echo "set $set run $i $w done" >&2
    done
  done
done

python3 - "$out" "$n" <<'PY'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = 0
print(f"{'workload':12} {'metric':14} {'median A':>12} {'median B':>12} {'gap %':>7} "
      f"{'spread A %':>10} {'spread B %':>10} {'bound %':>8}  quartiles A / B")
def load(path):
    lines = open(path).read().splitlines()
    r = json.loads(lines[-1])
    # The first line reads "== <workload>  seed <n>  rounds <n>  digest <hex>  ...".
    head = lines[0].split()
    r["digest"] = head[head.index("digest") + 1]
    return r
for w in (x["name"] for x in spec["workloads"]):
    runs = {s: [load(f"{out}/{s}.{w}.{i}.log") for i in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"]:
                print(f"{w}: a run of set {s} failed its output checks"); bad += 1
    model = lambda r: (r["digest"], r["metrics"]["model_tail_ms"]["value"], r["attempted"], r["failed"])
    for i, (a, b) in enumerate(zip(runs["A"], runs["B"]), 1):
        if model(a) != model(b):
            print(f"{w}: run {i} of set A and of set B disagree on the model: {model(a)} vs {model(b)}")
            bad += 1
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        v = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(v[s]) for s in "AB"}
        q = {s: statistics.quantiles(v[s], n=4) if n > 1 else [v[s][0]] * 3 for s in "AB"}
        spread = {s: (q[s][2] - q[s][0]) / med[s] for s in "AB"}
        worse = (med["B"] - med["A"]) / med["A"] * (1 if m["better"] == "lower" else -1)
        flag = ""
        if abs(worse) > bound:
            flag += " GAP"
        if name != "setup_s" and max(spread.values()) > bound:
            flag += " SPREAD"
        bad += bool(flag)
        print(f"{w:12} {name:14} {med['A']:12.5g} {med['B']:12.5g} {worse*100:7.2f} "
              f"{spread['A']*100:10.2f} {spread['B']*100:10.2f} {bound*100:8.1f}  "
              f"{q['A'][0]:.5g}..{q['A'][2]:.5g} / {q['B'][0]:.5g}..{q['B'][2]:.5g}{flag}")
sys.exit(1 if bad else 0)
PY
