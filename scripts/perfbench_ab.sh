#!/usr/bin/env bash
# A/B timing of the pipeline benchmark: the working tree (the change)
# against a git revision (the parent), in alternating pairs.
#
#   scripts/perfbench_ab.sh REV WORKLOAD [PAIRS] [SECONDS] [SEED]
#   make perfbench-ab REV=<rev> WORKLOAD=<w> PAIRS=10 SECONDS=30 SEED=1
#
# REV is extracted with `git archive` into a temporary directory outside
# the repository, and both sides' perfbench/main.exe are built. PAIRS
# pairs then run, each side for SECONDS at SEED (--trace 0), the parent
# first in odd pairs and the change first in even ones. Every run's
# result line (the last line perfbench prints) is echoed. Then, for each
# end-to-end metric of BENCHMARK.json, it prints each side's median and
# quartiles, the pairs the change won (ties count for neither) and
# whether the gain rule holds: over at least 10 pairs, the change wins
# at least 9 in 10 of them and the medians differ, in the metric's
# better direction, by more than the parent's interquartile range (with
# fewer pairs it prints "too few pairs"). Quartiles interpolate linearly
# between order statistics. Only the result line is read, so any
# revision whose perfbench prints one can be compared.
set -euo pipefail

usage() {
  echo "usage: $0 REV WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
  exit 2
}
[ $# -ge 2 ] || usage
rev=$1
workload=$2
pairs=${3:-10}
run_s=${4:-30}
seed=${5:-1}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
base="$tmp/base"
mkdir "$base"
git -C "$root" archive --format=tar "$rev" | tar -x -C "$base"

build() {
  (cd "$1" && dune build --root . --display quiet ./perfbench/main.exe)
}
echo "building the change ($root) and $rev ($base)"
build "$root"
build "$base"

results="$tmp/results.tsv"
: >"$results"

# run PAIR SIDE DIR: one benchmark run; its result line goes to the
# results file and to standard output.
run() {
  local out="$tmp/run.out"
  if ! (cd "$3" && ./_build/default/perfbench/main.exe --workload "$workload" \
    --seed "$seed" --seconds "$run_s" --trace 0) >"$out" 2>&1; then
    echo "pair $1 $2: the run failed:" >&2
    tail -n 5 "$out" >&2
    exit 1
  fi
  local line
  line=$(tail -n 1 "$out")
  printf '%s\t%s\t%s\n' "$1" "$2" "$line" >>"$results"
  printf 'pair %s %-6s %s\n' "$1" "$2" "$line"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$i" parent "$base"
    run "$i" change "$root"
  else
    run "$i" change "$root"
    run "$i" parent "$base"
  fi
done

python3 - "$root/BENCHMARK.json" "$results" "$workload" "$rev" <<'PY'
import json
import sys

bench_path, results_path, workload, rev = sys.argv[1:5]
bench = json.load(open(bench_path))
runs = {"parent": {}, "change": {}}
for row in open(results_path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = json.loads(line)
pairs = sorted(runs["parent"])


def quartiles(xs):
    xs = sorted(xs)
    n = len(xs)

    def at(f):
        k = f * (n - 1)
        lo = int(k)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


print(f"{workload}: change vs {rev}, {len(pairs)} pairs")
for side in ("parent", "change"):
    rs = [runs[side][i] for i in pairs]
    print(
        f"  {side}: {sum(r['failed'] for r in rs)} of "
        f"{sum(r['attempted'] for r in rs)} operations failed, "
        f"{sum(1 for r in rs if not r['correct'])} runs incorrect"
    )
for m in bench["end_to_end"]:
    name, better = m["name"], m["better"]
    sign = 1.0 if better == "higher" else -1.0
    p = [runs["parent"][i]["metrics"][name]["value"] for i in pairs]
    c = [runs["change"][i]["metrics"][name]["value"] for i in pairs]
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pq, cq = quartiles(p), quartiles(c)
    if len(pairs) < 10:
        verdict = "too few pairs"
    elif wins * 10 >= 9 * len(pairs) and sign * (cq[1] - pq[1]) > pq[2] - pq[0]:
        verdict = "holds"
    else:
        verdict = "does not hold"
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(
        f"  {name} ({m['unit']}, {better} is better): "
        f"parent {pq[1]:.6g} ({pq[0]:.6g}-{pq[2]:.6g}), "
        f"change {cq[1]:.6g} ({cq[0]:.6g}-{cq[2]:.6g}), "
        f"ratio {ratio:.3f}, change won {wins}/{len(pairs)}, "
        f"gain rule: {verdict}"
    )
PY
