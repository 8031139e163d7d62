#!/usr/bin/env bash
# A/A check: runs every workload N times twice over (sets A and B,
# interleaved, every run on its own seed) and prints, per workload and
# end-to-end metric, both medians, each set's quartile spread as a share
# of its median, and the metric's bound from BENCHMARK.json. Exits
# non-zero if a spread (setup_s excepted, as in the driver) or the
# worsening from A to B exceeds the bound. This is the same arithmetic
# the driver applies before it accepts the benchmark.
#
#   bench/aa.sh [N=10] [workload ...]  > table.md
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n="${1:-10}"
shift || true
cd "$root"
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out="$root/.bench_build/aa"
rm -rf "$out"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$n"); do
    for set in A B; do
      seed=$i
      [ "$set" = B ] && seed=$((i + n))
      echo "aa: $w set $set run $i seed $seed" >&2
      bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >> "$out/$w.$set.jsonl"
    done
  done
done
python3 - "$out" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
bad = 0
print("| workload | metric | median A | median B | spread A | spread B | B vs A | bound | ok |")
print("|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"aa: {w} set {s}: a run was not correct", file=sys.stderr)
                bad += 1
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = {}, {}
        for s in "AB":
            vals = [r["metrics"][name]["value"] for r in runs[s]]
            q = statistics.quantiles(vals, n=4)
            med[s] = statistics.median(vals)
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        ok = worse <= bound and (name == "setup_s" or max(spread.values()) <= bound)
        bad += not ok
        print(f"| {w} | {name} | {med['A']:.6g} | {med['B']:.6g} | {spread['A']:.2%} | {spread['B']:.2%} | {worse:+.2%} | {bound:.0%} | {'yes' if ok else 'NO'} |")
sys.exit(1 if bad else 0)
PY
