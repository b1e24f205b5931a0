#!/usr/bin/env bash
# A/A: two sets of N full runs of the same code, alternating which set
# goes first, then per (workload, end-to-end metric) both medians, the
# quartile spread of each set, the relative difference and the bound.
# Exits non-zero if any end-to-end metric exceeds its bound.
#
#   benchmark/aa.sh [N=5]            every run uses --seed 42
#   SEEDS=vary benchmark/aa.sh 10    run i of each set uses --seed 42+i
#                                    (the acceptance check of BENCHMARK.json)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
dir="$here/out/aa"
rm -rf "$dir"
mkdir -p "$dir"
for i in $(seq 1 "$n"); do
  seed=42
  if [ "${SEEDS:-same}" = vary ]; then seed=$((42 + i)); fi
  if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
  for set in $order; do
    "$here/run.sh" --seed "$seed" >"$dir/$set-$i.log"
    cp "$here/out/results.json" "$dir/$set-$i.json"
  done
done
"$here/run.sh" --report "$dir"
