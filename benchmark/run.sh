#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package offline, then
# runs it. With no --workload it runs all five workloads (one child
# process each), checks every answer, prints each metric as
# `workload name value unit` and writes out/results.json.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# A run of one workload ends with one JSON line:
#   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the current directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/xwq-benchmark" --dir "$here" "$@"
