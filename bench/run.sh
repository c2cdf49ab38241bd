#!/usr/bin/env bash
# The repeatability check as one command: build, run two sets with the
# same seed and one with a second seed, then compare the first two.
# Passes when the same-seed sets agree within the bounds of
# BENCHMARK.json on every (workload, end-to-end metric) pair, their
# exact counts are identical, and the second-seed set verifies all of
# its outputs.
#
#   bench/run.sh [seed] [second-seed] [out-dir]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
other="${2:-2}"
out="${3:-$here/out/$(date +%Y%m%d-%H%M%S)}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/persona-regress"

cd "$here/.."
"$bin" run --seed "$seed" --out "$out/a"
"$bin" run --seed "$seed" --out "$out/b"
"$bin" run --seed "$other" --out "$out/c"
"$bin" compare "$out/a/result.json" "$out/b/result.json" --benchmark BENCHMARK.json
echo "results and trace_<workload>.json files are under $out"
