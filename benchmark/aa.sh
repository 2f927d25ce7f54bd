#!/usr/bin/env bash
# A-A check: the whole suite twice on the same code (seeds 1 and 2), then
# `compare` fails if any end-to-end metric of any workload differs between
# the two runs by more than its bound in BENCHMARK.json, and prints the
# spread it measured. Takes about four minutes.
#
#   benchmark/aa.sh [OUT_DIR]        (default benchmark/out/aa)
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-benchmark/out/aa}"

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

bench --workload all --seed 1 --out "$out/a"
bench --workload all --seed 2 --out "$out/b"
bench compare "$out/a" "$out/b"
