#!/bin/sh
# Runs every workload twice on one build and compares, per workload and
# end-to-end metric, the two rounds' values against the metric's bound in
# BENCHMARK.json. Exits non-zero if any worsened by more than its bound.
# Extra arguments go to the runner, e.g. `--seed 7 --seconds 5`.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
