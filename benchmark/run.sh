#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--smoke] [--repeat]
#       builds the harness, runs the five workloads untraced, then the
#       traced runs, prints every metric by name with its unit, checks the
#       outputs, writes benchmark/out/result.json (and repeat.json).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object BENCHMARK.json describes.
#
# Exits non-zero when the build fails, an output check fails, or (with
# --repeat) two sets of runs disagree by more than a metric's bound.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/spotcache-benchmark" "$@"
