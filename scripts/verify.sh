#!/usr/bin/env bash
# Lint, docs, figures, fuzz and the benchmark build around the one gate.
# The gate is the tier-1 command below, `cargo build --release && cargo
# test -q`: it runs every workspace test, the `msc` command-line tests
# (tests/cli.rs) and the .case corpus (tests/cases/). This script adds
# what a test cannot hold: format, lint and warning-free API docs, the
# figures driver's gates, a longer seeded fuzz run, and a build and the
# unit tests of the detached benchmark package, which compiles the
# program by its own recipe. Every dependency is a path inside the
# repository (scripts/offline_stubs/), so it runs with no registry and
# no network. Nothing here gates on timings: performance is measured by
# the repository benchmark (benchmark/, BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release && cargo test -q

# figure smoke: the figures driver regenerates every table and figure
# at small scale into a temp dir; it asserts its gates (the fault sweep's
# bit-identical recoveries, the balance sweep's adaptive-below-uniform
# imbalance, assign_cost cross-check and BENCH_balance.json round trip,
# and the speedup gate on hosts with >= 4 CPUs), so a panic fails the
# gate; its timing columns are not gated
figdir="$(mktemp -d)"
trap 'rm -rf "$figdir"' EXIT
MSP_SCALE=small MSP_RESULTS_DIR="$figdir" \
  cargo run -q --release -p msp-bench --bin figures > /dev/null

# differential fuzz at a seed the tier-1 spine test does not use: any
# diff against the reference oracle or the canonical 1-rank/1-thread run
# (bytes, files, work counters, hierarchy prefixes) or any invariant
# violation exits non-zero
cargo run -q --release --bin oracle_fuzz -- --iters 150 --seed 5

# the benchmark compiles the program's sources by its own rustc recipe
# into benchmark/target/, so a renamed function it calls fails here
bash benchmark/run.sh build
bash benchmark/run.sh test

echo "verify OK"
