#!/usr/bin/env bash
# The repository's one gate: format, lint, release build and the full
# test suite through cargo, then every smoke and self-check below. Every
# dependency is a path inside the repository (scripts/offline_stubs/),
# so it runs with no registry and no network. The smokes gate on bytes
# and counts, never on timings: performance is measured by the
# repository benchmark (benchmark/, BENCHMARK.json), whose traced walk
# also reports the kernel, segmentation and serve layers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace

# trace-schema self-check: round-trip parse + flow-edge pairing +
# span-vs-recorder totals on a real traced run (exits non-zero on drift)
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
MSP_RESULTS_DIR="$tracedir" cargo run -q --release -p msp-bench --bin trace_check

# msc writes results/<name>.telemetry.json under its working directory;
# the smoke steps run it from $tracedir so none lands beside the
# committed artifacts in results/
root="$PWD"
msc() {
  (cd "$tracedir" \
    && cargo run -q --release --manifest-path "$root/Cargo.toml" --bin msc -- "$@")
}

# segmentation end-to-end smoke: a 4-rank --segment --check run must
# write a labeled volume byte-identical to the 1-rank run, and the
# labeled-volume export must read it back
msc synth --kind noise --size 17 --seed 9 \
  --output "$tracedir/seg.raw"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 1 --blocks 8 --merge full --segment --check \
  --output "$tracedir/seg1.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 4 --blocks 8 --merge full --segment --check \
  --output "$tracedir/seg4.msc"
cmp "$tracedir/seg1.msc.seg" "$tracedir/seg4.msc.seg"
msc export "$tracedir/seg4.msc" \
  --labels combined --labels-vtk "$tracedir/labels.vtk" \
  --labels-csv "$tracedir/labels.csv"

# irregular-decomposition smoke: adaptive (feature-density) splits on
# non-power-of-two rank counts must write all three artifacts
# byte-identical to the canonical 1-rank run
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 1 --blocks 6 --decomp adaptive --merge full \
  --hierarchy --check --output "$tracedir/irr1.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 4 --blocks 6 --decomp adaptive --merge full \
  --hierarchy --check --output "$tracedir/irr4.msc"
cmp "$tracedir/irr1.msc" "$tracedir/irr4.msc"
cmp "$tracedir/irr1.msc.seg" "$tracedir/irr4.msc.seg"
cmp "$tracedir/irr1.msc.msh" "$tracedir/irr4.msc.msh"

# fault-recovery smoke: the same adaptive run with checkpoints and rank 1
# crashing at the first merge round must recover all three artifacts
# byte-identical to the canonical 1-rank run
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 4 --blocks 6 --decomp adaptive --merge full \
  --hierarchy --check --checkpoint --faults 'crash:1@1' --deadline-ms 200 \
  --output "$tracedir/irrf.msc"
cmp "$tracedir/irr1.msc" "$tracedir/irrf.msc"
cmp "$tracedir/irr1.msc.seg" "$tracedir/irrf.msc.seg"
cmp "$tracedir/irr1.msc.msh" "$tracedir/irrf.msc.msh"

# fault sweep smoke: checkpointed runs at crash rates 0-10 % on a small
# jet; the binary asserts every recovered run is bit-identical to the
# fault-free baseline (its overhead column is not gated)
MSP_SCALE=small MSP_RESULTS_DIR="$tracedir" \
  cargo run -q --release -p msp-bench --bin fault_sweep > /dev/null

# serve smoke: precompute an artifact with --hierarchy, drive the query
# layer over stdio with repeated keys, and gate on all-ok responses, a
# nonzero cache hit rate and the p50<=p99 latency self-check
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 2 --blocks 8 --merge full --hierarchy --check \
  --output "$tracedir/serve.msc"
printf '%s\n' \
  '{"op":"datasets"}' \
  '{"op":"threshold","t":0.2}' \
  '{"op":"threshold","t":0.2}' \
  '{"op":"threshold","t":40,"ordering":"count"}' \
  '{"op":"extrema","t":0.2,"top":3}' \
  '{"op":"segment-stats","t":0.2}' \
  '{"op":"stats"}' \
  '{"op":"metrics"}' \
  '{"op":"health"}' \
  '{"op":"quit"}' \
  | msc serve "$tracedir/serve.msc" --threads 2 \
      > "$tracedir/serve_out.jsonl" 2> "$tracedir/serve_err.txt"
! grep -q '"ok":false' "$tracedir/serve_out.jsonl" \
  || { echo "serve smoke: error response"; cat "$tracedir/serve_out.jsonl"; exit 1; }
[ "$(wc -l < "$tracedir/serve_out.jsonl")" -eq 10 ] \
  || { echo "serve smoke: expected 10 responses"; cat "$tracedir/serve_out.jsonl"; exit 1; }
hits="$(grep -o '"hits":[0-9]*' "$tracedir/serve_out.jsonl" | tail -1 | cut -d: -f2)"
[ "${hits:-0}" -gt 0 ] \
  || { echo "serve smoke: cache hit rate is zero"; cat "$tracedir/serve_out.jsonl"; exit 1; }
grep -q 'latency self-check ok' "$tracedir/serve_err.txt" \
  || { echo "serve smoke: missing latency self-check"; cat "$tracedir/serve_err.txt"; exit 1; }

# metrics agreement check: live registry served over real TCP — the
# Prometheus text exposition, the {"op":"metrics"} JSON snapshot and
# the shutdown report must agree within 1%
cargo run -q --release -p msp-bench --bin metrics_check

# balance sweep smoke: uniform bisection vs the adaptive splitter under
# the shared feature-weight cost model; gates on adaptive imbalance
# strictly below uniform at every swept rank count, cross-checks the
# pipeline's assign_cost telemetry, and runs the deferred multicore
# speedup gate when the host exposes >= 4 CPUs
MSP_SCALE=small MSP_RESULTS_DIR="$tracedir" \
  cargo run -q --release -p msp-bench --bin balance_sweep

# simulator smoke: the figure and table binaries run the stage list on
# virtual ranks (a panic or error fails the gate)
for bin in fig5_workloads fig6_sweep fig9_jet fig10_rt table1_merge_cost table2_strategy; do
  MSP_SCALE=small MSP_RESULTS_DIR="$tracedir" \
    cargo run -q --release -p msp-bench --bin "$bin" > /dev/null
done

# differential-fuzz smoke: seeded oracle fuzz iterations plus a replay
# of the shrunk reproducer corpus; any diff against the reference
# oracle or any invariant violation exits non-zero (segmentation is
# fuzzed four ways: raw labeler diff, wire byte-compare, per-block
# invariants, table liveness)
cargo run -q --release --bin oracle_fuzz -- --iters 25 --seed 5
cargo run -q --release --bin oracle_fuzz -- --replay tests/cases

echo "verify OK"
