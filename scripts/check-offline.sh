#!/usr/bin/env bash
# Offline verification harness: type-check the whole workspace and run
# its (non-proptest) test suites WITHOUT a cargo registry, using the
# API-subset stubs in scripts/offline_stubs/ (see the README there).
#
#   scripts/check-offline.sh          # build everything + run tests
#   scripts/check-offline.sh build    # build/type-check only
#
# This is NOT tier-1 verification (that is scripts/verify.sh, which needs
# the real registry); it is the strongest check available inside the
# offline growth container.
set -euo pipefail

mode="${1:-test}"
root="$(cd "$(dirname "$0")/.." && pwd)"
stubs="$root/scripts/offline_stubs"
out="${MSP_OFFLINE_OUT:-/tmp/msp-offline-check}"
mkdir -p "$out"
out="$(cd "$out" && pwd)" # absolute: the msc smoke steps run from inside it

RUSTC=(rustc --edition 2021 -C opt-level=2 -C debug-assertions=on -L "$out" --out-dir "$out")

say() { printf '== %s\n' "$*"; }

# ---- formatting (mirrors `cargo fmt --all -- --check` in verify.sh) ----
if command -v rustfmt >/dev/null 2>&1; then
  say "rustfmt --check"
  git -C "$root" ls-files '*.rs' | (cd "$root" && xargs rustfmt --edition 2021 --check)
else
  say "rustfmt not installed; skipping format check"
fi

# ---- stub dependency crates ----
say "stubs"
"${RUSTC[@]}" --crate-type proc-macro --crate-name serde_derive "$stubs/serde_derive.rs"
"${RUSTC[@]}" --crate-type lib --crate-name serde "$stubs/serde.rs" \
  --extern serde_derive="$out/libserde_derive.so"
"${RUSTC[@]}" --crate-type lib --crate-name bytes "$stubs/bytes.rs"
"${RUSTC[@]}" --crate-type lib --crate-name crossbeam "$stubs/crossbeam.rs"
"${RUSTC[@]}" --crate-type lib --crate-name rayon "$stubs/rayon.rs"
"${RUSTC[@]}" --crate-type lib --crate-name rand "$stubs/rand.rs"
"${RUSTC[@]}" --crate-type lib --crate-name rand_chacha "$stubs/rand_chacha.rs" \
  --extern rand="$out/librand.rlib"
"${RUSTC[@]}" --crate-type lib --crate-name proptest "$stubs/proptest.rs"

# Every workspace crate gets the full extern set; rustc only resolves the
# ones a crate actually names.
EXTERNS=(
  --extern serde="$out/libserde.rlib"
  --extern bytes="$out/libbytes.rlib"
  --extern crossbeam="$out/libcrossbeam.rlib"
  --extern rayon="$out/librayon.rlib"
  --extern rand="$out/librand.rlib"
  --extern rand_chacha="$out/librand_chacha.rlib"
  --extern proptest="$out/libproptest.rlib"
)
lib() { # lib <crate_name> <path>
  say "lib $1"
  "${RUSTC[@]}" --crate-type lib --crate-name "$1" "$2" "${EXTERNS[@]}"
  EXTERNS+=(--extern "$1=$out/lib$1.rlib")
}

# ---- workspace crates, dependency order ----
lib msp_telemetry "$root/crates/telemetry/src/lib.rs"
lib msp_grid      "$root/crates/grid/src/lib.rs"
lib msp_synth     "$root/crates/synth/src/lib.rs"
lib msp_morse     "$root/crates/morse/src/lib.rs"
lib msp_segment   "$root/crates/segment/src/lib.rs"
lib msp_complex   "$root/crates/complex/src/lib.rs"
lib msp_hierarchy "$root/crates/hierarchy/src/lib.rs"
lib msp_oracle    "$root/crates/oracle/src/lib.rs"
lib msp_vmpi      "$root/crates/vmpi/src/lib.rs"
lib msp_fault     "$root/crates/fault/src/lib.rs"
lib msp_core      "$root/crates/core/src/lib.rs"
lib msp_bench     "$root/crates/bench/src/lib.rs"
lib morse_smale_parallel "$root/src/lib.rs"

# ---- binaries and examples (type-check + link) ----
bin() { # bin <name> <path>
  say "bin $1"
  "${RUSTC[@]}" --crate-type bin --crate-name "$1" "$2" "${EXTERNS[@]}"
}
bin msc "$root/src/bin/msc.rs"
bin oracle_fuzz "$root/src/bin/oracle_fuzz.rs"
for b in "$root"/crates/bench/src/bin/*.rs; do
  bin "bench_$(basename "$b" .rs)" "$b"
done
for e in "$root"/examples/*.rs; do
  bin "example_$(basename "$e" .rs)" "$e"
done

# ---- clippy (mirrors `cargo clippy --workspace --all-targets -D warnings`;
# ---- metadata-only so each target lints in seconds, no codegen) ----
if command -v clippy-driver >/dev/null 2>&1; then
  CLIPPY=(clippy-driver --edition 2021 -L "$out" --emit=metadata
          --out-dir "$out/clippy" -W clippy::all -D warnings)
  mkdir -p "$out/clippy"
  lint_lib() { # lint_lib <crate_name> <path> — --test also covers #[cfg(test)]
    say "clippy: $1"
    "${CLIPPY[@]}" --test --crate-name "$1" "$2" "${EXTERNS[@]}"
  }
  lint_bin() { # lint_bin <name> <path>
    say "clippy: $1"
    "${CLIPPY[@]}" --crate-type bin --crate-name "$1" "$2" "${EXTERNS[@]}"
  }
  lint_lib msp_telemetry "$root/crates/telemetry/src/lib.rs"
  lint_lib msp_grid      "$root/crates/grid/src/lib.rs"
  lint_lib msp_synth     "$root/crates/synth/src/lib.rs"
  lint_lib msp_morse     "$root/crates/morse/src/lib.rs"
  lint_lib msp_segment   "$root/crates/segment/src/lib.rs"
  lint_lib msp_complex   "$root/crates/complex/src/lib.rs"
  lint_lib msp_hierarchy "$root/crates/hierarchy/src/lib.rs"
  lint_lib msp_oracle    "$root/crates/oracle/src/lib.rs"
  lint_lib msp_vmpi      "$root/crates/vmpi/src/lib.rs"
  lint_lib msp_fault     "$root/crates/fault/src/lib.rs"
  lint_lib msp_core      "$root/crates/core/src/lib.rs"
  lint_lib msp_bench     "$root/crates/bench/src/lib.rs"
  lint_lib morse_smale_parallel "$root/src/lib.rs"
  lint_bin msc "$root/src/bin/msc.rs"
  lint_bin oracle_fuzz "$root/src/bin/oracle_fuzz.rs"
  for b in "$root"/crates/bench/src/bin/*.rs; do
    lint_bin "bench_$(basename "$b" .rs)" "$b"
  done
  for e in "$root"/examples/*.rs; do
    lint_bin "example_$(basename "$e" .rs)" "$e"
  done
  for t in "$root"/crates/*/tests/*.rs "$root"/tests/*.rs; do
    [ -e "$t" ] || continue
    say "clippy: itest $(basename "$t" .rs)"
    "${CLIPPY[@]}" --test --crate-name "itest_$(basename "$t" .rs)" "$t" "${EXTERNS[@]}"
  done
else
  say "clippy-driver not installed; skipping lint check"
fi

[ "$mode" = build ] && { say "build OK (tests skipped)"; exit 0; }

# ---- unit tests (in-crate #[cfg(test)] modules) ----
unit() { # unit <crate_name> <path>
  say "unit tests: $1"
  "${RUSTC[@]}" --test --crate-name "$1" "$2" "${EXTERNS[@]}" -o "$out/test_$1"
  "$out/test_$1" --test-threads "$(nproc)" -q
}
unit msp_telemetry "$root/crates/telemetry/src/lib.rs"
unit msp_grid      "$root/crates/grid/src/lib.rs"
unit msp_synth     "$root/crates/synth/src/lib.rs"
unit msp_morse     "$root/crates/morse/src/lib.rs"
unit msp_segment   "$root/crates/segment/src/lib.rs"
unit msp_complex   "$root/crates/complex/src/lib.rs"
unit msp_hierarchy "$root/crates/hierarchy/src/lib.rs"
unit msp_oracle    "$root/crates/oracle/src/lib.rs"
unit msp_vmpi      "$root/crates/vmpi/src/lib.rs"
unit msp_fault     "$root/crates/fault/src/lib.rs"
unit msp_core      "$root/crates/core/src/lib.rs"
unit msp_bench     "$root/crates/bench/src/lib.rs"

# ---- integration tests (tests/*.rs; proptest-based ones run against the
# ---- proptest stub: same cases, fixed seeds, no shrinking) ----
itest() { # itest <path>
  local name
  name="itest_$(basename "$1" .rs)"
  say "integration test: $1"
  "${RUSTC[@]}" --test --crate-name "$name" "$1" "${EXTERNS[@]}" -o "$out/$name"
  "$out/$name" --test-threads "$(nproc)" -q
}
for t in "$root"/crates/*/tests/*.rs "$root"/tests/*.rs; do
  [ -e "$t" ] || continue
  itest "$t"
done

# ---- trace-schema self-check (round-trip parse, flow-edge pairing,
# ---- span totals vs recorder) on a real traced run ----
say "trace self-check"
mkdir -p "$out/results"
MSP_RESULTS_DIR="$out/results" "$out/bench_trace_check"

# ---- kernel microbench smoke: flat vs two-heap kernels on tiny
# ---- workloads, gating on bit-exact gradient bytes + arc stores and
# ---- the bench-schema round-trip
say "kernel microbench smoke"
MSP_SCALE=small MSP_RESULTS_DIR="$out/results" "$out/bench_kernel_bench"

# ---- local-stage scaling smoke: thread sweep on a tiny volume, gating
# ---- on bit-exact output across thread counts + bench-schema round-trip
# ---- (no speedup assertion: smoke volumes are too small to time);
# ---- MSP_CHECK=1 runs the oracle invariant checker inside every run
# ---- and the bench fails on any nonzero violation counter
say "local-stage scaling smoke"
MSP_CHECK=1 MSP_SCALE=small MSP_THREADS=1,2,4 MSP_RESULTS_DIR="$out/results" \
  "$out/bench_local_scaling"

# ---- segmentation scaling smoke: rank sweep with --segment on, gating
# ---- on byte-identical labeled volumes, partition-independent round
# ---- counts and the pointer-jumping round bound
say "segmentation scaling smoke"
MSP_CHECK=1 MSP_SCALE=small MSP_RANKS=1,2,4 MSP_RESULTS_DIR="$out/results" \
  "$out/bench_segment_scaling"

# ---- msc writes results/<name>.telemetry.json under its working
# ---- directory; the smoke steps run it from $out so none lands beside
# ---- the committed artifacts in the repository's results/
msc() { (cd "$out" && "$out/msc" "$@"); }

# ---- segmentation end-to-end smoke: a 4-rank --segment --check run
# ---- must write a labeled volume byte-identical to the 1-rank run,
# ---- and the labeled-volume export must read it back
say "segmentation end-to-end smoke"
msc synth --kind noise --size 17 --seed 9 --output "$out/seg.raw"
msc compute --input "$out/seg.raw" --dims 17,17,17 --ranks 1 --blocks 8 \
  --merge full --segment --check --output "$out/seg1.msc"
msc compute --input "$out/seg.raw" --dims 17,17,17 --ranks 4 --blocks 8 \
  --merge full --segment --check --output "$out/seg4.msc"
cmp "$out/seg1.msc.seg" "$out/seg4.msc.seg"
msc export "$out/seg4.msc" --labels combined \
  --labels-vtk "$out/labels.vtk" --labels-csv "$out/labels.csv"

# ---- irregular-decomposition smoke: adaptive (feature-density) splits
# ---- on non-power-of-two rank counts must write all three artifacts
# ---- byte-identical to the canonical 1-rank uniform-free run
say "irregular decomposition smoke"
msc compute --input "$out/seg.raw" --dims 17,17,17 --ranks 1 --blocks 6 \
  --decomp adaptive --merge full --hierarchy --check --output "$out/irr1.msc"
msc compute --input "$out/seg.raw" --dims 17,17,17 --ranks 4 --blocks 6 \
  --decomp adaptive --merge full --hierarchy --check --output "$out/irr4.msc"
cmp "$out/irr1.msc" "$out/irr4.msc"
cmp "$out/irr1.msc.seg" "$out/irr4.msc.seg"
cmp "$out/irr1.msc.msh" "$out/irr4.msc.msh"

# ---- serve smoke: precompute an artifact with --hierarchy, drive the
# ---- query layer over stdio with repeated keys, and gate on all-ok
# ---- responses, a nonzero cache hit rate and the p50<=p99 latency
# ---- self-check in the serve summary
say "serve smoke"
msc compute --input "$out/seg.raw" --dims 17,17,17 --ranks 2 --blocks 8 \
  --merge full --hierarchy --check --output "$out/serve.msc"
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
  | msc serve "$out/serve.msc" --threads 2 \
      > "$out/serve_out.jsonl" 2> "$out/serve_err.txt"
! grep -q '"ok":false' "$out/serve_out.jsonl" \
  || { echo "serve smoke: error response"; cat "$out/serve_out.jsonl"; exit 1; }
[ "$(wc -l < "$out/serve_out.jsonl")" -eq 10 ] \
  || { echo "serve smoke: expected 10 responses"; cat "$out/serve_out.jsonl"; exit 1; }
hits="$(grep -o '"hits":[0-9]*' "$out/serve_out.jsonl" | tail -1 | cut -d: -f2)"
[ "${hits:-0}" -gt 0 ] \
  || { echo "serve smoke: cache hit rate is zero"; cat "$out/serve_out.jsonl"; exit 1; }
grep -q 'latency self-check ok' "$out/serve_err.txt" \
  || { echo "serve smoke: missing latency self-check"; cat "$out/serve_err.txt"; exit 1; }

# ---- serve latency bench smoke: query-mix x cache-size sweep emitting
# ---- the schema-self-checked BENCH_serve.json (with histogram-vs-exact
# ---- quantile deltas gated by MSP_CHECK)
say "serve latency smoke"
MSP_CHECK=1 MSP_SCALE=small MSP_RESULTS_DIR="$out/results" "$out/bench_serve_latency"

# ---- metrics agreement check: live registry served over real TCP —
# ---- Prometheus text vs JSON snapshot vs shutdown report within 1%
say "metrics check"
"$out/bench_metrics_check"

# ---- balance sweep smoke: uniform bisection vs the adaptive splitter
# ---- under the shared feature-weight cost model; gates on adaptive
# ---- imbalance strictly below uniform at every swept rank count and
# ---- cross-checks the pipeline's assign_cost telemetry
say "balance sweep smoke"
MSP_SCALE=small MSP_RESULTS_DIR="$out/results" "$out/bench_balance_sweep"

# ---- benchmark drift report (warn-only, exit 0): committed
# ---- BENCH_*.json vs the baselines under results/baselines
say "bench trend"
MSP_RESULTS_DIR="$root/results" MSP_BASELINE_DIR="$root/results/baselines" \
  "$out/bench_bench_trend"

# ---- differential-fuzz smoke: seeded oracle fuzz iterations plus a
# ---- replay of the shrunk reproducer corpus; any diff against the
# ---- reference oracle or any invariant violation exits non-zero
# ---- (segmentation is fuzzed four ways: raw labeler diff, wire
# ---- byte-compare, per-block invariants, table liveness)
say "oracle fuzz smoke"
"$out/oracle_fuzz" --iters 25 --seed 5
say "oracle corpus replay"
"$out/oracle_fuzz" --replay "$root/tests/cases"

say "offline check OK"
