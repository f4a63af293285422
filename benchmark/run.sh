#!/usr/bin/env bash
# The repository benchmark's one entry point (see README.md beside it).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh selfcheck     # every workload twice, compare to bounds
#   benchmark/run.sh test          # the benchmark's own unit tests
#   benchmark/run.sh build         # build only
#
# Builds `msc` and the benchmark binary without touching the workspace,
# with the direct-rustc + scripts/offline_stubs recipe of
# scripts/check-offline.sh at opt-level 3 with debug assertions off, so
# both sides of any later comparison are built the same way.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

[ -f "$root/src/bin/msc.rs" ] || {
  echo "benchmark: no program source at $root/src/bin/msc.rs" >&2
  exit 3
}

target="$here/target"
build_root="${CARGO_TARGET_DIR:-$target}"
case "$build_root" in /*) ;; *) build_root="$root/$build_root" ;; esac
out="$build_root/msp-benchmark-bin"
info="$out/build.info"
FLAGS=(--edition 2021 -C opt-level=3 -C debug-assertions=off)

# Every file either binary is compiled from.
sources() {
  find "$root/src" "$root/crates" "$here/src" -name '*.rs'
  find "$root/scripts/offline_stubs" -name '*.rs' 2>/dev/null || true
  echo "$here/Cargo.toml"
  echo "$here/run.sh"
}

up_to_date() { # up_to_date <artifact>
  [ -x "$1" ] && [ -f "$info" ] || return 1
  local s
  while IFS= read -r s; do
    [ "$s" -nt "$1" ] && return 1
  done < <(sources)
  return 0
}

RUSTC=(rustc "${FLAGS[@]}" -L "$out" --out-dir "$out")
EXTERNS=()

build_libs() {
  local stubs="$root/scripts/offline_stubs" c
  "${RUSTC[@]}" --crate-type proc-macro --crate-name serde_derive "$stubs/serde_derive.rs"
  "${RUSTC[@]}" --crate-type lib --crate-name serde "$stubs/serde.rs" \
    --extern serde_derive="$out/libserde_derive.so"
  for c in bytes crossbeam rayon rand; do
    "${RUSTC[@]}" --crate-type lib --crate-name "$c" "$stubs/$c.rs"
  done
  "${RUSTC[@]}" --crate-type lib --crate-name rand_chacha "$stubs/rand_chacha.rs" \
    --extern rand="$out/librand.rlib"
  EXTERNS=()
  for c in serde bytes crossbeam rayon rand rand_chacha; do
    EXTERNS+=(--extern "$c=$out/lib$c.rlib")
  done
  # workspace crates in dependency order, as check-offline.sh lists them
  for c in telemetry grid synth morse segment complex hierarchy oracle vmpi fault core; do
    "${RUSTC[@]}" --crate-type lib --crate-name "msp_$c" "$root/crates/$c/src/lib.rs" "${EXTERNS[@]}"
    EXTERNS+=(--extern "msp_$c=$out/libmsp_$c.rlib")
  done
  "${RUSTC[@]}" --crate-type lib --crate-name morse_smale_parallel "$root/src/lib.rs" "${EXTERNS[@]}"
  EXTERNS+=(--extern "morse_smale_parallel=$out/libmorse_smale_parallel.rlib")
}

build() {
  up_to_date "$out/msp_benchmark" && up_to_date "$out/msc" && return 0
  mkdir -p "$out"
  local t0
  t0=$(date +%s.%N)
  build_libs
  "${RUSTC[@]}" --crate-type bin --crate-name msc "$root/src/bin/msc.rs" "${EXTERNS[@]}"
  "${RUSTC[@]}" --crate-type bin --crate-name msp_benchmark "$here/src/main.rs" "${EXTERNS[@]}"
  {
    echo "build_path=rustc"
    echo "rustc=$(rustc -V)"
    echo "flags=${FLAGS[*]}"
    echo "nproc=$(nproc)"
    echo "build_s=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')"
  } >"$info"
}

run_tests() {
  rm -f "$out/msp_benchmark_tests"
  rustc "${FLAGS[@]}" -L "$out" --test --crate-name msp_benchmark "$here/src/main.rs" \
    --extern "morse_smale_parallel=$out/libmorse_smale_parallel.rlib" \
    -o "$out/msp_benchmark_tests"
  "$out/msp_benchmark_tests" -q
}

common=(--msc "$out/msc" --target "$target" --build-info "$info")
case "${1:-}" in
  build) build ;;
  test) build && run_tests ;;
  selfcheck) build && shift && exec "$out/msp_benchmark" selfcheck "${common[@]}" "$@" ;;
  --*) build && exec "$out/msp_benchmark" run "${common[@]}" "$@" ;;
  *)
    sed -n '2,8p' "$0" >&2
    exit 2
    ;;
esac
