#!/usr/bin/env bash
# The repository's one gate: format, lint, warning-free API docs, release
# build and the full test suite through cargo, then every smoke and
# self-check below. Every dependency is a path inside the repository
# (scripts/offline_stubs/), so it runs with no registry and no network. The smokes gate on bytes
# and counts, never on timings: performance is measured by the
# repository benchmark (benchmark/, BENCHMARK.json), whose traced walk
# also reports the kernel, segmentation and serve layers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release --workspace
cargo test -q --workspace

# the smoke steps below write into one temp dir
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT

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

# traced smoke: the same run on 3 ranks with --trace, where every rank
# hands its report and trace back with its outputs, must write all three
# artifacts byte-identical to the 1-rank run, one trace track per rank,
# and a report over all three ranks
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 3 --blocks 6 --decomp adaptive --merge full \
  --hierarchy --trace "$tracedir/irr3.trace.json" --output "$tracedir/irr3.msc"
for ext in "" .seg .msh; do
  cmp "$tracedir/irr1.msc$ext" "$tracedir/irr3.msc$ext"
done
[ "$(grep -c '"thread_name"' "$tracedir/irr3.trace.json")" = 3 ]
grep -q '"n_ranks": 3' "$tracedir/results/irr3.telemetry.json"

# dtype smoke: the block reader decodes f64 and u8 files plane by plane
# on irregular boxes; a 3-rank adaptive run of each must write the .msc
# byte-identical to the 1-rank run (u8 quantizes the jet to a plateau)
for dt in f64 u8; do
  msc synth --kind jet --size 33 --dtype "$dt" --output "$tracedir/jet_$dt.raw"
  for r in 1 3; do
    msc compute --input "$tracedir/jet_$dt.raw" --dims 33,38,22 --dtype "$dt" \
      --ranks "$r" --blocks 6 --decomp adaptive --merge full --check \
      --output "$tracedir/jet_${dt}_$r.msc"
  done
  cmp "$tracedir/jet_${dt}_1.msc" "$tracedir/jet_${dt}_3.msc"
done

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

# random-tree smoke: a seeded random block tree (--decomp random:SEED)
# on 3 ranks, plain and with checkpoints and rank 1 crashing at the
# first merge round, must write all three artifacts byte-identical to
# the 1-rank run
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 1 --blocks 7 --decomp random:5 --merge full \
  --hierarchy --check --output "$tracedir/rnd1.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 3 --blocks 7 --decomp random:5 --merge full \
  --hierarchy --check --output "$tracedir/rnd3.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 3 --blocks 7 --decomp random:5 --merge full \
  --hierarchy --check --checkpoint --faults 'crash:1@1' --deadline-ms 200 \
  --output "$tracedir/rndf.msc"
for run in rnd3 rndf; do
  for ext in "" .seg .msh; do
    cmp "$tracedir/rnd1.msc$ext" "$tracedir/$run.msc$ext"
  done
done

# same-rank handoff smoke: 8 blocks on 2 ranks merged by three radix-2
# rounds. Rank 0 holds blocks 0-3 and rank 1 blocks 4-7, so every round-1
# and round-2 root sits beside its members, which are handed over in
# memory, and only slot 4 ships, in round 3. Rank 0 crashing at the
# second cut must replay its member 2 from its own checkpoint
# byte-identical to the 1-rank run
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 1 --blocks 8 --merge 2,2,2 \
  --output "$tracedir/hand1.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 2 --blocks 8 --merge 2,2,2 \
  --checkpoint --faults 'crash:0@2' --deadline-ms 200 \
  --output "$tracedir/handf.msc"
cmp "$tracedir/hand1.msc" "$tracedir/handf.msc"

# mixed smoke: 8 blocks on 3 ranks hold blocks 0-2, 3-5 and 6-7, so the
# merge ships slot 3 in round 1, slot 6 in round 2 and slot 4 in round 3
# and hands the rest over; rank 1 crashing in the first round leaves root 2 on
# rank 0 to replay slot 3 from rank 1's checkpoint and rank 1's own root
# 4 to replay slot 5. Both must write the 1-rank bytes.
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 3 --blocks 8 --merge 2,2,2 --check \
  --output "$tracedir/mixed3.msc"
cmp "$tracedir/hand1.msc" "$tracedir/mixed3.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 3 --blocks 8 --merge 2,2,2 \
  --checkpoint --faults 'crash:1@1' --deadline-ms 200 \
  --output "$tracedir/mixedf.msc"
cmp "$tracedir/hand1.msc" "$tracedir/mixedf.msc"

# remote-glue smoke: one block per rank on 4 ranks, merged by two radix-2
# rounds, ships a member to another rank in every round, where the root
# glues it straight from its bytes; rank 1 crashing in the first round
# makes root 0, waiting on its member, glue it from rank 1's checkpoint
# slot's bytes. Both must write the 1-rank bytes.
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 1 --blocks 4 --merge 2,2 \
  --output "$tracedir/remote1.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 4 --blocks 4 --merge 2,2 --check \
  --output "$tracedir/remote4.msc"
cmp "$tracedir/remote1.msc" "$tracedir/remote4.msc"
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 4 --blocks 4 --merge 2,2 \
  --checkpoint --faults 'crash:1@1' --deadline-ms 200 \
  --output "$tracedir/remotef.msc"
cmp "$tracedir/remote1.msc" "$tracedir/remotef.msc"

# message-fault smoke: on 2 ranks the one cross-rank merge ship is rank
# 1's block to root 0. Losing it, or holding it back four deadlines,
# makes root 0 replay it from rank 1's checkpoint: both runs must exit 0
# with one replay and write the fault-free bytes
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 2 --blocks 2 --merge full \
  --output "$tracedir/ship2.msc"
for f in 'drop:1->0#1' 'delay:1->0#1+1200'; do
  msc compute --input "$tracedir/seg.raw" \
    --dims 17,17,17 --ranks 2 --blocks 2 --merge full \
    --deadline-ms 300 --faults "$f" --output "$tracedir/shipf.msc" > "$tracedir/shipf.txt"
  grep -q '1 retry(ies), 1 round(s) replayed' "$tracedir/shipf.txt" \
    || { echo "$f:"; cat "$tracedir/shipf.txt"; exit 1; }
  cmp "$tracedir/ship2.msc" "$tracedir/shipf.msc"
done

# panic smoke: an injected panic is a bug, never recovered, checkpoint or
# not: the run exits 1 at once naming the rank, never hangs (124)
status=0
(cd "$tracedir" && timeout 10 cargo run -q --release --manifest-path "$root/Cargo.toml" \
  --bin msc -- compute --input seg.raw --dims 17,17,17 --ranks 4 --blocks 8 --merge 2,2 \
  --checkpoint --faults 'panic:1@1' --output panic.msc) > /dev/null 2> "$tracedir/panic_err.txt" \
  || status=$?
[ "$status" -eq 1 ] && grep -q '^error: rank 1 panicked' "$tracedir/panic_err.txt" \
  || { echo "panic:1@1: exit $status"; cat "$tracedir/panic_err.txt"; exit 1; }

# threaded-trace smoke: a block's V-path trace chunks its critical cells
# across threads that share one read-only live-voxel set; a sinusoid run
# at 3 threads must write the .msc byte-identical to the 1-thread run
msc synth --kind sinusoid --size 33 --output "$tracedir/sin.raw"
for t in 1 3; do
  msc compute --input "$tracedir/sin.raw" \
    --dims 33,33,33 --ranks 1 --blocks 2 --merge full --threads "$t" --check \
    --output "$tracedir/sin$t.msc"
done
cmp "$tracedir/sin1.msc" "$tracedir/sin3.msc"

# memo smoke: on adaptive blocks the T-junction owner sets leave many
# block-surface lower stars with one owner group, which the gradient
# sweep replays through its star memo like interior ones; a 1-rank and a
# 3-rank run, both under the oracle checker, must write the same .msc
for r in 1 3; do
  msc compute --input "$tracedir/sin.raw" \
    --dims 33,33,33 --ranks "$r" --blocks 6 --decomp adaptive --merge full --check \
    --output "$tracedir/sina$r.msc"
done
cmp "$tracedir/sina1.msc" "$tracedir/sina3.msc"

# serve smoke: precompute an artifact with --hierarchy, drive the query
# layer over stdio with repeated keys, arc geometry read through the
# base's shared geometry, a count threshold at 400 that extends the
# cached count entry at 40, and a threshold at 0.4 that extends the
# cached 0.2 entry; gate on all-ok responses, a nonzero cache hit rate
# and the p50<=p99 latency self-check. The ping after quit must go
# unanswered: the session stops at quit. The 138 cells of arc 196 at
# 0.7 run through nested cancellation splices; their reply is pinned,
# so a change to how geometry is stored, copied or walked cannot move
# them unseen. The ordered keys of the stats and metrics replies are
# pinned too: every series name, label and class the exposition holds.
msc compute --input "$tracedir/seg.raw" \
  --dims 17,17,17 --ranks 2 --blocks 8 --merge full --hierarchy --check \
  --output "$tracedir/serve.msc"
printf '%s\n' \
  '{"op":"datasets"}' \
  '{"op":"threshold","t":0.2}' \
  '{"op":"threshold","t":0.2}' \
  '{"op":"threshold","t":40,"ordering":"count"}' \
  '{"op":"threshold","t":400,"ordering":"count"}' \
  '{"op":"extrema","t":0.2,"top":3}' \
  '{"op":"segment-stats","t":0.2}' \
  '{"op":"arc-geometry","t":0.2,"arc":0}' \
  '{"op":"arc-geometry","t":0.2,"arc":1}' \
  '{"op":"arc-geometry","t":0.2,"arc":2}' \
  '{"op":"arc-geometry","t":0.2,"arc":3}' \
  '{"op":"threshold","t":0.4}' \
  '{"op":"arc-geometry","t":0.7,"arc":196}' \
  '{"op":"stats"}' \
  '{"op":"metrics"}' \
  '{"op":"health"}' \
  '{"op":"quit"}' \
  '{"op":"ping"}' \
  | msc serve "$tracedir/serve.msc" \
      > "$tracedir/serve_out.jsonl" 2> "$tracedir/serve_err.txt"
! grep -q '"ok":false' "$tracedir/serve_out.jsonl" \
  || { echo "serve smoke: error response"; cat "$tracedir/serve_out.jsonl"; exit 1; }
[ "$(wc -l < "$tracedir/serve_out.jsonl")" -eq 17 ] \
  || { echo "serve smoke: expected 17 responses"; cat "$tracedir/serve_out.jsonl"; exit 1; }
[ "$(grep '"arc":196' "$tracedir/serve_out.jsonl" | cksum)" = "1381296253 1009" ] \
  || { echo "serve smoke: arc 196 geometry moved"; grep '"arc":196' "$tracedir/serve_out.jsonl"; exit 1; }
reply_keys() { # reply_keys OP: the keys of the OP reply, in order
  grep "\"op\":\"$1\"" "$tracedir/serve_out.jsonl" | grep -o '"\([^"\\]\|\\.\)*":'
}
[ "$(reply_keys stats | cksum)" = "3292100479 328" ] \
  || { echo "serve smoke: stats keys moved"; reply_keys stats; exit 1; }
[ "$(reply_keys metrics | cksum)" = "3108883139 1253" ] \
  || { echo "serve smoke: metrics keys moved"; reply_keys metrics; exit 1; }
hits="$(grep -o '"hits":[0-9]*' "$tracedir/serve_out.jsonl" | tail -1 | cut -d: -f2)"
[ "${hits:-0}" -gt 0 ] \
  || { echo "serve smoke: cache hit rate is zero"; cat "$tracedir/serve_out.jsonl"; exit 1; }
grep -q 'latency self-check ok' "$tracedir/serve_err.txt" \
  || { echo "serve smoke: missing latency self-check"; cat "$tracedir/serve_err.txt"; exit 1; }
# a request nested 10,000 deep is answered with an error, and the
# session goes on to answer the next line
{ printf '%.0s[' $(seq 10000); echo; echo '{"op":"ping"}'; } \
  | msc serve "$tracedir/serve.msc" > "$tracedir/serve_deep.jsonl" 2> "$tracedir/serve_err.txt" \
  || { echo "serve smoke: nested request killed the server"; cat "$tracedir/serve_err.txt"; exit 1; }
[ "$(wc -l < "$tracedir/serve_deep.jsonl")" -eq 2 ] \
  && head -1 "$tracedir/serve_deep.jsonl" | grep -q '"ok":false' \
  || { echo "serve smoke: expected an error, then a pong"; cat "$tracedir/serve_deep.jsonl"; exit 1; }
# two copies of the artifact as a/x.msc and b/x.msc: both would be
# named x, so serve refuses them by name (exit 1) before loading either
mkdir -p "$tracedir/a" "$tracedir/b"
for f in "$tracedir"/serve.msc*; do
  cp "$f" "$tracedir/a/x${f#"$tracedir"/serve}"
  cp "$f" "$tracedir/b/x${f#"$tracedir"/serve}"
done
status=0
(cd "$tracedir" && timeout 10 cargo run -q --release --manifest-path "$root/Cargo.toml" \
  --bin msc -- serve a/x.msc b/x.msc) < /dev/null > /dev/null 2> "$tracedir/dup_err.txt" \
  || status=$?
[ "$status" -eq 1 ] && grep -q '^error: two datasets named "x"' "$tracedir/dup_err.txt" \
  || { echo "serve: a repeated name: exit $status"; cat "$tracedir/dup_err.txt"; exit 1; }

# the read-only subcommands on the same artifact, and a flag msc does
# not know (here one that was removed) fails the run by name
msc info "$tracedir/serve.msc" > /dev/null
msc stats "$tracedir/serve.msc" --block 0 --top 3 > /dev/null
msc filaments "$tracedir/serve.msc" --block 0 --threshold 0.5 > /dev/null
if msc compute --input "$tracedir/seg.raw" --dims 17,17,17 \
  --output "$tracedir/unknown.msc" --progress 1 2> "$tracedir/unknown_err.txt"; then
  echo "msc compute accepted an unknown flag"; exit 1
fi
grep -q 'unknown flag --progress for compute' "$tracedir/unknown_err.txt" \
  || { echo "unknown flag: wrong error"; cat "$tracedir/unknown_err.txt"; exit 1; }
# a stray positional argument and a value after a switch fail by name too
if msc compute --input "$tracedir/seg.raw" --dims 17,17,17 \
  --output "$tracedir/stray.msc" stray.raw 2> "$tracedir/stray_err.txt"; then
  echo "msc compute accepted a stray argument"; exit 1
fi
grep -q "unexpected argument 'stray.raw' for compute" "$tracedir/stray_err.txt" \
  || { echo "stray argument: wrong error"; cat "$tracedir/stray_err.txt"; exit 1; }
if msc compute --input "$tracedir/seg.raw" --dims 17,17,17 --segment yes \
  --output "$tracedir/switch.msc" 2> "$tracedir/switch_err.txt"; then
  echo "msc compute accepted a value after --segment"; exit 1
fi
grep -q -- "--segment takes no value (got 'yes')" "$tracedir/switch_err.txt" \
  || { echo "switch value: wrong error"; cat "$tracedir/switch_err.txt"; exit 1; }

# invalid layouts: a uniform 6-block run at the default --merge full (no
# power-of-two block count), a radix outside {2, 4, 8}, a full merge of
# more than 2^31 blocks and more blocks than the 16³ cells can hold exit
# 1 with a config error, never a panic (101); a uniform 6-block radix-2
# merge runs, and writes the same .msc at 1 and 3 ranks
refused() { # refused ARGS...: msc compute ARGS exits 1 with a config error
  local status=0
  msc compute --input "$tracedir/seg.raw" --dims 17,17,17 --ranks 2 "$@" \
    --output "$tracedir/layout.msc" > /dev/null 2> "$tracedir/layout_err.txt" || status=$?
  [ "$status" -eq 1 ] && grep -q '^error: invalid pipeline config' "$tracedir/layout_err.txt" \
    || { echo "layout $*: exit $status"; cat "$tracedir/layout_err.txt"; exit 1; }
}
refused --blocks 6
for r in 1 3 16; do refused --blocks 8 --merge "$r"; done
refused --blocks 8 --decomp adaptive --merge 3
refused --blocks 3000000000
refused --blocks 3000000000 --decomp adaptive
refused --blocks 5000 --merge none
for r in 1 3; do
  msc compute --input "$tracedir/seg.raw" --dims 17,17,17 --ranks "$r" --blocks 6 \
    --merge 2 --output "$tracedir/uni6_$r.msc" > /dev/null
done
cmp "$tracedir/uni6_1.msc" "$tracedir/uni6_3.msc"

# hostile footers: msc info on a file whose MSPF footer lies about its
# size, its entry count or an entry's byte run exits 1 with an error,
# never a panic (101) or an aborted allocation (134)
le() { # le N V: V as N little-endian bytes, in printf escapes
  local i
  for ((i = 0; i < $1; i++)); do printf '\\x%02x' $((($2 >> (8 * i)) & 255)); done
}
hostile=(
  "$(le 4 5)$(le 8 4)"                                           # 5 entries, 4-byte body
  "$(le 8 0)"                                                    # empty body
  "$(le 8 -5)"                                                   # body_len 2^64 - 5
  "$(le 4 1)$(le 8 0)$(le 8 $((1 << 40)))$(le 4 0)$(le 8 24)"   # entry len 2^40
  "$(le 4 0xffffffff)$(le 8 4)"                                  # count 2^32 - 1
)
for i in "${!hostile[@]}"; do
  printf "payload!${hostile[$i]}MSPF" > "$tracedir/hostile$i.msc"
  status=0
  msc info "$tracedir/hostile$i.msc" > /dev/null 2> "$tracedir/hostile_err.txt" || status=$?
  [ "$status" -eq 1 ] && grep -q '^error: ' "$tracedir/hostile_err.txt" \
    || { echo "hostile footer $i: exit $status"; cat "$tracedir/hostile_err.txt"; exit 1; }
done

# deep geometry: one MSPF entry holding an MSC3 payload whose one arc is
# a two-cell leaf under 200,000 levels of (empty leaf, cancel(that leaf,
# the level below, that leaf)). The parser accepts it (it decodes to two
# cells at any depth); stats and export walk it to the bottom and must
# exit 0, never abort on a stack overflow (134)
varint() { # varint V: V as unsigned LEB128, in printf escapes
  local v=$1
  while ((v >= 128)); do printf '\\x%02x' $(((v & 127) | 128)); v=$((v >> 7)); done
  printf '\\x%02x' "$v"
}
levels=200000
{
  printf "MSC3$(le 8 9)$(le 8 9)$(le 8 9)$(le 4 1)$(le 4 0)"            # 9³ refined, member 0
  printf "$(le 4 2)$(le 8 0)$(le 4 0)\\x00\\x00$(le 8 1)$(le 4 0x3f800000)\\x01\\x00"
  printf "$(le 4 $((2 * levels + 1)))$(le 4 9)\\x00\\x02\\x02\\x00"       # leaf [1, 0]
  printf '\x00\x00\x01\x00\x01\x00%.0s' $(seq "$levels")
  printf "$(le 4 1)\\x02\\x00$(varint $((4 * levels)))"                    # arc 1 -> 0
} > "$tracedir/deep.msc"
len=$(stat -c %s "$tracedir/deep.msc")
printf "$(le 4 1)$(le 8 0)$(le 8 "$len")$(le 4 0)$(le 8 24)MSPF" >> "$tracedir/deep.msc"
deep() { # deep ARGS...: msc ARGS exits 0
  local status=0
  msc "$@" > "$tracedir/deep_out.txt" 2>&1 || status=$?
  [ "$status" -eq 0 ] \
    || { echo "deep chain, msc $1: exit $status"; cat "$tracedir/deep_out.txt"; exit 1; }
}
deep stats "$tracedir/deep.msc" --block 0
grep -q 'min 2 / median 2 / max 2' "$tracedir/deep_out.txt" \
  || { echo "deep chain: the arc is not two cells"; cat "$tracedir/deep_out.txt"; exit 1; }
deep export "$tracedir/deep.msc" --vtk "$tracedir/deep.vtk"

# zero-cell geometry: the arc is an empty leaf under 30 levels of
# cancel(g, g, g). It decodes to no cells, so the cell bound passes it,
# but an in-order walk would visit 3^30 records; the parser refuses it,
# so stats exits 1 with a decode error, never runs into the timeout (124)
levels=30
{
  printf "MSC3$(le 8 9)$(le 8 9)$(le 8 9)$(le 4 1)$(le 4 0)"            # 9³ refined, member 0
  printf "$(le 4 2)$(le 8 0)$(le 4 0)\\x00\\x00$(le 8 1)$(le 4 0x3f800000)\\x01\\x00"
  printf "$(le 4 $((levels + 1)))$(le 4 0)\\x00\\x00"                      # empty leaf
  printf '\x01\x00\x00\x00%.0s' $(seq "$levels")
  printf "$(le 4 1)\\x02\\x00$(varint $((2 * levels)))"                    # arc 1 -> 0
} > "$tracedir/zero.msc"
len=$(stat -c %s "$tracedir/zero.msc")
printf "$(le 4 1)$(le 8 0)$(le 8 "$len")$(le 4 0)$(le 8 24)MSPF" >> "$tracedir/zero.msc"
status=0
(cd "$tracedir" && timeout 10 cargo run -q --release --manifest-path "$root/Cargo.toml" \
  --bin msc -- stats zero.msc --block 0) > /dev/null 2> "$tracedir/zero_err.txt" || status=$?
[ "$status" -eq 1 ] && grep -q '^error: .*walks more records' "$tracedir/zero_err.txt" \
  || { echo "zero-cell geometry: exit $status"; cat "$tracedir/zero_err.txt"; exit 1; }

# figure smoke: the figures driver regenerates every table and figure
# at small scale into $tracedir; it asserts its gates (the fault sweep's
# bit-identical recoveries, the balance sweep's adaptive-below-uniform
# imbalance, assign_cost cross-check and BENCH_balance.json round trip,
# and the speedup gate on hosts with >= 4 CPUs), so a panic fails the
# gate; its timing columns are not gated
MSP_SCALE=small MSP_RESULTS_DIR="$tracedir" \
  cargo run -q --release -p msp-bench --bin figures > /dev/null

# differential fuzz, the repository's property harness: seeded oracle
# fuzz iterations (a seed the tier-1 spine test does not use) plus a
# replay of the shrunk reproducer corpus; any diff against the reference
# oracle or the canonical 1-rank/1-thread run (bytes, files, work
# counters, hierarchy prefixes) or any invariant violation exits
# non-zero (segmentation is fuzzed four ways: raw labeler diff, wire
# byte-compare, per-block invariants, table liveness)
cargo run -q --release --bin oracle_fuzz -- --iters 150 --seed 5
cargo run -q --release --bin oracle_fuzz -- --replay tests/cases

echo "verify OK"
