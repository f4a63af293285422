//! Segmentation scaling: rank sweep of the Morse-Smale segmentation
//! stages — measured local label propagation (`segment` phase) against
//! the distributed pointer-jump resolution (`seg_resolve` phase) — with
//! a bit-exactness gate.
//!
//! For each rank count the same fig6-style sinusoid volume runs through
//! the full pipeline with `--segment` on; per-phase wall-clock comes
//! from the telemetry report, the resolution's rounds-to-fixed-point
//! and boundary traffic come from its counters, and every run's
//! resolved labeled volume must be **byte-identical** to the 1-rank
//! baseline — the determinism contract of distributed path compression
//! (DESIGN.md §11).
//!
//! Emits `results/BENCH_segment.json` (and re-parses it as a schema
//! self-check). Knobs:
//!
//! * `MSP_SCALE=small|default|large` — volume size;
//! * `MSP_RANKS=1,2,4` — comma list of rank counts (default `1,2,4,8`;
//!   each must divide the block count);
//! * `MSP_CHECK=1` — run the oracle invariant checker inside every run
//!   (the sweep then fails on any nonzero violation counter).
//!
//! ```text
//! cargo run --release -p msp-bench --bin segment_scaling
//! ```

use msp_bench::{results_dir, Scale, Table};
use msp_core::{run_parallel, Input, MergePlan, PipelineParams, RunResult};
use msp_segment::{jump_round_bound, wire as segwire};
use msp_telemetry::{check_from_env, progress_interval_from_env, Json};
use std::sync::Arc;

const BLOCKS: u32 = 8;

/// Wall-clock of one phase summed over ranks (parallel-stage buckets
/// hold the interval-union of thread-local spans).
fn phase(r: &RunResult, key: &str) -> f64 {
    r.telemetry
        .ranks
        .iter()
        .map(|rk| rk.phase_seconds(key).unwrap_or(0.0))
        .sum()
}

fn main() {
    let scale = Scale::from_env();
    let size = scale.pick(25, 65, 97);
    let complexity = scale.pick(2, 4, 4);
    let ranks: Vec<u32> = match std::env::var("MSP_RANKS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1 && BLOCKS.is_multiple_of(n))
                    .unwrap_or_else(|| panic!("bad MSP_RANKS entry '{t}'"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    };

    let field = Arc::new(msp_synth::sinusoid(size, complexity));
    let input = Input::Memory(field);
    println!(
        "segmentation scaling: sinusoid {size}^3 complexity {complexity}, \
         {BLOCKS} blocks, ranks {ranks:?}\n"
    );

    let run = |n: u32| -> RunResult {
        let params = PipelineParams {
            persistence_frac: 0.01,
            plan: MergePlan::full_merge(BLOCKS),
            segment: true,
            check: check_from_env(),
            progress: progress_interval_from_env(),
            ..Default::default()
        };
        let r = run_parallel(&input, n, BLOCKS, &params, None)
            .unwrap_or_else(|e| panic!("run with {n} rank(s) failed: {e}"));
        // With MSP_CHECK=1 the pipeline runs the oracle invariant
        // checker; a bench sweep must come back violation-free.
        for key in [
            "check_structural",
            "check_euler",
            "check_boundary",
            "check_vpath",
            "check_segment",
        ] {
            assert_eq!(
                r.telemetry.counter_total(key),
                0,
                "oracle counter {key} nonzero with {n} rank(s)"
            );
        }
        r
    };

    let table = Table::new(&[
        "ranks",
        "label_s",
        "resolve_s",
        "rounds",
        "forwards",
        "boundary_B",
        "total_s",
    ]);
    let mut baseline: Option<Vec<bytes::Bytes>> = None;
    let mut baseline_rounds = 0u64;
    let mut rows: Vec<Json> = Vec::new();
    for &n in &ranks {
        let r = run(n);
        let encoded: Vec<bytes::Bytes> = r.segmentation.iter().map(segwire::serialize).collect();
        let rounds = r.telemetry.ranks[0].counter("seg_rounds");
        match &baseline {
            None => {
                // the sweep's first entry is the reference; sweeps
                // should start at 1 so the reference is the serial path
                assert_eq!(n, ranks[0]);
                baseline = Some(encoded);
                baseline_rounds = rounds;
            }
            Some(base) => {
                assert_eq!(
                    base.len(),
                    encoded.len(),
                    "seg block count with {n} rank(s) diverged"
                );
                for (i, (b, e)) in base.iter().zip(&encoded).enumerate() {
                    assert_eq!(
                        b, e,
                        "seg block {i} with {n} rank(s) diverged from {} rank(s) — \
                         distributed path compression must be bit-exact",
                        ranks[0]
                    );
                }
                assert_eq!(
                    rounds, baseline_rounds,
                    "rounds-to-fixed-point with {n} rank(s) diverged — \
                     the jump evolution is partition-independent"
                );
            }
        }
        let forwards = r.telemetry.counter_total("seg_forwards");
        assert!(
            rounds <= jump_round_bound(forwards),
            "{rounds} rounds exceeds the pointer-jumping bound {} for {forwards} forwards",
            jump_round_bound(forwards)
        );
        let bytes = r.telemetry.counter_total("seg_boundary_bytes");
        let (label, resolve, total) = (
            phase(&r, "segment"),
            phase(&r, "seg_resolve"),
            phase(&r, "total"),
        );
        table.row(&[
            format!("{n}"),
            format!("{label:.4}"),
            format!("{resolve:.4}"),
            format!("{rounds}"),
            format!("{forwards}"),
            format!("{bytes}"),
            format!("{total:.4}"),
        ]);
        rows.push(Json::obj(vec![
            ("ranks", Json::U64(n as u64)),
            ("label_s", Json::F64(label)),
            ("resolve_s", Json::F64(resolve)),
            ("rounds", Json::U64(rounds)),
            ("forwards", Json::U64(forwards)),
            ("boundary_bytes", Json::U64(bytes)),
            ("total_s", Json::F64(total)),
            ("bit_exact_vs_first", Json::Bool(true)),
        ]));
    }
    println!(
        "\nall {} runs produced byte-identical labeled volumes \
         ({baseline_rounds} jump round(s) at every rank count)",
        ranks.len()
    );

    let doc = Json::obj(vec![
        ("kind", Json::str("segment_scaling")),
        ("volume", Json::str(format!("sinusoid_{size}_{complexity}"))),
        ("blocks", Json::U64(BLOCKS as u64)),
        ("runs", Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_segment.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_segment.json");
    println!("bench written to {}", path.display());

    // schema self-check: the emitted document must round-trip
    let text = std::fs::read_to_string(&path).expect("read back BENCH_segment.json");
    let parsed =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    let Json::Obj(top) = &parsed else {
        panic!("BENCH_segment.json top level is not an object");
    };
    let n_runs = top
        .iter()
        .find(|(k, _)| k == "runs")
        .map(|(_, v)| match v {
            Json::Arr(a) => a.len(),
            _ => panic!("runs is not an array"),
        })
        .expect("runs present");
    assert_eq!(n_runs, ranks.len(), "round-trip preserves the sweep");
    println!("schema self-check OK ({n_runs} runs)");
}
