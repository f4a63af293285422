//! Load-balance sweep: uniform bisection + block-cyclic assignment vs
//! the adaptive feature-density splitter + LPT assignment (DESIGN.md
//! §14) on the jet-like mixture-fraction field.
//!
//! Both layouts are costed with the **same** model — the per-vertex
//! feature-weight integral over each block (`feature_weights` +
//! `Decomposition::block_costs`) — so the comparison is apples to
//! apples: it measures what the decomposition and assignment policies
//! do to the estimated local-stage work per rank, not what cost proxy
//! each policy happens to record. Per-rank loads go through the
//! telemetry `aggregate` (min/mean/max/imbalance, imbalance = max/mean)
//! and the sweep **gates** on the adaptive imbalance being strictly
//! below uniform at every swept rank count — the jet field's feature
//! density is skewed, so block-cyclic over equal-volume blocks must
//! leave measurable imbalance on the table.
//!
//! One real pipeline run (`--decomp adaptive`) cross-checks the
//! computed loads against the `assign_cost` counter statistics the
//! telemetry layer aggregated across ranks.
//!
//! The deferred multicore speedup gate from ROADMAP item 1 rides along:
//! when the host exposes >= 4 CPUs the sweep times gradient+trace at 1
//! vs 4 threads on the same field and requires >= 2.5x; on smaller
//! hosts the gate is skipped and the JSON records that honestly.
//!
//! Emits `results/BENCH_balance.json` (and re-parses it as a schema
//! self-check). Knobs:
//!
//! * `MSP_SCALE=small|default|large` — volume size;
//! * `MSP_RANKS=2,3,4` — comma list of rank counts (default `2,3,4`);
//! * `MSP_ASSERT_SPEEDUP` is implied: the gate runs whenever the host
//!   can support it.
//!
//! ```text
//! cargo run --release -p msp-bench --bin balance_sweep
//! ```

use msp_bench::{results_dir, Scale, Table};
use msp_core::{feature_weights, run_parallel, Assignment, DecompMode, Input, PipelineParams};
use msp_grid::par::available_threads;
use msp_grid::{Decomposition, ScalarField};
use msp_telemetry::{aggregate, Agg, Json};
use std::sync::Arc;

const BLOCKS: u32 = 8;

fn agg_json(a: Agg) -> Json {
    Json::obj(vec![
        ("min", Json::F64(a.min)),
        ("mean", Json::F64(a.mean)),
        ("max", Json::F64(a.max)),
        ("imbalance", Json::F64(a.imbalance)),
    ])
}

/// Per-rank estimated-cost aggregate of one (decomposition, assignment)
/// pair under the shared feature-weight cost model.
fn layout_loads(d: &Decomposition, a: &Assignment, weights: &[u64], ranks: u32) -> (Vec<u64>, Agg) {
    let costs = d.block_costs(weights);
    let loads = a.loads(&costs, ranks);
    let series: Vec<f64> = loads.iter().map(|&v| v as f64).collect();
    let agg = aggregate(&series);
    (loads, agg)
}

/// Gradient+trace seconds of one pipeline run at a thread budget.
fn grad_trace_seconds(input: &Input, threads: usize) -> f64 {
    let params = PipelineParams {
        persistence_frac: 0.01,
        decomp: DecompMode::Adaptive,
        threads: Some(threads),
        ..Default::default()
    };
    let r = run_parallel(input, 1, BLOCKS, &params, None)
        .unwrap_or_else(|e| panic!("speedup run with {threads} thread(s) failed: {e}"));
    ["gradient", "trace"]
        .iter()
        .map(|key| {
            r.telemetry
                .ranks
                .iter()
                .map(|rk| rk.phase_seconds(key).unwrap_or(0.0))
                .sum::<f64>()
        })
        .sum()
}

fn main() {
    let scale = Scale::from_env();
    let sd = scale.pick(32, 8, 4);
    let dims = msp_synth::jet::jet_dims(sd);
    let modes = scale.pick(40, 160, 160);
    let ranks_list: Vec<u32> = match std::env::var("MSP_RANKS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| (1..=BLOCKS).contains(&n))
                    .unwrap_or_else(|| panic!("bad MSP_RANKS entry '{t}'"))
            })
            .collect(),
        Err(_) => vec![2, 3, 4],
    };
    let host = available_threads();

    let field: Arc<ScalarField> = Arc::new(msp_synth::jet(dims, modes, 2012));
    let weights = feature_weights(&field);
    println!(
        "balance sweep: jet-like {}x{}x{}, {BLOCKS} blocks, ranks {ranks_list:?}, \
         host parallelism {host}\n",
        dims.nx, dims.ny, dims.nz
    );

    let uniform_d = Decomposition::bisect(dims, BLOCKS);
    let adaptive_d = Decomposition::adaptive(dims, BLOCKS, &weights);
    let adaptive_costs = adaptive_d.block_costs(&weights);

    let table = Table::new(&[
        "ranks",
        "uniform_imb",
        "adaptive_imb",
        "uniform_max",
        "adaptive_max",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    let mut last_adaptive_loads: Vec<u64> = Vec::new();
    for &n in &ranks_list {
        let (_, uni) = layout_loads(&uniform_d, &Assignment::round_robin(BLOCKS, n), &weights, n);
        let (loads, ada) = layout_loads(
            &adaptive_d,
            &Assignment::lpt(&adaptive_costs, n),
            &weights,
            n,
        );
        last_adaptive_loads = loads;
        if n >= 2 {
            assert!(
                ada.imbalance < uni.imbalance,
                "{n} ranks: adaptive imbalance {:.4} is not strictly below uniform {:.4}",
                ada.imbalance,
                uni.imbalance
            );
        }
        table.row(&[
            format!("{n}"),
            format!("{:.4}", uni.imbalance),
            format!("{:.4}", ada.imbalance),
            format!("{:.0}", uni.max),
            format!("{:.0}", ada.max),
        ]);
        rows.push(Json::obj(vec![
            ("ranks", Json::U64(n as u64)),
            ("uniform", agg_json(uni)),
            ("adaptive", agg_json(ada)),
            (
                "adaptive_beats_uniform",
                Json::Bool(ada.imbalance < uni.imbalance),
            ),
        ]));
    }
    println!("\nadaptive imbalance strictly below uniform at every swept rank count");

    // Cross-check: a real adaptive pipeline run must record per-rank
    // `assign_cost` whose telemetry aggregation matches the loads
    // computed above (same splitter, same LPT, same cost model).
    let check_ranks = *ranks_list.last().expect("at least one rank count");
    let input = Input::Memory(field.clone());
    let r = run_parallel(
        &input,
        check_ranks,
        BLOCKS,
        &PipelineParams {
            persistence_frac: 0.01,
            decomp: DecompMode::Adaptive,
            ..Default::default()
        },
        None,
    )
    .unwrap_or_else(|e| panic!("adaptive cross-check run failed: {e}"));
    let stat = r
        .telemetry
        .counter_stats
        .iter()
        .find(|s| s.key == "assign_cost")
        .expect("assign_cost counter aggregated");
    let want_min = *last_adaptive_loads.iter().min().unwrap();
    let want_max = *last_adaptive_loads.iter().max().unwrap();
    assert_eq!(
        (stat.min, stat.max),
        (want_min, want_max),
        "pipeline-recorded assign_cost diverged from the sched-layer loads"
    );
    println!(
        "telemetry cross-check OK: assign_cost min/max/imbalance = \
         {}/{}/{:.4} at {check_ranks} ranks",
        stat.min, stat.max, stat.imbalance
    );

    // Deferred multicore gate (ROADMAP item 1): measured when the host
    // can actually show wall-clock speedup, recorded honestly either way.
    let speedup = if host >= 4 {
        let s1 = grad_trace_seconds(&input, 1);
        let s4 = grad_trace_seconds(&input, 4);
        let sp = if s4 > 0.0 { s1 / s4 } else { 0.0 };
        assert!(
            sp >= 2.5,
            "gradient+trace speedup at 4 threads is {sp:.2}x, expected >= 2.5x"
        );
        println!("speedup gate OK ({sp:.2}x at 4 threads)");
        Json::obj(vec![
            ("measured", Json::Bool(true)),
            ("grad_trace_speedup_4t", Json::F64(sp)),
            ("gate", Json::str("ok")),
        ])
    } else {
        println!(
            "speedup gate SKIPPED: host exposes {host} CPU(s), \
             4-thread wall-clock speedup needs at least 4"
        );
        Json::obj(vec![
            ("measured", Json::Bool(false)),
            (
                "gate",
                Json::str(format!("skipped: host exposes {host} CPU(s)")),
            ),
        ])
    };

    let doc = Json::obj(vec![
        ("kind", Json::str("balance_sweep")),
        (
            "volume",
            Json::str(format!("jet_{}x{}x{}", dims.nx, dims.ny, dims.nz)),
        ),
        ("blocks", Json::U64(BLOCKS as u64)),
        ("host_parallelism", Json::U64(host as u64)),
        ("runs", Json::Arr(rows)),
        ("speedup", speedup),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_balance.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_balance.json");
    println!("bench written to {}", path.display());

    // schema self-check: the emitted document must round-trip
    let text = std::fs::read_to_string(&path).expect("read back BENCH_balance.json");
    let parsed =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    let Some(Json::Arr(runs)) = parsed.get("runs") else {
        panic!("BENCH_balance.json has no runs array");
    };
    let n_runs = runs.len();
    assert_eq!(n_runs, ranks_list.len(), "round-trip preserves the sweep");
    println!("schema self-check OK ({n_runs} runs)");
}
