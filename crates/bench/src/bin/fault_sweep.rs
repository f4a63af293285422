//! Fault-tolerance overhead sweep on the Fig-9 jet workload: wall time
//! of the threaded pipeline as the injected crash rate rises from 0 to
//! 10%, against a checkpoint-free baseline.
//!
//! ```text
//! cargo run --release -p msp-bench --bin fault_sweep
//! ```
//!
//! Two claims are measured: (1) checkpointing alone (fault rate 0) costs
//! little — the acceptance bar is <15% over baseline; (2) recovered runs
//! stay *bit-identical* to the fault-free result while paying only the
//! detection deadline + replay cost per crash. The second is asserted:
//! the binary fails if any recovered run differs from the baseline.

use msp_bench::{emit_doc, emit_trace, trace_enabled, Scale, Table};
use msp_core::{run_parallel, FaultConfig, Input, MergePlan, PipelineParams};
use msp_fault::FaultPlan;
use msp_grid::Dims;
use msp_telemetry::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: u32 = 8;
const ROUNDS: &[u32] = &[2, 2, 2]; // 8 blocks -> 1, three cut points

fn main() {
    let scale = Scale::from_env();
    let s = scale.pick(24u32, 12, 6);
    let dims = Dims::new(768 / s, 896 / s, 512 / s);
    let field = Arc::new(msp_synth::jet(dims, 160, 2012));
    let input = Input::Memory(field);
    println!(
        "fault sweep: jet-like {}x{}x{}, {} ranks, merge radices {:?}\n",
        dims.nx, dims.ny, dims.nz, RANKS, ROUNDS
    );

    let deadline = Duration::from_millis(250);
    let base_params = PipelineParams {
        persistence_frac: 0.01,
        plan: MergePlan::rounds(ROUNDS.to_vec()),
        trace: trace_enabled(),
        ..Default::default()
    };

    // checkpoint-free baseline
    let t0 = Instant::now();
    let baseline = run_parallel(&input, RANKS, RANKS, &base_params, None)
        .unwrap_or_else(|e| panic!("baseline run failed: {e}"));
    let base_s = t0.elapsed().as_secs_f64();
    let reference: Vec<_> = baseline
        .outputs
        .iter()
        .map(msp_complex::wire::serialize)
        .collect();

    let t = Table::new(&[
        "fault rate",
        "wall(s)",
        "overhead(%)",
        "crashes",
        "retries",
        "replayed",
        "ckpt bytes",
        "identical",
    ]);
    t.row(&[
        "baseline".into(),
        format!("{base_s:.3}"),
        "-".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "ref".into(),
    ]);

    let mut runs = Vec::new();
    let mut diverged = Vec::new();
    for rate in [0.0f64, 0.02, 0.05, 0.10] {
        let plan = (rate > 0.0)
            .then(|| FaultPlan::seeded_crashes(2012, RANKS as usize, ROUNDS.len() as u32, rate));
        let params = PipelineParams {
            fault: FaultConfig {
                plan,
                checkpoint: true,
                deadline,
            },
            ..base_params.clone()
        };
        let t1 = Instant::now();
        let r = run_parallel(&input, RANKS, RANKS, &params, None)
            .unwrap_or_else(|e| panic!("faulty run (rate {rate}) failed: {e}"));
        let wall_s = t1.elapsed().as_secs_f64();
        let overhead = 100.0 * (wall_s - base_s) / base_s;
        let identical = r.outputs.len() == reference.len()
            && r.outputs
                .iter()
                .zip(&reference)
                .all(|(c, want)| msp_complex::wire::serialize(c) == *want);
        let tel = &r.telemetry;
        let label = format!("{:.0}%", rate * 100.0);
        if !identical {
            diverged.push(label.clone());
        }
        t.row(&[
            label.clone(),
            format!("{wall_s:.3}"),
            format!("{overhead:+.1}"),
            format!("{}", tel.counter_total("crashes")),
            format!("{}", tel.counter_total("retries")),
            format!("{}", tel.counter_total("rounds_replayed")),
            format!("{}", tel.counter_total("checkpoint_bytes")),
            if identical { "yes" } else { "NO" }.into(),
        ]);
        if let Some(tr) = &r.trace {
            emit_trace(&format!("fault_sweep_{:.0}pct", rate * 100.0), tr);
        }
        runs.push(Json::obj(vec![
            ("rate", Json::F64(rate)),
            ("wall_s", Json::F64(wall_s)),
            ("overhead_pct", Json::F64(overhead)),
            ("crashes", Json::U64(tel.counter_total("crashes"))),
            ("retries", Json::U64(tel.counter_total("retries"))),
            (
                "rounds_replayed",
                Json::U64(tel.counter_total("rounds_replayed")),
            ),
            (
                "blocks_absorbed",
                Json::U64(tel.counter_total("blocks_absorbed")),
            ),
            (
                "checkpoint_bytes",
                Json::U64(tel.counter_total("checkpoint_bytes")),
            ),
            ("recovery_ms", Json::U64(tel.counter_total("recovery_ms"))),
            ("bit_identical", Json::Bool(identical)),
        ]));
    }

    let doc = Json::obj(vec![
        ("version", Json::U64(msp_telemetry::REPORT_VERSION as u64)),
        ("kind", Json::str("fault_sweep")),
        ("name", Json::str("fault_sweep")),
        (
            "workload",
            Json::str(format!("jet {}x{}x{}", dims.nx, dims.ny, dims.nz)),
        ),
        ("ranks", Json::U64(RANKS as u64)),
        (
            "merge_radices",
            Json::Arr(ROUNDS.iter().map(|&r| Json::U64(r as u64)).collect()),
        ),
        ("deadline_ms", Json::U64(deadline.as_millis() as u64)),
        ("baseline_wall_s", Json::F64(base_s)),
        ("runs", Json::Arr(runs)),
    ]);
    emit_doc("fault_sweep", &doc);
    println!(
        "\nExpected shape: the rate-0 row is pure checkpoint overhead\n\
         (<15% is the acceptance bar); each crash then adds roughly the\n\
         {}ms detection deadline plus one round replay, and every\n\
         recovered run stays bit-identical to the baseline.",
        deadline.as_millis()
    );
    assert!(
        diverged.is_empty(),
        "recovered runs differ from the baseline at fault rate(s) {diverged:?}"
    );
}
