//! Local-stage scaling: intra-rank thread sweep of the gradient + trace
//! (+ read, + simplify) phases on one rank, with a bit-exactness gate.
//!
//! For each thread count the same fig6-style sinusoid volume runs
//! through the full pipeline on a single rank; per-phase wall-clock
//! comes from the telemetry report (whose parallel-stage buckets hold
//! the interval-union of thread-local spans, i.e. true wall clock), and
//! every run's merged output must be **byte-identical** to the
//! `threads = 1` baseline — the determinism contract of the parallel
//! local stage.
//!
//! Emits `results/BENCH_local.json` (and re-parses it as a schema
//! self-check). Knobs:
//!
//! * `MSP_SCALE=small|default|large` — volume size;
//! * `MSP_THREADS=1,2,4` — comma list of thread counts (default
//!   `1,2,4,8`);
//! * `MSP_ASSERT_SPEEDUP=1` — additionally require that threads=2 does
//!   not regress below serial (≥1.0× gradient+trace on hosts with ≥2
//!   CPUs; on a 1-CPU host the sweep is pure oversubscription, so the
//!   2-thread point is reported but not gated) and ≥2.5× speedup at 4
//!   threads (skipped, with a note, on hosts exposing fewer than 4
//!   CPUs, where wall-clock speedup is physically impossible — the
//!   emitted `host_parallelism` field records this).
//!
//! ```text
//! cargo run --release -p msp-bench --bin local_scaling
//! ```

use msp_bench::{results_dir, Scale, Table};
use msp_complex::wire;
use msp_core::{run_parallel, Input, MergePlan, PipelineParams, RunResult};
use msp_grid::par::available_threads;
use msp_telemetry::{check_from_env, progress_interval_from_env, Json};
use std::sync::Arc;

const BLOCKS: u32 = 8;

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
    let threads: Vec<usize> = match std::env::var("MSP_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("bad MSP_THREADS entry '{t}'"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    };

    let field = Arc::new(msp_synth::sinusoid(size, complexity));
    let input = Input::Memory(field);
    let host = available_threads();
    let kernel = msp_morse::active_kernel().name();
    println!(
        "local-stage scaling: sinusoid {size}^3 complexity {complexity}, \
         1 rank x {BLOCKS} blocks, threads {threads:?}, kernel {kernel}, \
         host parallelism {host}\n"
    );
    let max_t = threads.iter().copied().max().unwrap_or(1);
    if host < max_t {
        println!(
            "note: host exposes only {host} CPU(s); with oversubscribed threads the \
             speedup column measures scheduling overhead, not parallel speedup\n"
        );
    }

    let run = |t: usize| -> RunResult {
        let params = PipelineParams {
            persistence_frac: 0.01,
            plan: MergePlan::full_merge(BLOCKS),
            threads: Some(t),
            check: check_from_env(),
            progress: progress_interval_from_env(),
            ..Default::default()
        };
        let r = run_parallel(&input, 1, BLOCKS, &params, None)
            .unwrap_or_else(|e| panic!("run with {t} thread(s) failed: {e}"));
        // With MSP_CHECK=1 the pipeline runs the oracle invariant
        // checker; a bench sweep must come back violation-free.
        for key in [
            "check_structural",
            "check_euler",
            "check_boundary",
            "check_vpath",
        ] {
            assert_eq!(
                r.telemetry.counter_total(key),
                0,
                "oracle counter {key} nonzero with {t} thread(s)"
            );
        }
        r
    };

    let table = Table::new(&[
        "threads", "kernel", "read_s", "grad_s", "trace_s", "simpl_s", "total_s", "speedup",
    ]);
    let mut baseline_wire: Option<bytes::Bytes> = None;
    let mut baseline_gt: f64 = 0.0;
    let mut rows: Vec<Json> = Vec::new();
    let mut speedup_at = Vec::new();
    for &t in &threads {
        let r = run(t);
        let encoded = wire::serialize(&r.outputs[0]);
        match &baseline_wire {
            None => {
                // the sweep's first entry is the reference; sweeps should
                // start at 1 so the reference is the serial path
                assert_eq!(t, threads[0]);
                baseline_wire = Some(encoded);
            }
            Some(base) => assert_eq!(
                *base, encoded,
                "output with {t} thread(s) diverged from {} thread(s) — \
                 the parallel local stage must be bit-exact",
                threads[0]
            ),
        }
        let (read, grad, trc, simpl, total) = (
            phase(&r, "read"),
            phase(&r, "gradient"),
            phase(&r, "trace"),
            phase(&r, "simplify"),
            phase(&r, "total"),
        );
        let gt = grad + trc;
        if t == threads[0] {
            baseline_gt = gt;
        }
        let speedup = if gt > 0.0 { baseline_gt / gt } else { 1.0 };
        speedup_at.push((t, speedup));
        table.row(&[
            format!("{t}"),
            kernel.to_string(),
            format!("{read:.4}"),
            format!("{grad:.4}"),
            format!("{trc:.4}"),
            format!("{simpl:.4}"),
            format!("{total:.4}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push(Json::obj(vec![
            ("threads", Json::U64(t as u64)),
            ("kernel", Json::str(kernel)),
            ("read_s", Json::F64(read)),
            ("gradient_s", Json::F64(grad)),
            ("trace_s", Json::F64(trc)),
            ("simplify_s", Json::F64(simpl)),
            ("total_s", Json::F64(total)),
            ("speedup_grad_trace", Json::F64(speedup)),
            ("bit_exact_vs_first", Json::Bool(true)),
        ]));
    }
    println!(
        "\nall {} runs produced byte-identical output",
        threads.len()
    );

    let doc = Json::obj(vec![
        ("kind", Json::str("local_scaling")),
        ("kernel", Json::str(kernel)),
        ("volume", Json::str(format!("sinusoid_{size}_{complexity}"))),
        ("blocks", Json::U64(BLOCKS as u64)),
        ("host_parallelism", Json::U64(host as u64)),
        ("runs", Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_local.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_local.json");
    println!("bench written to {}", path.display());

    // schema self-check: the emitted document must round-trip
    let text = std::fs::read_to_string(&path).expect("read back BENCH_local.json");
    let parsed =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    let Json::Obj(top) = &parsed else {
        panic!("BENCH_local.json top level is not an object");
    };
    let n_runs = top
        .iter()
        .find(|(k, _)| k == "runs")
        .map(|(_, v)| match v {
            Json::Arr(a) => a.len(),
            _ => panic!("runs is not an array"),
        })
        .expect("runs present");
    assert_eq!(n_runs, threads.len(), "round-trip preserves the sweep");
    println!("schema self-check OK ({n_runs} runs)");

    if std::env::var("MSP_ASSERT_SPEEDUP").as_deref() == Ok("1") {
        match speedup_at.iter().find(|(t, _)| *t == 2) {
            Some((_, s2)) if host >= 2 => {
                assert!(
                    *s2 >= 1.0,
                    "gradient+trace at 2 threads regressed to {s2:.2}x of serial \
                     — pooled slab buffers must keep the parallel path free"
                );
                println!("no-regression gate OK ({s2:.2}x at 2 threads)");
            }
            Some((_, s2)) => println!(
                "no-regression gate SKIPPED: host exposes {host} CPU(s), \
                 2 threads is pure oversubscription (measured {s2:.2}x)"
            ),
            None => {}
        }
        if host < 4 {
            println!(
                "speedup gate SKIPPED: host exposes {host} CPU(s), \
                 4-thread wall-clock speedup needs at least 4"
            );
        } else {
            let s4 = speedup_at
                .iter()
                .find(|(t, _)| *t == 4)
                .map(|(_, s)| *s)
                .expect("MSP_ASSERT_SPEEDUP needs 4 in the thread sweep");
            assert!(
                s4 >= 2.5,
                "gradient+trace speedup at 4 threads is {s4:.2}x, expected >= 2.5x"
            );
            println!("speedup gate OK ({s4:.2}x at 4 threads)");
        }
    }
}
