//! Trace-schema self-check: runs a small traced 4-rank, 2-round pipeline
//! with segmentation and a hierarchy (so nested spans are covered),
//! writes the Chrome trace-event file, parses it back, and verifies the
//! invariants the rest of the tooling relies on:
//!
//! * the document round-trips through `Json::parse` and has a non-empty
//!   `traceEvents` array;
//! * every flow-finish (`ph:"f"`) id has exactly one matching flow-start
//!   (`ph:"s"`) id — message edges pair up;
//! * per-rank **merged** (interval-union) span totals agree with the
//!   telemetry recorder's phase totals within 1% — the raw per-span sum
//!   can legitimately exceed the wall clock when the local stage runs
//!   thread-local gradient/trace spans concurrently;
//! * absent faults, every recv has a matching send and vice versa.
//!
//! Prints the computed critical path and exits non-zero on any violation,
//! so `scripts/verify.sh` can gate on it.
//!
//! ```text
//! cargo run --release -p msp-bench --bin trace_check
//! ```

use msp_bench::emit_trace;
use msp_core::{run_parallel, Input, MergePlan, PipelineParams};
use msp_telemetry::Json;
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;

const RANKS: u32 = 4;
const ROUNDS: &[u32] = &[2, 2]; // 4 blocks -> 2 -> 1

fn main() {
    let field = Arc::new(msp_synth::sinusoid(33, 3));
    let params = PipelineParams {
        persistence_frac: 0.01,
        plan: MergePlan::rounds(ROUNDS.to_vec()),
        trace: true,
        // the hierarchy's nested sizes and per-ordering record spans too
        segment: true,
        hierarchy: true,
        ..Default::default()
    };
    let r = run_parallel(&Input::Memory(field), RANKS, RANKS, &params, None)
        .unwrap_or_else(|e| panic!("traced run failed: {e}"));
    let Some(tr) = &r.trace else {
        eprintln!("FAIL: params.trace was set but RunResult.trace is None");
        exit(1);
    };

    let mut failures = 0u32;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("ok   {what}");
        } else {
            eprintln!("FAIL {what}");
            failures += 1;
        }
    };

    // ---- causal matching on the in-memory trace ----
    let m = tr.match_messages();
    check(!m.edges.is_empty(), "trace carries message flow edges");
    check(
        m.unmatched_sends.is_empty(),
        "every send has a matching recv (fault-free run)",
    );
    check(
        m.unmatched_recvs.is_empty(),
        "every recv has a matching send (fault-free run)",
    );

    // ---- span totals vs the recorder's phase totals ----
    // merged (interval-union) seconds: concurrent thread-local spans of
    // one phase must not double-count, matching the recorder's buckets
    for rank in &r.telemetry.ranks {
        let Some(t) = tr.ranks.iter().find(|t| t.rank == rank.rank) else {
            check(false, &format!("rank {} present in trace", rank.rank));
            continue;
        };
        for (key, rec_s) in &rank.phases {
            let trace_s = t.merged_span_seconds(key);
            let tol = (rec_s * 0.01).max(0.5e-3);
            check(
                (trace_s - rec_s).abs() <= tol,
                &format!(
                    "rank {} phase '{key}': trace {trace_s:.6}s vs recorder {rec_s:.6}s (tol {tol:.6}s)",
                    rank.rank
                ),
            );
        }
    }

    // ---- file round trip ----
    let Some(path) = emit_trace("trace_check", tr) else {
        eprintln!("FAIL: trace file write failed");
        exit(1);
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading back {}: {e}", path.display()));
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: {} does not parse: {e}", path.display());
            exit(1);
        }
    };
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        _ => {
            eprintln!("FAIL: document has no traceEvents array");
            exit(1);
        }
    };
    check(!events.is_empty(), "traceEvents is non-empty");

    let mut n_spans = 0u64;
    let mut flow_starts: HashMap<u64, u32> = HashMap::new();
    let mut flow_finishes: HashMap<u64, u32> = HashMap::new();
    let mut well_formed = true;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "X" => {
                n_spans += 1;
                well_formed &= ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .is_some_and(|d| d >= 0.0)
                    && ev.get("ts").and_then(Json::as_f64).is_some();
            }
            "s" | "f" => {
                let Some(id) = ev.get("id").and_then(Json::as_f64) else {
                    well_formed = false;
                    continue;
                };
                let side = if ph == "s" {
                    &mut flow_starts
                } else {
                    &mut flow_finishes
                };
                *side.entry(id as u64).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    check(
        well_formed,
        "every span event carries numeric ts + dur >= 0",
    );
    check(n_spans > 0, "document contains complete ('X') span events");
    let paired = flow_starts.len() == flow_finishes.len()
        && flow_starts
            .iter()
            .all(|(id, n)| flow_finishes.get(id) == Some(n));
    check(
        paired,
        &format!(
            "flow edges pair up ({} starts, {} finishes)",
            flow_starts.len(),
            flow_finishes.len()
        ),
    );
    check(
        flow_starts.len() == m.edges.len(),
        "file flow-edge count matches in-memory matching",
    );

    // ---- critical path ----
    match tr.critical_path() {
        None => check(false, "critical path computable"),
        Some(cp) => {
            check(
                cp.total_ns <= cp.wall_ns,
                "critical path does not exceed wall clock",
            );
            println!(
                "critical path: {:.3}s on the causal chain, {:.3}s wall clock",
                cp.total_ns as f64 * 1e-9,
                cp.wall_ns as f64 * 1e-9
            );
            for s in cp.ranked() {
                println!(
                    "  rank {:>2}  {:<20} {:>9.3}s  {:>5.1}% of wall",
                    s.rank,
                    s.key,
                    s.dur_ns as f64 * 1e-9,
                    cp.pct_of_wall(&s)
                );
            }
        }
    }

    if failures > 0 {
        eprintln!("\ntrace self-check FAILED ({failures} violation(s))");
        exit(1);
    }
    println!("\ntrace self-check OK");
}
