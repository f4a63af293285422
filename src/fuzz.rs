//! Differential-fuzz driver: turn a [`Case`] into actual
//! pipeline runs and diff them against the naive reference oracle.
//!
//! This lives in the facade crate (not in `msp-oracle`) because it needs
//! the full pipeline — `msp-core` depends on `msp-oracle` for `--check`,
//! so the oracle crate cannot depend back on the pipeline. The
//! `oracle_fuzz` binary is a thin CLI over this module.
//!
//! One case runs four comparisons:
//!
//! 1. **Per-block differential** — the production gradient
//!    (`assign_gradient`, serial and 2-thread slab-parallel), the arcs
//!    of the block complex the pipeline builds from it
//!    (`complex_from_gradient_mt` at 1 and 2 threads: end addresses and
//!    flattened leaf geometry), and raw segmentation labels
//!    (`label_block`) against the reference implementations, byte for
//!    byte / address by address.
//! 2. **Pipeline run at the case's configuration** (ranks, threads,
//!    decomposition, merge schedule, injected faults) with the invariant
//!    checker and segmentation on: every `check_*` telemetry counter
//!    of [`RunResult::check_verdict`] must come back zero, the
//!    outputs' member blocks must partition the block set, one output
//!    per slot the case's layout ([`Case::layout`]) leaves, each
//!    injected fault must have fired (`crashes`, else `retries`), and the
//!    fault counters must account for the plan: with one, checkpoint
//!    bytes and at least [`FAULT_DEADLINE_MS`] of `recovery_ms` per retry;
//!    without, every recovery counter 0.
//! 3. **Canonical replay** — the same field and schedule at 1 rank /
//!    1 thread, no faults: outputs, resolved segmentations and
//!    hierarchies must be bit-identical to run 2's, in memory and in the
//!    `.msc`/`.seg`/`.msh` files both runs write, and so must the work
//!    counters (cells paired, critical cells, arcs traced,
//!    cancellations, segmentation forwards and rounds).
//! 4. **Post-hoc invariants** — `check_complex` + glue idempotency +
//!    the verdict's segmentation-table liveness over the outputs on the
//!    driver side (belt and braces: this also covers the checker's own
//!    wiring into the pipeline), and, with a hierarchy, that every `count` record
//!    merges an extremum, and a chain of three replay
//!    prefixes per slot and ordering drawn from the case seed: `extend`,
//!    `materialize_k` and a direct simplification agree, and the
//!    remapped label tables agree between the two runs.
//!
//! Failures shrink greedily through [`Case::shrink_candidates`] until no
//! smaller case still fails, then dump as a replayable `.case` file.

use msp_complex::{
    complex_from_gradient_mt, simplify_with, wire as cwire, CancelOrder, CancelRecord,
    SimplifyParams, SimplifyStats,
};
use msp_core::{
    msh_output_path, run_parallel, seg_output_path, FaultConfig, Input, PipelineParams, RunResult,
};
use msp_grid::{FaultEvent, ScalarField, SplitMix64};
use msp_hierarchy::{compress_forwards, region_sizes, remap_tables, Materialized, Ordering};
use msp_morse::{assign_gradient, assign_gradient_par};
use msp_oracle::case::FAULT_DEADLINE_MS;
use msp_oracle::reference::{
    arcs_of_complex, diff_arcs, diff_gradient, reference_arcs, reference_gradient,
};
use msp_oracle::segcheck::{diff_segmentation, reference_segmentation};
use msp_oracle::{check_complex, check_glue_idempotent, Case, CheckOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

/// Counters that measure work done (not timing): a case run must count
/// exactly what its canonical run counts. `seg_forwards` stays last.
const WORK_COUNTERS: [&str; 5] = [
    "cells_paired",
    "critical_cells",
    "arcs_traced",
    "cancellations",
    "seg_forwards",
];

/// Counters of fault recovery: each is 0 on a run without a fault.
const FAULT_COUNTERS: [&str; 5] = [
    "crashes",
    "retries",
    "rounds_replayed",
    "recovery_ms",
    "checkpoint_bytes",
];

fn pipeline_params(case: &Case, canonical: bool) -> PipelineParams {
    // a lost or late member costs its root one deadline; waiting too
    // short only replays a live member's identical bytes
    let fault = FaultConfig {
        plan: case.fault.clone().filter(|_| !canonical),
        deadline: Duration::from_millis(FAULT_DEADLINE_MS),
        ..Default::default()
    };
    PipelineParams {
        persistence_frac: case.persistence,
        plan: case.plan(),
        decomp: case.decomp,
        fault,
        threads: Some(if canonical { 1 } else { case.threads as usize }),
        check: !canonical,
        segment: true,
        hierarchy: case.hierarchy,
        ..Default::default()
    }
}

/// Run the case (or its canonical form), writing its artifacts to
/// `output` and the `.seg`/`.msh` files beside it.
fn run_pipeline(
    field: &ScalarField,
    case: &Case,
    canonical: bool,
    output: &Path,
) -> Result<RunResult, String> {
    let input = Input::Memory(Arc::new(field.clone()));
    let ranks = if canonical { 1 } else { case.ranks };
    run_parallel(
        &input,
        ranks,
        case.blocks,
        &pipeline_params(case, canonical),
        Some(output),
    )
    .map_err(|e| {
        format!(
            "pipeline ({}): {e}",
            if canonical { "canonical" } else { "case" }
        )
    })
}

/// Run one case through every comparison. `Ok(())` means clean.
pub fn run_case(case: &Case) -> Result<(), String> {
    case.validate()?;
    // a directory of its own for the case's artifact files
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
    let dir = std::env::temp_dir().join(format!("msp_fuzz_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = std::panic::catch_unwind(|| run_case_inner(case, &dir));
    std::fs::remove_dir_all(&dir).ok();
    match result {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// [`run_case`] with `dir` for the artifact files.
fn run_case_inner(case: &Case, dir: &Path) -> Result<(), String> {
    let field = case.field();
    let layout = case.layout().map_err(|e| e.to_string())?;
    let decomp = &layout.decomp;

    // 1. per-block differential against the reference oracle
    for b in decomp.blocks() {
        let bf = field.extract_block(b);
        let want = reference_gradient(&bf, decomp);
        let got = assign_gradient(&bf, decomp);
        if let Some(d) = diff_gradient(&got, &want) {
            return Err(format!(
                "block {}: gradient differs from reference: {d}",
                b.id
            ));
        }
        let par = assign_gradient_par(&bf, decomp, 2);
        if par.bytes() != got.bytes() {
            return Err(format!(
                "block {}: 2-thread gradient differs from serial",
                b.id
            ));
        }
        // the arcs the pipeline builds, leaf bytes included, serial and
        // on two trace workers
        let refined = field.dims().refined();
        let want_arcs = reference_arcs(&want, &refined);
        for threads in [1, 2] {
            let (ms, _) = complex_from_gradient_mt(&bf, decomp, &got, Default::default(), threads);
            if let Some(d) = diff_arcs(&arcs_of_complex(&ms), &want_arcs) {
                return Err(format!(
                    "block {}: built arcs ({threads} thread(s)) differ from reference: {d}",
                    b.id
                ));
            }
        }
        // raw (pre-resolution) segmentation labels against the naive
        // step-at-a-time reference walk, as global addresses
        let seg = msp_segment::label_block(b, &refined, &got, 1);
        let got_min: Vec<u64> = seg.min_label.iter().map(|&l| seg.min_addr(l)).collect();
        let got_max: Vec<u64> = seg.max_label.iter().map(|&l| seg.max_addr(l)).collect();
        let want_seg = reference_segmentation(b, &refined, &want);
        if let Some(d) = diff_segmentation(&got_min, &got_max, &want_seg) {
            return Err(format!(
                "block {}: segmentation differs from reference: {d}",
                b.id
            ));
        }
    }

    // 2. the case's configuration, invariant checker on
    let (run_path, canon_path) = (dir.join("case.msc"), dir.join("canon.msc"));
    let run = run_pipeline(&field, case, false, &run_path)?;
    let verdict = run.check_verdict();
    if let Some((c, n)) = verdict.violations.iter().find(|(_, n)| *n != 0) {
        return Err(format!("invariant counter {} = {n} (want 0)", c.key()));
    }
    let checks = run.telemetry.counter_total("checks_run");
    if checks != run.outputs.len() as u64 {
        return Err(format!(
            "checks_run = {checks} but the run has {} output(s)",
            run.outputs.len()
        ));
    }
    // the outputs' members partition the blocks, one output per slot
    // the layout's schedule leaves
    let mut members: Vec<u32> = (run.outputs.iter())
        .flat_map(|c| c.member_blocks.iter().copied())
        .collect();
    members.sort_unstable();
    let outputs = run.outputs.len();
    if members != (0..case.blocks).collect::<Vec<_>>() || outputs != layout.sched.outputs.len() {
        return Err(format!("{outputs} output(s) with members {members:?}"));
    }
    // a fault that never fires tests nothing
    let counter = |key| run.telemetry.counter_total(key);
    for e in case.fault.iter().flat_map(|p| &p.events) {
        let crash = matches!(e, FaultEvent::Crash { .. });
        let key = if crash { "crashes" } else { "retries" };
        if counter(key) == 0 {
            return Err(format!("fault {e} never fired: {key} = 0"));
        }
    }
    // the fault counters account for the plan: a plan always
    // checkpoints, and a timed-out receive is charged its wait, at least
    // the deadline; a run without one recovers nothing
    let tally: Vec<(&str, u64)> = FAULT_COUNTERS.iter().map(|&k| (k, counter(k))).collect();
    let waits = counter("retries") * FAULT_DEADLINE_MS;
    let accounted = match case.fault {
        Some(_) => counter("checkpoint_bytes") > 0 && counter("recovery_ms") >= waits,
        None => tally.iter().all(|&(_, n)| n == 0),
    };
    if !accounted {
        return Err(format!(
            "fault counters {tally:?} do not account for the plan"
        ));
    }

    // 3. canonical replay: 1 rank, 1 thread, no fault — bit-identical
    let canon = run_pipeline(&field, case, true, &canon_path)?;
    compare_with_canonical(case, &run, &canon)?;
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()));
    for (a, b) in artifact_paths(case, &run_path)
        .iter()
        .zip(artifact_paths(case, &canon_path))
    {
        if read(a)? != read(&b)? {
            return Err(format!(
                "file {:?} differs from the canonical 1-rank/1-thread run's",
                a.file_name().unwrap_or_default()
            ));
        }
    }

    // 4. post-hoc invariants on the driver side
    let opts = CheckOptions::default();
    for (i, ms) in run.outputs.iter().enumerate() {
        let report = check_complex(ms, decomp, Some(&field), &opts);
        if !report.is_clean() {
            return Err(format!(
                "output {i}: {} invariant violation(s): {:?}",
                report.total(),
                report.notes
            ));
        }
        check_glue_idempotent(ms, decomp)
            .map_err(|e| format!("output {i}: glue idempotency: {e}"))?;
    }
    // every resolved label indexes its table (the SEG1 decoder checks),
    // and every representative must be a live critical node of
    // matching Morse index in the covering output complex
    for seg in &run.segmentation {
        msp_segment::wire::deserialize(&msp_segment::wire::serialize(seg))
            .map_err(|e| format!("seg block {}: {e}", seg.block_id))?;
    }
    let tables = &verdict.tables;
    if tables.segment != 0 {
        return Err(format!(
            "{} segmentation-table violation(s): {:?}",
            tables.segment, tables.notes
        ));
    }
    if case.hierarchy {
        check_prefix_chains(case, &run, &canon)?;
    }
    Ok(())
}

/// The artifact files a run of `case` writes to `output`.
fn artifact_paths(case: &Case, output: &Path) -> Vec<PathBuf> {
    let mut paths = vec![output.to_path_buf(), seg_output_path(output)];
    if case.hierarchy {
        paths.push(msh_output_path(output));
    }
    paths
}

/// `got` must serialize item by item to the same bytes as `want`.
fn same_bytes<T>(
    what: &str,
    got: &[T],
    want: &[T],
    serialize: impl Fn(&T) -> bytes::Bytes,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what} count {} != canonical {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let (wa, wb) = (serialize(a), serialize(b));
        if wa != wb {
            return Err(format!(
                "{what} {i} differs from the canonical 1-rank/1-thread run \
                 ({} vs {} bytes)",
                wa.len(),
                wb.len()
            ));
        }
    }
    Ok(())
}

/// Step 3: the case run's outputs, segmentations, hierarchies and work
/// counters against the canonical run's.
fn compare_with_canonical(case: &Case, run: &RunResult, canon: &RunResult) -> Result<(), String> {
    same_bytes("output", &run.outputs, &canon.outputs, cwire::serialize)?;
    same_bytes(
        "seg block",
        &run.segmentation,
        &canon.segmentation,
        msp_segment::wire::serialize,
    )?;
    if case.hierarchy {
        same_bytes(
            "hierarchy",
            &run.hierarchies,
            &canon.hierarchies,
            msp_hierarchy::wire::serialize,
        )?;
    }
    // the work counters, and the pointer-jumping rounds, which are a
    // function of the forward graph alone
    let work = |r: &RunResult| -> Vec<u64> {
        (WORK_COUNTERS.iter().map(|k| r.telemetry.counter_total(k)))
            .chain([r.telemetry.ranks[0].counter("seg_rounds")])
            .collect()
    };
    let (got, want) = (work(run), work(canon));
    let (forwards, rounds) = (got[4], got[5]);
    if got != want || rounds > msp_segment::jump_round_bound(forwards) {
        return Err(format!(
            "work counters {WORK_COUNTERS:?} + seg_rounds: {got:?}, canonical {want:?}"
        ));
    }
    Ok(())
}

/// The segmentation tables after replaying `forwards` on top of the
/// resolved base tables, as SEG1 bytes.
fn remapped_seg_bytes(r: &RunResult, forwards: &[(u64, u64)]) -> Vec<bytes::Bytes> {
    let resolved = compress_forwards(forwards);
    (r.segmentation.iter())
        .map(|seg| {
            let mut seg = seg.clone();
            remap_tables(&mut seg, &resolved);
            msp_segment::wire::serialize(&seg)
        })
        .collect()
}

/// Step 4 with a hierarchy: every `count` record merges an extremum (it
/// has a forward entry and does not join two saddles), and per slot and
/// ordering, a chain of three prefixes at thresholds drawn from the case
/// seed, each reached by
/// `extend` from the last. Every link must equal `materialize_k` from
/// the base and a direct simplification at its threshold — complex
/// bytes, forwards, executed stats, records applied — the direct result
/// must recompact to itself, and the label tables remapped through its
/// forwards must agree with the canonical run's.
fn check_prefix_chains(case: &Case, run: &RunResult, canon: &RunResult) -> Result<(), String> {
    let mut rng = SplitMix64::new(case.seed);
    let sizes = region_sizes(run.segmentation.iter());
    let link = |m: &Materialized| (cwire::serialize(&m.complex), m.forwards.clone(), m.stats);
    for (slot, (h, base)) in run.hierarchies.iter().zip(&run.outputs).enumerate() {
        // count is a pure extremum-merge sequence
        let index = |addr| base.node_at(addr).map(|n| base.nodes[n as usize].index);
        let saddles =
            |r: &CancelRecord| (index(r.upper_addr), index(r.lower_addr)) == (Some(2), Some(1));
        let count = h.records(Ordering::Count).unwrap_or_default();
        if let Some(i) = count.iter().position(|r| r.forward.is_none() || saddles(r)) {
            return Err(format!(
                "hierarchy slot {slot} count record {i} merges no extremum"
            ));
        }
        for ordering in h.orderings() {
            let records = h.records(ordering).expect("listed ordering");
            let mut chain = Vec::with_capacity(3);
            for _ in 0..3 {
                let t = match records.len() {
                    0 => f32::INFINITY,
                    n => records[rng.below(n as u64) as usize].key,
                };
                let k = h.prefix_len(ordering, t).map_err(|e| e.to_string())?;
                chain.push((k, t));
            }
            chain.sort_by_key(|&(k, _)| k);
            let mut extended = (h.materialize_k(base, ordering, 0)).map_err(|e| e.to_string())?;
            for (k, t) in chain {
                let at = format!("hierarchy slot {slot} {ordering} prefix {k} (t={t})");
                let err = |e: &dyn std::fmt::Display| format!("{at}: {e}");
                extended = h.extend(&extended, ordering, k).map_err(|e| err(&e))?;
                let scratch = h.materialize_k(base, ordering, k).map_err(|e| err(&e))?;
                let mut direct = base.clone();
                let mut order = match ordering {
                    Ordering::Difference => CancelOrder::Difference,
                    Ordering::Count => CancelOrder::Count(sizes.clone()),
                };
                let sp = SimplifyParams {
                    threshold: t,
                    max_new_arcs: h.params.max_new_arcs,
                    max_parallel_arcs: h.params.max_parallel_arcs,
                };
                let mut fw = Vec::new();
                let stats = simplify_with(&mut direct, sp, &mut order, None, Some(&mut fw))
                    .map_err(|e| err(&e))?;
                direct.compact();
                // a replay executes cancellations only: the pairs the
                // live loop popped and skipped are not part of it
                let executed = SimplifyStats {
                    skipped_valence: 0,
                    ..stats
                };
                let want = (cwire::serialize(&direct), fw, executed);
                if link(&extended) != want || link(&scratch) != want {
                    return Err(err(&"extend, materialize_k and a direct simplify disagree"));
                }
                if (extended.applied, scratch.applied) != (k, k) {
                    return Err(err(&"wrong number of records applied"));
                }
                let sound = direct.check_integrity().is_ok();
                direct.compact();
                if !sound
                    || direct.check_integrity().is_err()
                    || cwire::serialize(&direct) != want.0
                {
                    return Err(err(&"recompaction is not a fixed point"));
                }
                let cm = canon.hierarchies[slot]
                    .materialize_k(&canon.outputs[slot], ordering, k)
                    .map_err(|e| err(&e))?;
                if remapped_seg_bytes(run, &extended.forwards)
                    != remapped_seg_bytes(canon, &cm.forwards)
                {
                    return Err(err(&"remapped labels differ from the canonical run's"));
                }
            }
        }
    }
    Ok(())
}

/// Greedily shrink a failing case: keep taking the first
/// shrink-candidate that still fails until none does.
pub fn shrink(case: &Case, max_steps: usize) -> Case {
    let mut cur = case.clone();
    for _ in 0..max_steps {
        let Some(next) =
            (cur.shrink_candidates().into_iter()).find(|c| *c != cur && run_case(c).is_err())
        else {
            break;
        };
        cur = next;
    }
    cur
}

/// A failure found by [`fuzz`], already shrunk.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The iteration that first failed.
    pub iteration: u64,
    /// The original failing case's error.
    pub reason: String,
    /// The shrunk reproducer and its error.
    pub shrunk: Case,
    pub shrunk_reason: String,
}

/// Run `iters` generated cases from `seed`. Returns the first failure
/// (shrunk), or `Ok(iters)` when every case is clean. `progress` gets a
/// line per case.
pub fn fuzz(
    iters: u64,
    seed: u64,
    mut progress: impl FnMut(u64, &Case),
) -> Result<u64, Box<FuzzFailure>> {
    let mut rng = SplitMix64::new(seed);
    for i in 0..iters {
        let case = Case::generate(&mut rng);
        progress(i, &case);
        if let Err(reason) = run_case(&case) {
            let shrunk = shrink(&case, 64);
            let shrunk_reason = run_case(&shrunk).err().unwrap_or_else(|| reason.clone());
            return Err(Box::new(FuzzFailure {
                iteration: i,
                reason,
                shrunk,
                shrunk_reason,
            }));
        }
    }
    Ok(iters)
}

/// A replayed case's file name and its outcome.
pub type ReplayOutcome = (String, Result<(), String>);

/// Replay every `.case` file under `path` (or `path` itself when it is a
/// file). Returns the replayed cases' names with their outcomes.
pub fn replay_path(path: &Path) -> Result<Vec<ReplayOutcome>, String> {
    let mut files: Vec<std::path::PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?
            .filter_map(|r| r.ok().map(|d| d.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("no .case files under {}", path.display()));
    }
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        let case: Case = text
            .parse()
            .map_err(|e| format!("parsing {}: {e}", f.display()))?;
        let name = f
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| f.display().to_string());
        out.push((name, run_case(&case)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::{DecompMode, FaultPlan};
    use msp_oracle::{FieldKind, Schedule};

    fn quick_case(blocks: u32, ranks: u32, schedule: Schedule) -> Case {
        Case {
            kind: FieldKind::Noise,
            dims: [6, 6, 6],
            seed: 5,
            ranks,
            blocks,
            decomp: DecompMode::Uniform,
            threads: 2,
            schedule,
            persistence: 0.05,
            hierarchy: false,
            fault: None,
        }
    }

    #[test]
    fn faulted_case_is_clean() {
        let mut c = quick_case(4, 2, Schedule::Full);
        c.fault = Some("crash:1@1".parse().unwrap());
        run_case(&c).unwrap();
    }

    #[test]
    fn irregular_faults_fit_the_contracted_schedule() {
        let mut c = quick_case(6, 3, Schedule::Full);
        c.decomp = DecompMode::RandomTree { seed: 42 };
        let rounds = c.layout().unwrap().sched.n_rounds() as u32;
        assert!((1..5).contains(&rounds), "{rounds} contracted rounds");
        c.fault = Some(FaultPlan::new().crash(2, rounds + 2));
        let err = run_case(&c).unwrap_err();
        let want = format!("fault clause \"crash:2@{}\" names cut", rounds + 2);
        assert!(err.contains(&want), "{err}");
        // the last cut is the pre-write one
        c.fault = Some(FaultPlan::new().crash(2, rounds + 1));
        run_case(&c).unwrap();
    }

    /// A fault that never fires is a failure: a delay within the
    /// deadline makes no root replay anything.
    #[test]
    fn a_fault_that_never_fires_fails_the_case() {
        let mut c = quick_case(4, 2, Schedule::Rounds(vec![2, 2]));
        c.fault = Some("delay:1->0#1+1".parse().unwrap());
        let err = run_case(&c).unwrap_err();
        assert!(err.contains("never fired: retries = 0"), "{err}");
        c.fault = Some("drop:1->0#1".parse().unwrap());
        run_case(&c).unwrap();
    }

    /// The property spine: generated cases from a fixed seed, which must
    /// reach every dimension the generator folds in, so a later edit to
    /// `Case::generate` cannot silently drop one. Seed 1234's 60 cases
    /// fault 22 times (10 crashes, 7 drops, 5 delays; the first delay is
    /// case 2), since the fault kind is drawn before the layout and a
    /// drop or a delay redraws its layout until it ships across ranks.
    /// 23 of them are large; five are uniform trees of 16 or 32 blocks,
    /// three of them merging 32 blocks (cases 5, 11 and 26).
    #[test]
    fn short_fuzz_run_is_clean() {
        let mut seen = Vec::new();
        let n = fuzz(60, 1234, |_, c| seen.push(c.clone())).unwrap_or_else(|f| {
            panic!(
                "iteration {} failed: {}\nshrunk to:\n{}{}",
                f.iteration, f.reason, f.shrunk, f.shrunk_reason
            )
        });
        assert_eq!(n, 60);
        let hit = |what: &str, p: &dyn Fn(&Case) -> bool| {
            assert!(seen.iter().any(p), "no generated case with {what}");
        };
        hit("noise", &|c| c.kind == FieldKind::Noise);
        hit("plateaus", &|c| matches!(c.kind, FieldKind::Plateau(_)));
        hit("a sinusoid", &|c| matches!(c.kind, FieldKind::Sinusoid(_)));
        hit("bumps", &|c| matches!(c.kind, FieldKind::Bumps(_)));
        hit("a constant", &|c| c.kind == FieldKind::Constant);
        hit("a uniform tree", &|c| c.decomp == DecompMode::Uniform);
        hit("an adaptive tree", &|c| c.decomp == DecompMode::Adaptive);
        hit("a random tree", &|c| {
            matches!(c.decomp, DecompMode::RandomTree { .. })
        });
        hit("a hierarchy", &|c| c.hierarchy);
        hit("no hierarchy", &|c| !c.hierarchy);
        let event = |c: &Case, p: &dyn Fn(&FaultEvent, u32) -> bool| {
            let Some(plan) = &c.fault else { return false };
            let rounds = c.layout().unwrap().sched.n_rounds() as u32;
            plan.events.iter().any(|e| p(e, rounds))
        };
        hit("a rank-0 crash", &|c| {
            event(c, &|e, _| matches!(e, FaultEvent::Crash { rank: 0, .. }))
        });
        hit("a crash at the pre-write cut", &|c| {
            event(
                c,
                &|e, rounds| matches!(e, FaultEvent::Crash { round, .. } if *round == rounds + 1),
            )
        });
        hit("a dropped ship", &|c| {
            event(c, &|e, _| matches!(e, FaultEvent::DropMsg { .. }))
        });
        hit("a delayed ship", &|c| {
            event(c, &|e, _| matches!(e, FaultEvent::DelayMsg { .. }))
        });
        hit("threads > 2", &|c| c.threads > 2);
        hit("a non-power-of-two rank count", &|c| {
            !c.ranks.is_power_of_two()
        });
        // the large draw: axes past 8 and uniform trees past 8 blocks
        let large = |c: &Case| c.dims.iter().any(|&a| a >= 9);
        hit("an axis >= 9", &large);
        hit("a uniform tree of >= 16 blocks", &|c| {
            c.decomp.is_uniform() && c.blocks >= 16
        });
        hit("a merging uniform tree of 32 blocks", &|c| {
            c.decomp.is_uniform() && c.blocks == 32 && c.schedule != Schedule::None
        });
        hit("a large case with a hierarchy", &|c| {
            large(c) && c.hierarchy
        });
        hit("a large case at >= 4 threads", &|c| {
            large(c) && c.threads >= 4
        });
        hit("a large plateau or constant field", &|c| {
            large(c) && matches!(c.kind, FieldKind::Plateau(_) | FieldKind::Constant)
        });
    }
}
