//! The paper's Algorithm 1 on the **threaded backend**: a genuinely
//! parallel run with one OS thread per rank and real message passing.
//!
//! ```text
//! Decompose domain            (§IV-A)
//! Read data blocks            (§IV-B)
//! for all local blocks:
//!     compute discrete gradient (§IV-C)
//!     compute MS complex        (§IV-D)
//!     simplify MS complex       (§IV-E)
//! for each merge round:
//!     merge MS complex blocks   (§IV-F)
//! Write MS complex blocks     (§IV-G)
//! ```
//!
//! Blocks are assigned to ranks round-robin (block-cyclic), so the number
//! of blocks may exceed the number of ranks; the paper's usual
//! configuration is one block per process.
//!
//! ## Fault tolerance (DESIGN.md §9)
//!
//! The bulk-synchronous shape makes every merge-round boundary a
//! consistent cut: all messages of round *k* are matched before anyone
//! enters round *k + 1*. With a [`FaultConfig`] active, each rank saves
//! a [`Checkpoint`] of its living complexes at every cut (and once more
//! before the collective write). An injected crash destroys a rank's
//! in-memory state at the cut; the rank restarts from its own
//! checkpoint, while the roots expecting its merge messages detect the
//! failure by receive deadline and replay the lost round from the dead
//! rank's checkpoint — producing a final complex bit-identical to the
//! fault-free run. When no checkpoint exists, the run degrades instead
//! of dying: the root absorbs the orphaned block and the loss is
//! recorded in telemetry (`blocks_absorbed`).

use crate::plan::MergePlan;
use crate::sched::{feature_weights, Assignment, DecompMode, MergeSchedule};
use bytes::Bytes;
use msp_complex::glue::glue_all;
use msp_complex::{
    complex_from_gradient_mt, simplify_forwarding, simplify_with, wire, CancelOrder, MsComplex,
    SimplifyParams,
};
use msp_fault::checkpoint::CheckpointError;
use msp_fault::{Checkpoint, CheckpointStore, FaultPlan};
use msp_grid::par::{available_threads, par_map, par_map_mut};
use msp_grid::rawio::{read_block, read_raw, VolumeDType};
use msp_grid::{Decomposition, Dims, ScalarField};
use msp_hierarchy::{wire as hwire, ReplayParams, SlotHierarchy};
use msp_morse::{active_kernel, assign_gradient_kernel, TraceLimits};
use msp_segment::{
    label_block, owner_rank, wire as segwire, BlockSegmentation, ForwardMap, DRAIN_ADDR,
};
use msp_telemetry::{
    progress_interval_from_env, Counter, Heartbeat, Json, Phase, ProgressPhase, ProgressState,
    RankReport, RankTrace, Recorder, RunReport, RunTrace, TraceSink,
};
use msp_vmpi::comm::{CommError, Inject};
use msp_vmpi::fileio::{collective_write_blocks_keyed, FooterEntry};
use msp_vmpi::pairmsg::{exchange_pairs, exchange_u64s};
use msp_vmpi::{Rank, Universe};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags of the end-of-run telemetry exchange. They live above the file-IO
/// range (9001..) and below no one: nothing else speaks after the write
/// stage.
const TAG_TELEMETRY_GATHER: u32 = 9100;
const TAG_TELEMETRY_SHIP: u32 = 9110;
const TAG_TRACE_GATHER: u32 = 9120;

/// Tags of the segmentation resolution protocol (`--segment`). They live
/// in their own high namespace, far above the merge tags (`round << 20 |
/// slot`) and below the barrier tag (`0x7FF0_0000`). Per-round tags are
/// `base | round`, so no two rounds ever share a tag.
const TAG_SEG_ROUTE: u32 = 0x4000_0000; // | merge round (forward flush)
const TAG_SEG_ROUTE_FINAL: u32 = 0x40F0_0000; // pre-resolve flush
const TAG_SEG_QUERY: u32 = 0x4100_0000; // | jump round
const TAG_SEG_REPLY: u32 = 0x4200_0000; // | jump round
const TAG_SEG_FIXED: u32 = 0x4300_0000; // | jump round << 1 (allreduce pair)
const TAG_SEG_TABLE_Q: u32 = 0x4400_0000;
const TAG_SEG_TABLE_R: u32 = 0x4500_0000;

/// Tag of the hierarchy region-size broadcast (`--hierarchy`): one
/// all-to-all after segmentation resolution, in the same high namespace.
const TAG_HIER_SIZES: u32 = 0x4600_0000;

/// Fault-tolerance configuration of a run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Faults to inject (crashes at the pipeline layer; message
    /// drops/delays at the comm layer). `None` injects nothing.
    pub plan: Option<FaultPlan>,
    /// Checkpoint every rank's state at each merge-round boundary and
    /// before the write, enabling exact recovery.
    pub checkpoint: bool,
    /// How long a root waits for a group member's merge message before
    /// declaring it dead and recovering. Only applied while a fault
    /// config is active.
    pub deadline: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            plan: None,
            checkpoint: false,
            deadline: Duration::from_secs(5),
        }
    }
}

impl FaultConfig {
    /// Inject `plan` with checkpointing on — the standard resilient
    /// configuration.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultConfig {
            plan: Some(plan),
            checkpoint: true,
            ..Default::default()
        }
    }

    /// Is any fault machinery (injection, checkpointing, deadlines)
    /// engaged?
    pub fn active(&self) -> bool {
        self.checkpoint || self.plan.is_some()
    }

    fn should_crash(&self, rank: u32, round: u32) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| p.should_crash(rank as usize, round))
    }
}

/// A pipeline failure with enough context to know which stage and peer
/// was involved. Irregularities that used to abort the whole process now
/// surface here.
#[derive(Debug)]
pub enum PipelineError {
    /// Invalid run configuration (rank/block counts, merge plan).
    Config(String),
    /// A file operation failed (block read, collective write).
    Io {
        context: String,
        source: std::io::Error,
    },
    /// A communication primitive failed outside the recoverable merge
    /// path (collectives, barriers, telemetry exchange).
    Comm { context: String, source: CommError },
    /// A merge payload failed wire decoding.
    Wire {
        context: String,
        source: wire::WireError,
    },
    /// A checkpoint failed to decode during recovery.
    Checkpoint {
        context: String,
        source: CheckpointError,
    },
    /// A complex that must exist at this stage is gone and no fault
    /// config explains the loss.
    MissingComplex { slot: u32, context: &'static str },
    /// A glue stage rejected its inputs (dead or mismatched incoming
    /// complexes).
    Glue {
        context: String,
        source: msp_complex::GlueError,
    },
    /// A simplification pass rejected its input (NaN threshold or
    /// non-finite node values).
    Simplify {
        context: String,
        source: msp_complex::SimplifyError,
    },
    /// The end-of-run telemetry exchange produced garbage.
    Telemetry(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(msg) => write!(f, "invalid pipeline config: {msg}"),
            PipelineError::Io { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Comm { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Wire { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Checkpoint { context, source } => write!(f, "{context}: {source}"),
            PipelineError::MissingComplex { slot, context } => {
                write!(f, "complex for slot {slot} missing at {context}")
            }
            PipelineError::Glue { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Simplify { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Telemetry(msg) => write!(f, "telemetry exchange: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Io { source, .. } => Some(source),
            PipelineError::Comm { source, .. } => Some(source),
            PipelineError::Wire { source, .. } => Some(source),
            PipelineError::Checkpoint { source, .. } => Some(source),
            PipelineError::Glue { source, .. } => Some(source),
            PipelineError::Simplify { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn comm_err(context: impl Into<String>) -> impl FnOnce(CommError) -> PipelineError {
    let context = context.into();
    move |source| PipelineError::Comm { context, source }
}

/// Pipeline configuration shared by all ranks.
#[derive(Debug, Clone)]
pub struct PipelineParams {
    /// Persistence threshold as a fraction of the global value range.
    pub persistence_frac: f32,
    pub plan: MergePlan,
    /// How the domain is decomposed into blocks (DESIGN.md §14). Uniform
    /// bisection keeps the historical block-cyclic assignment and fixed
    /// radix-tree schedule; irregular modes (adaptive, random trees)
    /// switch to LPT cost-balanced assignment and a greedy contraction
    /// of the block neighbor graph. Outputs are a pure function of
    /// `(decomposition, plan, threshold)` in every mode.
    pub decomp: DecompMode,
    pub trace_limits: TraceLimits,
    /// Valence guard forwarded to [`SimplifyParams`].
    pub max_new_arcs: Option<u64>,
    /// Fault injection + recovery configuration (inactive by default).
    pub fault: FaultConfig,
    /// Record a causal event trace (per-rank spans + message stamps,
    /// gathered at rank 0 into [`RunResult::trace`]). Off by default:
    /// the tracer costs a few stamps per message.
    pub trace: bool,
    /// Intra-rank threads for the local stage (read scan, gradient +
    /// trace, simplify). `None` uses the machine's available
    /// parallelism; `Some(1)` is the exact serial code path. Output is
    /// bit-identical for every value.
    pub threads: Option<usize>,
    /// Run the oracle invariant checker (crate `msp-oracle`) over every
    /// output complex after the write stage. Violations are counted in
    /// telemetry (`checks_run`, `check_structural`, `check_euler`,
    /// `check_boundary`, `check_vpath`) and described on stderr; they
    /// never abort the run (a rank returning early from inside the
    /// collective section would deadlock its peers). `MSP_CHECK=1` in
    /// the environment forces this on.
    pub check: bool,
    /// Compute the full Morse-Smale segmentation: per-vertex descending
    /// (minimum-basin) and per-voxel ascending (maximum-mountain) labels,
    /// resolved across ranks by distributed path compression (DESIGN.md
    /// §11). Adds `<out>.seg` next to the output file when one is
    /// written.
    pub segment: bool,
    /// Record the persistence hierarchy of every output complex: the
    /// full ordered cancellation sequence to persistence ∞, replayable
    /// to any threshold by `msp-hierarchy` (DESIGN.md §12). Adds
    /// `<out>.msh` next to the output file when one is written. The
    /// count (manifold-size) ordering is recorded only when
    /// [`PipelineParams::segment`] is also on (region sizes come from
    /// the label tables).
    pub hierarchy: bool,
    /// Emit a progress heartbeat (phase, ranks done, bytes moved) as a
    /// JSON line on stderr every this-many seconds — the live surface
    /// for long paper-scale runs. `None` falls back to the
    /// `MSP_PROGRESS` environment variable (seconds; unset = off).
    pub progress: Option<f64>,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            persistence_frac: 0.01,
            plan: MergePlan::none(),
            decomp: DecompMode::Uniform,
            trace_limits: TraceLimits::default(),
            // valence guard: skip cancellations that would fan out into
            // more than this many replacement arcs (degenerate lattices)
            max_new_arcs: Some(4096),
            fault: FaultConfig::default(),
            trace: false,
            threads: None,
            check: false,
            segment: false,
            hierarchy: false,
            progress: None,
        }
    }
}

/// Where the scalar data comes from.
pub enum Input {
    /// In-memory field: every rank extracts its blocks directly (stands
    /// in for an already-staged dataset).
    Memory(std::sync::Arc<ScalarField>),
    /// Raw volume file read through per-block subarray views (§IV-B).
    File {
        path: PathBuf,
        dims: Dims,
        dtype: VolumeDType,
    },
}

impl Input {
    pub fn dims(&self) -> Dims {
        match self {
            Input::Memory(f) => f.dims(),
            Input::File { dims, .. } => *dims,
        }
    }
}

/// Result of a parallel run.
pub struct RunResult {
    /// Aggregated telemetry: per-rank phase timings and counters plus
    /// cross-rank min/mean/max/imbalance statistics (gathered at rank 0).
    pub telemetry: RunReport,
    /// Output-slot complexes in ascending slot order.
    pub outputs: Vec<MsComplex>,
    /// Footer of the output file, when one was written.
    pub footer: Option<Vec<FooterEntry>>,
    /// Total serialized size of all output blocks.
    pub output_bytes: u64,
    /// The absolute persistence threshold that was applied.
    pub threshold: f32,
    /// The gathered causal event trace when [`PipelineParams::trace`]
    /// was on (write it with [`RunTrace::write`], analyze it with
    /// [`RunTrace::critical_path`]).
    pub trace: Option<RunTrace>,
    /// Resolved block segmentations in ascending block order (empty
    /// unless [`PipelineParams::segment`] was on).
    pub segmentation: Vec<BlockSegmentation>,
    /// Footer of the `<out>.seg` file, when one was written.
    pub seg_footer: Option<Vec<FooterEntry>>,
    /// Recorded cancellation hierarchies, one per output slot in
    /// ascending slot order (empty unless [`PipelineParams::hierarchy`]
    /// was on).
    pub hierarchies: Vec<SlotHierarchy>,
    /// Footer of the `<out>.msh` file, when one was written.
    pub msh_footer: Option<Vec<FooterEntry>>,
}

/// Path of the labeled-volume file written next to the complex output.
pub fn seg_output_path(output: &Path) -> PathBuf {
    let mut s = output.as_os_str().to_os_string();
    s.push(".seg");
    PathBuf::from(s)
}

/// Path of the hierarchy artifact written next to the complex output.
pub fn msh_output_path(output: &Path) -> PathBuf {
    let mut s = output.as_os_str().to_os_string();
    s.push(".msh");
    PathBuf::from(s)
}

/// Parse a persistence value from the command line: a finite,
/// non-negative fraction of the global value range. One shared helper
/// so every entry point (`msc compute`, `msc serve`, bench binaries)
/// rejects NaN and negative inputs identically instead of silently
/// simplifying with them.
pub fn parse_persistence(s: &str) -> Result<f32, String> {
    let v: f32 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad persistence {s:?}: not a number"))?;
    check_persistence(v).map_err(|e| format!("bad persistence {s:?}: {e}"))
}

/// Validate an already-numeric persistence/threshold value; the
/// non-string half of [`parse_persistence`], shared with inputs that
/// arrive as numbers (serve-protocol thresholds, env overrides).
pub fn check_persistence(v: f32) -> Result<f32, String> {
    if v.is_nan() {
        return Err("NaN".to_string());
    }
    if !v.is_finite() {
        return Err("not finite".to_string());
    }
    if v < 0.0 {
        return Err("negative".to_string());
    }
    Ok(v)
}

/// Execute the full pipeline on `n_ranks` threads over `n_blocks` blocks.
pub fn run_parallel(
    input: &Input,
    n_ranks: u32,
    n_blocks: u32,
    params: &PipelineParams,
    output_path: Option<&Path>,
) -> Result<RunResult, PipelineError> {
    if n_ranks < 1 || n_blocks < n_ranks {
        return Err(PipelineError::Config(format!(
            "need >= 1 block per rank (got {n_blocks} blocks on {n_ranks} ranks)"
        )));
    }
    let red = params.plan.reduction();
    if params.decomp.is_uniform() && !n_blocks.is_multiple_of(red) {
        return Err(PipelineError::Config(format!(
            "plan reduction {red} must divide the block count {n_blocks}"
        )));
    }
    let dims = input.dims();
    // Build the decomposition and, for irregular modes, the per-block
    // cost estimates that drive the LPT assignment. The adaptive
    // splitter needs the whole field once, up front — for file inputs
    // that is one extra full read by the driver before any rank starts.
    let (decomp, costs): (Decomposition, Option<Vec<u64>>) = match params.decomp {
        DecompMode::Uniform => (Decomposition::bisect(dims, n_blocks), None),
        DecompMode::Adaptive => {
            let weights = match input {
                Input::Memory(f) => feature_weights(f),
                Input::File { path, dims, dtype } => {
                    let f = read_raw(path, *dims, *dtype).map_err(|source| PipelineError::Io {
                        context: format!("reading {} for adaptive splitting", path.display()),
                        source,
                    })?;
                    feature_weights(&f)
                }
            };
            let d = Decomposition::adaptive(dims, n_blocks, &weights);
            let c = d.block_costs(&weights);
            (d, Some(c))
        }
        DecompMode::RandomTree { seed } => {
            let d = Decomposition::random_tree(dims, n_blocks, seed);
            let c = d.blocks().iter().map(|b| b.n_verts()).collect();
            (d, Some(c))
        }
    };
    let sched = match params.decomp {
        DecompMode::Uniform => MergeSchedule::uniform(&params.plan, n_blocks),
        _ => MergeSchedule::contract(&decomp, &params.plan),
    };
    let assign = match &costs {
        None => Assignment::round_robin(n_blocks, n_ranks),
        Some(c) => Assignment::lpt(c, n_ranks),
    };

    // Stable storage stand-in shared by all ranks; populated only when
    // checkpointing is on.
    let store = CheckpointStore::new();
    let inject: Option<Arc<dyn Inject>> = params
        .fault
        .plan
        .clone()
        .map(|p| Arc::new(p) as Arc<dyn Inject>);

    // One time base for every rank's trace sink, taken before any rank
    // starts, so cross-rank timestamps are causally comparable.
    let epoch = Instant::now();
    // Progress heartbeat for long runs: a background thread prints a
    // JSON line (phase, ranks done, bytes moved) on an interval; ranks
    // update the shared state with relaxed stores, so the hot path pays
    // one atomic per phase transition.
    let heartbeat = params
        .progress
        .or_else(progress_interval_from_env)
        .filter(|&s| s > 0.0 && s.is_finite())
        .map(|secs| {
            Heartbeat::spawn(
                "pipeline",
                n_ranks as usize,
                std::time::Duration::from_secs_f64(secs),
            )
        });
    let progress = heartbeat.as_ref().map(|h| h.state());
    let results = Universe::run_with_inject(n_ranks as usize, inject, |rank| {
        run_rank(
            rank,
            input,
            &decomp,
            &sched,
            &assign,
            costs.as_deref(),
            params,
            output_path,
            &store,
            epoch,
            progress.as_deref(),
        )
    });
    drop(heartbeat);

    let mut telemetry = None;
    let mut slot_outputs: Vec<(u32, MsComplex)> = Vec::new();
    let mut output_bytes = 0u64;
    let mut footer = None;
    let mut threshold = 0.0;
    let mut trace = None;
    let mut segmentation: Vec<BlockSegmentation> = Vec::new();
    let mut seg_footer = None;
    let mut slot_hierarchies: Vec<(u32, SlotHierarchy)> = Vec::new();
    let mut msh_footer = None;
    for res in results {
        let (tel, outs, out_bytes, f, th, tr, segs, sf, hiers, hf) = res?;
        if tel.is_some() {
            telemetry = tel; // only rank 0 holds the gathered report
        }
        if tr.is_some() {
            trace = tr; // likewise gathered at rank 0
        }
        slot_outputs.extend(outs);
        output_bytes += out_bytes;
        if f.is_some() {
            footer = f;
        }
        segmentation.extend(segs);
        if sf.is_some() {
            seg_footer = sf;
        }
        slot_hierarchies.extend(hiers);
        if hf.is_some() {
            msh_footer = hf;
        }
        threshold = th; // identical on every rank (all-reduced)
    }
    segmentation.sort_by_key(|s| s.block_id);
    slot_outputs.sort_by_key(|(slot, _)| *slot);
    slot_hierarchies.sort_by_key(|(slot, _)| *slot);
    let hierarchies: Vec<SlotHierarchy> = slot_hierarchies.into_iter().map(|(_, h)| h).collect();
    let outputs: Vec<MsComplex> = slot_outputs.into_iter().map(|(_, c)| c).collect();
    let telemetry = telemetry
        .ok_or_else(|| PipelineError::Telemetry("rank 0 produced no gathered report".into()))?
        .with_meta(
            "dims",
            Json::str(format!("{}x{}x{}", dims.nx, dims.ny, dims.nz)),
        )
        .with_meta("n_blocks", Json::U64(n_blocks as u64))
        .with_meta("decomp", Json::str(params.decomp.to_string()))
        .with_meta(
            "merge_radices",
            Json::Arr(
                params
                    .plan
                    .radices
                    .iter()
                    .map(|&r| Json::U64(r as u64))
                    .collect(),
            ),
        )
        .with_meta(
            "persistence_frac",
            Json::F64(params.persistence_frac as f64),
        )
        .with_meta("threshold", Json::F64(threshold as f64))
        .with_meta("output_bytes", Json::U64(output_bytes));
    // The critical path — the longest causally-ordered chain of span
    // time — rides along in the telemetry report meta.
    let telemetry = match trace.as_ref().and_then(|t| t.critical_path()) {
        Some(cp) => telemetry.with_meta("critical_path", cp.to_json()),
        None => telemetry,
    };
    Ok(RunResult {
        telemetry,
        outputs,
        footer,
        output_bytes,
        threshold,
        trace,
        segmentation,
        seg_footer,
        hierarchies,
        msh_footer,
    })
}

type RankOut = (
    Option<RunReport>,
    Vec<(u32, MsComplex)>,
    u64, // wire bytes of this rank's output complexes
    Option<Vec<FooterEntry>>,
    f32,
    Option<RunTrace>,
    Vec<BlockSegmentation>,
    Option<Vec<FooterEntry>>,
    Vec<(u32, SlotHierarchy)>,
    Option<Vec<FooterEntry>>,
);

/// Route pending forward pairs to their owner ranks (the hashed
/// [`owner_rank`] map — see msp-segment for why plain `addr % n_ranks`
/// is biased) and absorb the pairs this rank owns. Bucket contents
/// are sorted before they touch the wire, so message bytes are a pure
/// function of the pairs' content. Collective: every rank must call this
/// at the same point, pending entries or not.
fn flush_forwards(
    rank: &Rank,
    rec: &mut Recorder,
    tag: u32,
    pending: &mut Vec<(u64, u64)>,
    owned: &mut ForwardMap,
) -> Result<(), PipelineError> {
    let size = rank.size() as u64;
    let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); rank.size()];
    for &(dead, target) in pending.iter() {
        buckets[owner_rank(dead, size) as usize].push((dead, target));
    }
    for b in &mut buckets {
        b.sort_unstable();
    }
    rec.add(Counter::SegForwards, pending.len() as u64);
    pending.clear();
    let (incoming, sent) =
        exchange_pairs(rank, tag, &buckets).map_err(comm_err("routing segmentation forwards"))?;
    rec.add(Counter::SegBoundaryBytes, sent);
    for bucket in incoming {
        for (dead, target) in bucket {
            owned.insert(dead, target);
        }
    }
    Ok(())
}

/// Snapshot every living complex into the checkpoint store at merge
/// cursor `round` and account the serialized volume.
fn save_checkpoint(
    rec: &mut Recorder,
    store: &CheckpointStore,
    rank: u32,
    round: u32,
    threshold: f32,
    complexes: &HashMap<u32, MsComplex>,
) {
    let mut slots: Vec<(u32, MsComplex)> = complexes.iter().map(|(b, c)| (*b, c.clone())).collect();
    slots.sort_by_key(|(b, _)| *b);
    let ck = Checkpoint {
        rank,
        round,
        threshold,
        slots,
    };
    let encoded = ck.encode();
    rec.add(Counter::CheckpointBytes, encoded.len() as u64);
    store.save(rank, round, encoded);
}

/// Restore a rank's own state after an injected crash: reload its
/// checkpoint at `round`, except the slots in `skip` (their recovery now
/// belongs to the roots that were expecting them). Returns false when no
/// checkpoint exists — the degraded path, where the rank's blocks stay
/// lost and its peers absorb them.
fn restore_own_state(
    rec: &mut Recorder,
    store: &CheckpointStore,
    rank: u32,
    round: u32,
    skip: &[u32],
    complexes: &mut HashMap<u32, MsComplex>,
) -> Result<bool, PipelineError> {
    let t0 = Instant::now();
    let recovered = match store.load(rank, round) {
        Some(encoded) => {
            let ck = Checkpoint::decode(&encoded).map_err(|source| PipelineError::Checkpoint {
                context: format!("restoring rank {rank} at round cursor {round}"),
                source,
            })?;
            for (slot, ms) in ck.slots {
                if !skip.contains(&slot) {
                    complexes.insert(slot, ms);
                }
            }
            rec.add(Counter::RoundsReplayed, 1);
            true
        }
        None => false,
    };
    rec.add(Counter::RecoveryMs, t0.elapsed().as_millis() as u64);
    Ok(recovered)
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    rank: &mut Rank,
    input: &Input,
    decomp: &Decomposition,
    sched: &MergeSchedule,
    assign: &Assignment,
    costs: Option<&[u64]>,
    params: &PipelineParams,
    output_path: Option<&Path>,
    store: &CheckpointStore,
    epoch: Instant,
    progress: Option<&ProgressState>,
) -> Result<RankOut, PipelineError> {
    let p = rank.rank() as u32;
    let n_ranks = rank.size() as u32;
    let fault = &params.fault;
    let my_blocks: Vec<u32> = assign.blocks_of(p);
    // Estimated local-stage cost of this rank's blocks. The cross-rank
    // imbalance of this counter is the load-balance figure of merit the
    // `balance_sweep` bench gates on; uniform runs count 1 per block so
    // the same report stays meaningful for block-cyclic layouts.
    let my_cost: u64 = match costs {
        Some(c) => my_blocks.iter().map(|&b| c[b as usize].max(1)).sum(),
        None => my_blocks.len() as u64,
    };
    // One relaxed store per coarse stage keeps the heartbeat honest
    // without touching the hot paths.
    let phase = |ph: ProgressPhase| {
        if let Some(st) = progress {
            st.set_phase(p as usize, ph);
        }
    };
    let mut rec = Recorder::new(p);
    rec.add(Counter::AssignCost, my_cost);
    // Causal tracing: one sink shared by the recorder (span events) and
    // the comm endpoint (message stamps), all against the shared epoch.
    let sink = params.trace.then(|| TraceSink::new(p, epoch));
    if let Some(s) = &sink {
        rec.attach_trace(s.clone());
        rank.attach_tracer(s.clone());
    }
    rec.begin(Phase::Total);

    // Intra-rank thread budget for the local stage. `threads == 1` is
    // the single-threaded code path; larger counts produce bit-identical
    // output (deterministic block/slab merge order, see msp-morse), so
    // the budget is a scheduling hint and gets capped at host
    // parallelism — oversubscribing CPUs buys nothing and pays spawn
    // and slab-merge overhead for it.
    let threads = params
        .threads
        .unwrap_or_else(available_threads)
        .min(available_threads())
        .max(1);

    // ---- read ----
    // The min/max scan is folded into block extraction (one pass over
    // the data instead of a second full sweep); per-block f32 extrema
    // are reduced in block order, which equals the old per-value f64
    // fold exactly because f32→f64 is exact and monotone.
    phase(ProgressPhase::Read);
    rec.begin(Phase::Read);
    let loaded = par_map(threads, &my_blocks, |_, &b| match input {
        Input::Memory(f) => Ok(f.extract_block_minmax(decomp.block(b))),
        Input::File { path, dims, dtype } => {
            let bf = read_block(path, *dims, decomp.block(b), *dtype).map_err(|source| {
                PipelineError::Io {
                    context: format!("reading block {b} from {}", path.display()),
                    source,
                }
            })?;
            let (lo, hi) = bf.min_max();
            Ok((bf, lo, hi))
        }
    });
    let mut fields = HashMap::new();
    let mut local_min = f64::INFINITY;
    let mut local_max = f64::NEG_INFINITY;
    for (i, res) in loaded.into_iter().enumerate() {
        let (bf, lo, hi) = res?;
        local_min = local_min.min(lo as f64);
        local_max = local_max.max(hi as f64);
        fields.insert(my_blocks[i], bf);
    }
    // global range for the persistence threshold
    let (gmin, gmax) = rank
        .allreduce_min_max(100, local_min, local_max)
        .map_err(comm_err("all-reducing the global value range"))?;
    let threshold = params.persistence_frac * (gmax - gmin) as f32;
    rec.end(Phase::Read);

    // ---- compute: gradient assignment, then V-path tracing ----
    // Blocks run sequentially with the whole thread budget spent
    // *inside* each block: z-slab-parallel gradient, chunk-parallel
    // tracing. A block always has enough rows/critical cells to feed
    // every thread (one block per rank is the paper's usual
    // configuration), and keeping phases sequential per block means the
    // Gradient/Trace buckets measure pure phase wall clock — no
    // cross-phase overlap between concurrent block workers to inflate
    // the per-phase attribution on oversubscribed hosts.
    phase(ProgressPhase::Local);
    let mut complexes: HashMap<u32, MsComplex> = HashMap::new();
    // Block segmentations stay put on the rank that computed them (only
    // complexes travel during merges); resolved at SegResolve below.
    let mut segs: HashMap<u32, BlockSegmentation> = HashMap::new();
    let rdims = input.dims().refined();
    for &b in &my_blocks {
        let (grad, kstats) = rec.time(Phase::Gradient, |_| {
            assign_gradient_kernel(&fields[&b], decomp, threads, active_kernel())
        });
        let (ms, bstats) = rec.time(Phase::Trace, |_| {
            complex_from_gradient_mt(&fields[&b], decomp, &grad, params.trace_limits, threads)
        });
        rec.add(Counter::CellsPaired, bstats.cells_paired);
        rec.add(Counter::CriticalCells, bstats.critical_cells);
        rec.add(Counter::ArcsTraced, bstats.arcs);
        rec.add(Counter::KernelCells, kstats.cells);
        rec.add(Counter::ScratchReuse, kstats.scratch_reuse);
        rec.add(Counter::KernelAllocs, kstats.kernel_allocs);
        if params.segment {
            let seg = rec.time(Phase::Segment, |_| {
                label_block(decomp.block(b), &rdims, &grad, threads)
            });
            segs.insert(b, seg);
        }
        complexes.insert(b, ms);
    }
    drop(fields);

    // ---- local simplification ----
    phase(ProgressPhase::Simplify);
    rec.begin(Phase::Simplify);
    let sp = SimplifyParams {
        threshold,
        max_new_arcs: params.max_new_arcs,
        max_parallel_arcs: Some(2),
    };
    // Forward entries of extrema cancelled on this rank, awaiting their
    // routed flush to owner ranks (piggybacked on merge-round ends).
    let mut pending: Vec<(u64, u64)> = Vec::new();
    // The slice of the global forward map this rank owns.
    let mut owned = ForwardMap::new();
    // blocks simplify independently; collect in block order so the
    // cancellation counter and `pending` accumulate deterministically
    let mut work: Vec<(u32, MsComplex)> = complexes.drain().collect();
    work.sort_by_key(|(b, _)| *b);
    let segment = params.segment;
    let results = par_map_mut(threads, &mut work, |_, (b, ms)| {
        let mut fw = segment.then(Vec::new);
        let st =
            simplify_forwarding(ms, sp, fw.as_mut()).map_err(|source| PipelineError::Simplify {
                context: format!("simplifying block {b}"),
                source,
            })?;
        ms.compact();
        Ok((st.cancellations, fw.unwrap_or_default()))
    });
    for r in results {
        let (n, fw) = r?;
        rec.add(Counter::Cancellations, n);
        pending.extend(fw);
    }
    complexes.extend(work);
    rec.end(Phase::Simplify);

    // ---- merge rounds ----
    phase(ProgressPhase::Merge);
    for (r, round) in sched.rounds.iter().enumerate() {
        rank.barrier()
            .map_err(comm_err(format!("barrier entering merge round {r}")))?;
        rec.begin(Phase::MergeRound(r as u16));
        let groups = &round.groups;
        let tag_base = (r as u32) << 20;

        // The barrier above closed round r-1: a consistent cut. Persist
        // it before anything of round r happens.
        if fault.checkpoint {
            save_checkpoint(&mut rec, store, p, r as u32, threshold, &complexes);
        }
        // An injected crash destroys this rank's state at the cut: it
        // will ship nothing this round, and the roots expecting its
        // slots must recover them from the checkpoint just taken.
        let crashed = fault.should_crash(p, r as u32 + 1);
        if crashed {
            rec.add(Counter::Crashes, 1);
            complexes.clear();
        }

        // send phase: every non-root slot this rank owns
        let mut shipped: Vec<u32> = Vec::new();
        for (root, members) in groups {
            for &m in &members[1..] {
                if assign.rank_of(m) != p {
                    continue;
                }
                shipped.push(m);
                if crashed {
                    continue; // "down" for this round: nothing goes out
                }
                let ms = complexes.remove(&m).ok_or(PipelineError::MissingComplex {
                    slot: m,
                    context: "merge send",
                })?;
                rec.add(Counter::NodesShipped, ms.n_live_nodes());
                rec.add(Counter::ArcsShipped, ms.n_live_arcs());
                let payload = wire::serialize(&ms);
                rec.add(Counter::ShipBytes, payload.len() as u64);
                if let Some(st) = progress {
                    st.add_bytes(payload.len() as u64);
                }
                rank.send(assign.rank_of(*root) as usize, tag_base | m, payload)
                    .map_err(comm_err(format!("shipping slot {m} in round {r}")))?;
            }
        }

        // The crashed rank "reboots" from its own checkpoint — except
        // the slots it would have shipped, whose custody passed to the
        // receiving roots. Without a checkpoint its blocks stay lost.
        if crashed {
            let recover_t0 = sink.as_ref().map(|s| s.now_ns());
            restore_own_state(&mut rec, store, p, r as u32, &shipped, &mut complexes)?;
            if let (Some(s), Some(r0)) = (&sink, recover_t0) {
                s.span_at("recover", r0, s.now_ns());
            }
        }

        // receive + glue phase: every root slot this rank owns
        for (root, members) in groups {
            if assign.rank_of(*root) != p {
                continue;
            }
            if !complexes.contains_key(root) {
                // Degraded: the root slot itself was lost to an
                // unrecoverable crash. The whole group is orphaned; its
                // members' messages stay unconsumed.
                rec.add(Counter::BlocksAbsorbed, members.len() as u64);
                continue;
            }
            let mut incoming = Vec::with_capacity(members.len() - 1);
            for &m in &members[1..] {
                let owner = assign.rank_of(m);
                let deadline = fault.active().then_some(fault.deadline);
                match rank.recv_deadline(owner as usize, tag_base | m, deadline) {
                    Ok(payload) => {
                        incoming.push(wire::deserialize(&payload).map_err(|source| {
                            PipelineError::Wire {
                                context: format!("merge payload for slot {m} in round {r}"),
                                source,
                            }
                        })?);
                    }
                    Err(CommError::Timeout { waited, .. }) => {
                        // Dead group member. Promote ourselves to its
                        // recovery agent: replay the lost send from its
                        // round-boundary checkpoint, or absorb the
                        // orphaned block if there is none.
                        let t0 = Instant::now();
                        let recover_t0 = sink.as_ref().map(|s| s.now_ns());
                        rec.add(Counter::Retries, 1);
                        let recovered = match store.load(owner, r as u32) {
                            Some(encoded) => {
                                let ck = Checkpoint::decode(&encoded).map_err(|source| {
                                    PipelineError::Checkpoint {
                                        context: format!(
                                            "recovering slot {m} from rank {owner} at round {r}"
                                        ),
                                        source,
                                    }
                                })?;
                                ck.slot(m).cloned()
                            }
                            None => None,
                        };
                        match recovered {
                            Some(ms) => {
                                rec.add(Counter::RoundsReplayed, 1);
                                incoming.push(ms);
                            }
                            None => rec.add(Counter::BlocksAbsorbed, 1),
                        }
                        rec.add(
                            Counter::RecoveryMs,
                            (waited + t0.elapsed()).as_millis() as u64,
                        );
                        // Replay work happens HERE, so the trace charges
                        // the recovering rank (this root), not the dead
                        // member whose slot was replayed.
                        if let (Some(s), Some(r0)) = (&sink, recover_t0) {
                            s.span_at("recover", r0, s.now_ns());
                        }
                    }
                    Err(e) => {
                        return Err(PipelineError::Comm {
                            context: format!("receiving slot {m} in round {r}"),
                            source: e,
                        })
                    }
                }
            }
            let ms = complexes.get_mut(root).expect("checked above");
            rec.time(Phase::Glue, |_| glue_all(ms, &incoming, decomp))
                .map_err(|source| PipelineError::Glue {
                    context: format!(
                        "gluing {} member(s) into slot {root} in round {r}",
                        incoming.len()
                    ),
                    source,
                })?;
            rec.begin(Phase::Resimplify);
            let mut fw = params.segment.then(Vec::new);
            let st = simplify_forwarding(ms, sp, fw.as_mut()).map_err(|source| {
                PipelineError::Simplify {
                    context: format!("re-simplifying slot {root} after round {r}"),
                    source,
                }
            })?;
            rec.add(Counter::Cancellations, st.cancellations);
            ms.compact();
            if let Some(f) = fw {
                pending.extend(f);
            }
            rec.end(Phase::Resimplify);
        }
        // Piggybacked forward flush: the round's cancellations routed to
        // their owner ranks while everyone is synchronized anyway. Runs
        // on every rank — including one that crashed this round (the
        // thread keeps executing; segmentation state rides outside the
        // checkpoint model, so nothing of it is lost or replayed).
        if params.segment {
            flush_forwards(
                rank,
                &mut rec,
                TAG_SEG_ROUTE | r as u32,
                &mut pending,
                &mut owned,
            )?;
        }
        rec.end(Phase::MergeRound(r as u16));
    }

    // ---- segmentation resolution (DESIGN.md §11) ----
    // Compress every chain of cancelled-extremum forwards to its live
    // root by synchronized pointer jumping, then rewrite each block's
    // extremum tables through the resolved representatives. Global state
    // at every round boundary is a pure function of the forward-pair
    // content (messages sorted, jumps synchronized), so the resolved
    // labels are bit-identical for any rank count, thread count or merge
    // schedule.
    if params.segment {
        phase(ProgressPhase::SegResolve);
        rec.begin(Phase::SegResolve);
        // Flush whatever was not piggybacked on a merge round (all local
        // forwards when the plan has no rounds).
        flush_forwards(
            rank,
            &mut rec,
            TAG_SEG_ROUTE_FINAL,
            &mut pending,
            &mut owned,
        )?;
        let n_ranks_u64 = n_ranks as u64;
        let mut jump_round: u32 = 0;
        loop {
            let t0 = sink.as_ref().map(|s| s.now_ns());
            // Ask each target's owner what it currently forwards to.
            // Queries are sorted + deduplicated per owner.
            let mut qbuckets: Vec<Vec<u64>> = vec![Vec::new(); n_ranks as usize];
            for (_, target) in owned.sorted_entries() {
                if target != DRAIN_ADDR {
                    qbuckets[owner_rank(target, n_ranks_u64) as usize].push(target);
                }
            }
            for qb in &mut qbuckets {
                qb.sort_unstable();
                qb.dedup();
            }
            let (queries, qsent) = exchange_u64s(rank, TAG_SEG_QUERY | jump_round, &qbuckets)
                .map_err(comm_err("exchanging jump queries"))?;
            // Answer from the PRE-round state (replies are built before
            // this rank applies its own updates): only dead addresses
            // get an entry, live ones are absent = already resolved.
            let rbuckets: Vec<Vec<(u64, u64)>> = queries
                .iter()
                .map(|bucket| {
                    bucket
                        .iter()
                        .filter_map(|&a| owned.get(a).map(|t| (a, t)))
                        .collect()
                })
                .collect();
            let (replies, rsent) = exchange_pairs(rank, TAG_SEG_REPLY | jump_round, &rbuckets)
                .map_err(comm_err("exchanging jump replies"))?;
            rec.add(Counter::SegBoundaryBytes, qsent + rsent);
            let lookup: HashMap<u64, u64> = replies.into_iter().flatten().collect();
            let changed = owned.jump_pass(&lookup);
            rec.add(Counter::SegRelabels, changed);
            rec.add(Counter::SegRounds, 1);
            let global_changed = rank
                .allreduce_u64(TAG_SEG_FIXED | (jump_round << 1), changed, |a, b| a + b)
                .map_err(comm_err("all-reducing jump fixed point"))?;
            if let (Some(s), Some(t0)) = (&sink, t0) {
                s.span_at("seg_round", t0, s.now_ns());
            }
            jump_round += 1;
            if global_changed == 0 {
                break;
            }
        }
        // Table resolution: every extremum address in this rank's tables
        // is resolved by its owner against the now-compressed map.
        let mut addrs: Vec<u64> = segs
            .values()
            .flat_map(|s| s.mins.iter().chain(s.maxs.iter()).copied())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let mut tbuckets: Vec<Vec<u64>> = vec![Vec::new(); n_ranks as usize];
        for a in addrs {
            tbuckets[owner_rank(a, n_ranks_u64) as usize].push(a);
        }
        let (tqueries, tqsent) = exchange_u64s(rank, TAG_SEG_TABLE_Q, &tbuckets)
            .map_err(comm_err("exchanging table-resolution queries"))?;
        let trbuckets: Vec<Vec<(u64, u64)>> = tqueries
            .iter()
            .map(|bucket| bucket.iter().map(|&a| (a, owned.resolve(a))).collect())
            .collect();
        let (treplies, trsent) = exchange_pairs(rank, TAG_SEG_TABLE_R, &trbuckets)
            .map_err(comm_err("exchanging table-resolution replies"))?;
        rec.add(Counter::SegBoundaryBytes, tqsent + trsent);
        let resolved: HashMap<u64, u64> = treplies.into_iter().flatten().collect();
        let mut block_ids: Vec<u32> = segs.keys().copied().collect();
        block_ids.sort_unstable();
        let mut relabels = 0;
        for b in block_ids {
            let seg = segs.get_mut(&b).expect("own block");
            let rm: Vec<u64> = seg.mins.iter().map(|a| resolved[a]).collect();
            let rx: Vec<u64> = seg.maxs.iter().map(|a| resolved[a]).collect();
            relabels += seg.apply_resolution(&rm, &rx);
        }
        rec.add(Counter::SegRelabels, relabels);
        rec.end(Phase::SegResolve);
    }

    // ---- hierarchy recording (DESIGN.md §12) ----
    // Simplify each output slot once to persistence ∞ with full logging;
    // the recorded cancellation sequences replay to any threshold later
    // (compute once, query many — `msc serve`). Runs after segmentation
    // resolution so the count ordering can key on globally-summed region
    // sizes of the resolved extremum tables.
    let mut my_hier: Vec<(u32, SlotHierarchy)> = Vec::new();
    let mut global_sizes: Option<HashMap<u64, u64>> = None;
    if params.hierarchy {
        phase(ProgressPhase::Hierarchy);
        rec.begin(Phase::Hierarchy);
        if params.segment {
            // Every rank broadcasts its sorted local (extremum, count)
            // tallies and sums what it receives; addition commutes and
            // buckets arrive in rank order, so the global map is
            // identical on every rank for every schedule.
            let local = msp_hierarchy::region_sizes(segs.values());
            let mut pairs: Vec<(u64, u64)> = local.into_iter().collect();
            pairs.sort_unstable();
            let buckets: Vec<Vec<(u64, u64)>> = vec![pairs; n_ranks as usize];
            let (incoming, sent) = exchange_pairs(rank, TAG_HIER_SIZES, &buckets)
                .map_err(comm_err("broadcasting hierarchy region sizes"))?;
            rec.add(Counter::SegBoundaryBytes, sent);
            let mut sizes: HashMap<u64, u64> = HashMap::new();
            for bucket in incoming {
                for (addr, n) in bucket {
                    *sizes.entry(addr).or_insert(0) += n;
                }
            }
            global_sizes = Some(sizes);
        }
        let rp = ReplayParams {
            max_new_arcs: params.max_new_arcs,
            max_parallel_arcs: Some(2),
        };
        for &s in sched.outputs.iter().filter(|s| assign.rank_of(**s) == p) {
            // Degraded mode: a slot lost to an unrecoverable crash has
            // no hierarchy; the write stage accounts the loss.
            let Some(ms) = complexes.get(&s) else {
                continue;
            };
            let h = msp_hierarchy::record(ms, rp, global_sizes.clone()).map_err(|source| {
                PipelineError::Simplify {
                    context: format!("recording hierarchy for slot {s}"),
                    source,
                }
            })?;
            let n_records = h.difference.len() + h.count.as_ref().map_or(0, |c| c.len());
            rec.add(Counter::HierarchyRecords, n_records as u64);
            my_hier.push((s, h));
        }
        my_hier.sort_by_key(|(s, _)| *s);
        rec.end(Phase::Hierarchy);
    }

    // ---- pre-write cut ----
    // One more consistent cut after the last merge round protects the
    // fully-merged state against a crash before the collective write.
    if fault.active() {
        let cursor = sched.rounds.len() as u32;
        rank.barrier()
            .map_err(comm_err("barrier at the pre-write cut"))?;
        if fault.checkpoint {
            save_checkpoint(&mut rec, store, p, cursor, threshold, &complexes);
        }
        if fault.should_crash(p, cursor + 1) {
            rec.add(Counter::Crashes, 1);
            complexes.clear();
            // nothing ships between here and the write: a full restore
            let recover_t0 = sink.as_ref().map(|s| s.now_ns());
            restore_own_state(&mut rec, store, p, cursor, &[], &mut complexes)?;
            if let (Some(s), Some(r0)) = (&sink, recover_t0) {
                s.span_at("recover", r0, s.now_ns());
            }
        }
    }

    // ---- write ----
    phase(ProgressPhase::Write);
    rec.begin(Phase::Write);
    let mut my_outputs: Vec<(u32, MsComplex)> = Vec::new();
    for &s in sched.outputs.iter().filter(|s| assign.rank_of(**s) == p) {
        match complexes.remove(&s) {
            Some(c) => my_outputs.push((s, c)),
            // Degraded: the slot died with a rank that had no
            // checkpoint; the run completes without it.
            None if fault.active() => rec.add(Counter::BlocksAbsorbed, 1),
            None => {
                return Err(PipelineError::MissingComplex {
                    slot: s,
                    context: "output collection",
                })
            }
        }
    }
    my_outputs.sort_by_key(|(s, _)| *s);
    // Serialized once, path or no path: the lengths are the rank's share
    // of the run's `output_bytes`.
    let payloads: Vec<bytes::Bytes> = my_outputs.iter().map(|(_, c)| wire::serialize(c)).collect();
    let output_bytes: u64 = payloads.iter().map(|b| b.len() as u64).sum();
    // Keyed by output slot: payloads land in global ascending slot order
    // and the footer records slots, not writer ranks — the file is a
    // pure function of `(decomposition, plan, threshold)` even when the
    // LPT assignment parks an output slot on a rank-count-dependent
    // rank. (For uniform full merges slot 0 lives on rank 0, so the
    // historical bytes are unchanged.)
    let footer = if let Some(path) = output_path {
        let keys: Vec<u64> = my_outputs.iter().map(|(s, _)| *s as u64).collect();
        let f = collective_write_blocks_keyed(rank, path, &payloads, &keys).map_err(|source| {
            PipelineError::Io {
                context: format!("collective write to {}", path.display()),
                source,
            }
        })?;
        (p == 0).then_some(f)
    } else {
        None
    };
    drop(payloads);
    // Labeled-volume blocks go to `<out>.seg` through a second collective
    // write (per-link FIFO keeps its file-IO messages behind the first
    // write's). The write is keyed by block id: payloads land in global
    // ascending block-id order and the footer records keys, not writer
    // ranks, so the file is byte-identical for every rank count.
    let mut my_segs: Vec<BlockSegmentation> = segs.into_values().collect();
    my_segs.sort_by_key(|s| s.block_id);
    let seg_footer = if let (true, Some(path)) = (params.segment, output_path) {
        let seg_path = seg_output_path(path);
        let payloads: Vec<bytes::Bytes> = my_segs.iter().map(segwire::serialize).collect();
        let keys: Vec<u64> = my_segs.iter().map(|s| s.block_id as u64).collect();
        let f =
            collective_write_blocks_keyed(rank, &seg_path, &payloads, &keys).map_err(|source| {
                PipelineError::Io {
                    context: format!("collective segmentation write to {}", seg_path.display()),
                    source,
                }
            })?;
        (p == 0).then_some(f)
    } else {
        None
    };
    // The hierarchy artifact is a third keyed collective write: one
    // `MSH1` payload per output slot, landing in ascending slot order,
    // so `<out>.msh` is byte-identical across ranks/threads/schedules.
    let msh_footer = if let (true, Some(path)) = (params.hierarchy, output_path) {
        let msh_path = msh_output_path(path);
        let payloads: Vec<bytes::Bytes> =
            my_hier.iter().map(|(_, h)| hwire::serialize(h)).collect();
        let keys: Vec<u64> = my_hier.iter().map(|(s, _)| *s as u64).collect();
        let f =
            collective_write_blocks_keyed(rank, &msh_path, &payloads, &keys).map_err(|source| {
                PipelineError::Io {
                    context: format!("collective hierarchy write to {}", msh_path.display()),
                    source,
                }
            })?;
        (p == 0).then_some(f)
    } else {
        None
    };
    rec.end(Phase::Write);

    // ---- oracle check (opt-in) ----
    // Violations are recorded as telemetry counters and stderr notes,
    // never as an early return: a rank bailing out here while its peers
    // sit in the final collectives would deadlock the run. Callers gate
    // on the counters instead (see `msc --check` and `oracle_fuzz`).
    let check =
        params.check || std::env::var("MSP_CHECK").map(|v| v == "1" || v == "true") == Ok(true);
    if check {
        phase(ProgressPhase::Check);
        rec.begin(Phase::Check);
        let opts = msp_oracle::CheckOptions::default();
        for (slot, ms) in &my_outputs {
            let mut report = msp_oracle::InvariantReport::default();
            msp_oracle::check_structural(ms, decomp, &opts, &mut report);
            // The semantic tier needs the member scalar blocks back
            // (they were dropped after the local stage to bound memory).
            let mut member_fields = Vec::new();
            let mut have_fields = true;
            for &b in &ms.member_blocks {
                match input {
                    Input::Memory(f) => member_fields.push(f.extract_block(decomp.block(b))),
                    Input::File { path, dims, dtype } => {
                        match read_block(path, *dims, decomp.block(b), *dtype) {
                            Ok(bf) => member_fields.push(bf),
                            Err(e) => {
                                eprintln!(
                                    "[msp-check] rank {p} slot {slot}: cannot re-read \
                                     block {b} for the semantic tier: {e}"
                                );
                                have_fields = false;
                                break;
                            }
                        }
                    }
                }
            }
            if have_fields {
                msp_oracle::check_semantic(ms, decomp, &member_fields, &opts, &mut report);
            }
            if let Err(e) = msp_oracle::check_glue_idempotent(ms, decomp) {
                report.structural += 1;
                report.notes.push(format!("glue idempotency: {e}"));
            }
            rec.add(Counter::ChecksRun, 1);
            rec.add(Counter::CheckStructural, report.structural);
            rec.add(Counter::CheckEuler, report.euler);
            rec.add(Counter::CheckBoundary, report.boundary);
            rec.add(Counter::CheckVpath, report.vpath);
            for note in &report.notes {
                eprintln!("[msp-check] rank {p} slot {slot}: {note}");
            }
        }
        // Segmentation invariants are per original block and fully
        // local: rebuild the independent reference gradient of each
        // owned block and check the resolved labels never change along
        // a V-path. (Representative liveness needs the gathered outputs
        // and runs on the driver side — see `check_segmentation_tables`.)
        if params.segment {
            for seg in &my_segs {
                let b = decomp.block(seg.block_id);
                let bf = match input {
                    Input::Memory(f) => Some(f.extract_block(b)),
                    Input::File { path, dims, dtype } => match read_block(path, *dims, b, *dtype) {
                        Ok(bf) => Some(bf),
                        Err(e) => {
                            eprintln!(
                                "[msp-check] rank {p} seg block {}: cannot re-read \
                                     the block: {e}",
                                seg.block_id
                            );
                            None
                        }
                    },
                };
                let Some(bf) = bf else { continue };
                let grad = msp_oracle::reference_gradient(&bf, decomp);
                let view = msp_oracle::SegView {
                    block_id: seg.block_id,
                    vdims: seg.vdims,
                    mins: &seg.mins,
                    maxs: &seg.maxs,
                    min_label: &seg.min_label,
                    max_label: &seg.max_label,
                };
                let mut report = msp_oracle::InvariantReport::default();
                msp_oracle::check_segmentation_block(&view, b, &rdims, &grad, &opts, &mut report);
                rec.add(Counter::CheckSegment, report.segment);
                for note in &report.notes {
                    eprintln!("[msp-check] rank {p}: {note}");
                }
            }
        }
        // Hierarchy replay conformance: materializing a sampled
        // threshold from the recorded sequence must reproduce a direct
        // simplification of the same base bit-for-bit — wire bytes and
        // forward entries both.
        if params.hierarchy {
            for (slot, h) in &my_hier {
                let Some((_, base)) = my_outputs.iter().find(|(s, _)| s == slot) else {
                    continue;
                };
                for ordering in h.orderings() {
                    let recs = h.records(ordering).expect("listed ordering");
                    let mut thresholds = vec![f32::INFINITY];
                    if !recs.is_empty() {
                        thresholds.push(recs[recs.len() / 2].key);
                    }
                    for t in thresholds {
                        let mut fail = |note: String| {
                            rec.add(Counter::CheckHierarchy, 1);
                            eprintln!("[msp-check] rank {p} slot {slot}: {note}");
                        };
                        let got = match h.materialize(base, ordering, t) {
                            Ok(m) => m,
                            Err(e) => {
                                fail(format!("hierarchy {ordering} materialize({t}): {e}"));
                                continue;
                            }
                        };
                        let mut want = base.clone();
                        let mut order = match ordering {
                            msp_hierarchy::Ordering::Difference => CancelOrder::Difference,
                            msp_hierarchy::Ordering::Count => {
                                CancelOrder::Count(global_sizes.clone().unwrap_or_default())
                            }
                        };
                        let mut wfw = Vec::new();
                        let direct = simplify_with(
                            &mut want,
                            SimplifyParams {
                                threshold: t,
                                max_new_arcs: params.max_new_arcs,
                                max_parallel_arcs: Some(2),
                            },
                            &mut order,
                            None,
                            Some(&mut wfw),
                        );
                        if let Err(e) = direct {
                            fail(format!("hierarchy {ordering} direct simplify({t}): {e}"));
                            continue;
                        }
                        want.compact();
                        if wire::serialize(&got.complex) != wire::serialize(&want)
                            || got.forwards != wfw
                        {
                            fail(format!(
                                "hierarchy {ordering} materialize({t}) diverges from a \
                                 direct simplify run ({} record(s) replayed)",
                                got.applied
                            ));
                        }
                    }
                }
            }
        }
        rec.end(Phase::Check);
    }
    rec.end(Phase::Total);
    phase(ProgressPhase::Done);

    // Stop tracing before the telemetry/trace exchange below: the
    // gathers are bookkeeping, not pipeline work, and must not observe
    // themselves (same rule as the counter snapshot).
    rank.detach_tracer();
    rec.detach_trace();

    // Counter snapshot happens BEFORE the telemetry exchange below, so
    // the reported traffic is exactly the pipeline's own.
    let cs = rank.comm_stats();
    rec.add(Counter::BytesSent, cs.bytes_sent);
    rec.add(Counter::BytesRecv, cs.bytes_recv);
    rec.add(Counter::MsgsSent, cs.msgs_sent);
    rec.add(Counter::MsgsRecv, cs.msgs_recv);
    let report = rec.finish();

    // Exact global merge traffic via the integer all-reduce; lands in the
    // report meta on rank 0.
    let global_ship_bytes = rank
        .allreduce_u64(TAG_TELEMETRY_SHIP, report.counter("ship_bytes"), |a, b| {
            a + b
        })
        .map_err(comm_err("all-reducing global ship bytes"))?;
    let encoded = Bytes::from(report.encode());
    let gathered = rank
        .gather(0, TAG_TELEMETRY_GATHER, encoded)
        .map_err(comm_err("gathering telemetry reports"))?;
    let telemetry = match gathered {
        Some(all) => {
            let mut ranks = Vec::with_capacity(all.len());
            for b in &all {
                ranks.push(RankReport::decode(b).map_err(PipelineError::Telemetry)?);
            }
            Some(
                RunReport::from_ranks("run", ranks)
                    .with_meta("global_ship_bytes", Json::U64(global_ship_bytes)),
            )
        }
        None => None,
    };

    // Ship the frozen per-rank traces to root over the same collective
    // (a second gather on its own tag; runs only when tracing is on).
    let run_trace = match &sink {
        Some(s) => {
            let encoded = Bytes::from(s.finish().encode());
            let gathered = rank
                .gather(0, TAG_TRACE_GATHER, encoded)
                .map_err(comm_err("gathering rank traces"))?;
            match gathered {
                Some(all) => {
                    let mut traces = Vec::with_capacity(all.len());
                    for b in &all {
                        traces.push(RankTrace::decode(b).map_err(PipelineError::Telemetry)?);
                    }
                    Some(RunTrace::from_ranks(traces))
                }
                None => None,
            }
        }
        None => None,
    };
    Ok((
        telemetry,
        my_outputs,
        output_bytes,
        footer,
        threshold,
        run_trace,
        my_segs,
        seg_footer,
        my_hier,
        msh_footer,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn noise_input(n: u32, seed: u64) -> Input {
        Input::Memory(Arc::new(msp_synth::white_noise(Dims::cube(n), seed)))
    }

    #[test]
    fn serial_run_single_block() {
        let input = noise_input(8, 3);
        let r = run_parallel(&input, 1, 1, &PipelineParams::default(), None).unwrap();
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.telemetry.n_ranks, 1);
        assert_eq!(r.telemetry.ranks.len(), 1);
        r.outputs[0].check_integrity().unwrap();
    }

    #[test]
    fn bad_configs_are_reported_not_panicked() {
        let input = noise_input(8, 3);
        let few_blocks = run_parallel(&input, 4, 2, &PipelineParams::default(), None);
        assert!(matches!(few_blocks, Err(PipelineError::Config(_))));
        let params = PipelineParams {
            plan: MergePlan::rounds(vec![8]),
            ..Default::default()
        };
        let bad_plan = run_parallel(&input, 2, 12, &params, None);
        let msg = match bad_plan {
            Err(PipelineError::Config(m)) => m,
            other => panic!("expected config error, got {:?}", other.map(|_| ())),
        };
        assert!(msg.contains("reduction"), "contextful message: {msg}");
    }

    #[test]
    fn telemetry_covers_phases_and_counters() {
        let input = noise_input(9, 5);
        let params = PipelineParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let r = run_parallel(&input, 4, 8, &params, None).unwrap();
        let tel = &r.telemetry;
        assert_eq!(tel.n_ranks, 4);
        for key in [
            "read",
            "gradient",
            "trace",
            "simplify",
            "merge_round[0]",
            "write",
            "total",
        ] {
            let s = tel
                .phase_stat(key)
                .unwrap_or_else(|| panic!("phase {key} present"));
            assert!(s.seconds.max >= s.seconds.min);
        }
        assert!(tel.counter_total("critical_cells") > 0);
        assert!(tel.counter_total("cells_paired") > 0);
        assert!(tel.counter_total("arcs_traced") > 0);
        assert!(tel.counter_total("nodes_shipped") > 0);
        assert!(tel.counter_total("bytes_sent") > 0);
        // every byte sent is received by someone
        assert_eq!(
            tel.counter_total("bytes_sent"),
            tel.counter_total("bytes_recv")
        );
        assert_eq!(
            tel.counter_total("msgs_sent"),
            tel.counter_total("msgs_recv")
        );
        // a fault-free run reports no recovery activity
        for key in ["checkpoint_bytes", "retries", "rounds_replayed", "crashes"] {
            assert_eq!(tel.counter_total(key), 0, "{key} must be 0 without faults");
        }
        // the all-reduced global ship total matches the gathered counters
        let meta_ship = tel
            .meta
            .iter()
            .find(|(k, _)| k == "global_ship_bytes")
            .map(|(_, v)| match v {
                msp_telemetry::Json::U64(n) => *n,
                _ => panic!("global_ship_bytes must be u64"),
            })
            .expect("global_ship_bytes in meta");
        assert_eq!(meta_ship, tel.counter_total("ship_bytes"));
        assert!(meta_ship > 0);
    }

    #[test]
    fn full_merge_produces_one_block_with_no_boundary() {
        let input = noise_input(9, 5);
        let params = PipelineParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let r = run_parallel(&input, 8, 8, &params, None).unwrap();
        assert_eq!(r.outputs.len(), 1);
        let out = &r.outputs[0];
        assert_eq!(out.member_blocks, (0..8).collect::<Vec<_>>());
        assert!(out.nodes.iter().all(|n| !n.boundary));
        out.check_integrity().unwrap();
    }

    #[test]
    fn partial_merge_block_count() {
        let input = noise_input(9, 5);
        let params = PipelineParams {
            plan: MergePlan::rounds(vec![4]),
            ..Default::default()
        };
        let r = run_parallel(&input, 8, 8, &params, None).unwrap();
        assert_eq!(r.outputs.len(), 2);
    }

    #[test]
    fn more_blocks_than_ranks() {
        let input = noise_input(9, 7);
        let params = PipelineParams {
            plan: MergePlan::rounds(vec![8]),
            ..Default::default()
        };
        let r = run_parallel(&input, 2, 8, &params, None).unwrap();
        assert_eq!(r.outputs.len(), 1);
        r.outputs[0].check_integrity().unwrap();
    }

    #[test]
    fn parallel_matches_serial_on_significant_features() {
        // full merge at matching threshold must reproduce the serial
        // significant-feature census (stability, §V-A)
        let field = Arc::new(msp_synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 11));
        let input = Input::Memory(field.clone());
        let params = PipelineParams {
            persistence_frac: 0.05,
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let par = run_parallel(&input, 8, 8, &params, None).unwrap();
        let ser = run_parallel(
            &input,
            1,
            1,
            &PipelineParams {
                persistence_frac: 0.05,
                plan: MergePlan::none(),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(
            par.outputs[0].node_census()[3],
            ser.outputs[0].node_census()[3],
            "maxima census must match serial"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let input = noise_input(9, 13);
        let params = PipelineParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let a = run_parallel(&input, 8, 8, &params, None).unwrap();
        let b = run_parallel(&input, 4, 8, &params, None).unwrap();
        // same output complexes regardless of rank count
        assert_eq!(a.outputs.len(), b.outputs.len());
        let sa = wire::serialize(&a.outputs[0]);
        let sb = wire::serialize(&b.outputs[0]);
        assert_eq!(sa, sb, "output must be bit-identical across rank counts");
    }

    #[test]
    fn checkpointing_alone_changes_nothing() {
        let input = noise_input(9, 13);
        let plain = PipelineParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let ckpt = PipelineParams {
            fault: FaultConfig {
                checkpoint: true,
                ..Default::default()
            },
            ..plain.clone()
        };
        let a = run_parallel(&input, 4, 8, &plain, None).unwrap();
        let b = run_parallel(&input, 4, 8, &ckpt, None).unwrap();
        assert_eq!(
            wire::serialize(&a.outputs[0]),
            wire::serialize(&b.outputs[0]),
            "checkpointing must not perturb the result"
        );
        assert!(b.telemetry.counter_total("checkpoint_bytes") > 0);
        assert_eq!(b.telemetry.counter_total("crashes"), 0);
    }

    #[test]
    fn segmentation_identical_across_ranks_and_bounded_rounds() {
        let input = noise_input(9, 13);
        let params = PipelineParams {
            plan: MergePlan::full_merge(8),
            segment: true,
            ..Default::default()
        };
        let a = run_parallel(&input, 4, 8, &params, None).unwrap();
        let b = run_parallel(&input, 1, 8, &params, None).unwrap();
        assert_eq!(a.segmentation.len(), 8);
        assert_eq!(b.segmentation.len(), 8);
        for (sa, sb) in a.segmentation.iter().zip(&b.segmentation) {
            assert_eq!(
                segwire::serialize(sa),
                segwire::serialize(sb),
                "block {} labels must be bit-identical across rank counts",
                sa.block_id
            );
        }
        // fixed point within the synchronized pointer-jumping bound
        let forwards = a.telemetry.counter_total("seg_forwards");
        let rounds = a.telemetry.ranks[0].counter("seg_rounds");
        assert!(
            rounds <= msp_segment::jump_round_bound(forwards),
            "{rounds} jump rounds for {forwards} forwards"
        );
        assert!(a.telemetry.counter_total("seg_boundary_bytes") > 0);
        // every resolved label refers to a table entry (or the drain)
        for seg in &a.segmentation {
            for &l in &seg.min_label {
                assert!((l as usize) < seg.mins.len());
            }
            for &l in &seg.max_label {
                assert!(l == msp_segment::DRAIN_LABEL || (l as usize) < seg.maxs.len());
            }
        }
    }

    #[test]
    fn segmentation_without_merge_rounds() {
        let input = noise_input(8, 3);
        let params = PipelineParams {
            segment: true,
            ..Default::default()
        };
        let r = run_parallel(&input, 1, 1, &params, None).unwrap();
        assert_eq!(r.segmentation.len(), 1);
        let seg = &r.segmentation[0];
        assert_eq!(seg.vdims, [8, 8, 8]);
        assert_eq!(seg.min_label.len(), 512);
        assert_eq!(seg.max_label.len(), 343);
        assert!(!seg.mins.is_empty());
    }

    #[test]
    fn segmentation_off_costs_nothing() {
        let input = noise_input(8, 3);
        let r = run_parallel(&input, 2, 2, &PipelineParams::default(), None).unwrap();
        assert!(r.segmentation.is_empty());
        assert!(r.seg_footer.is_none());
        for key in [
            "seg_forwards",
            "seg_rounds",
            "seg_boundary_bytes",
            "seg_relabels",
        ] {
            assert_eq!(r.telemetry.counter_total(key), 0, "{key}");
        }
    }

    #[test]
    fn persistence_parsing_rejects_junk() {
        assert_eq!(parse_persistence("0.25"), Ok(0.25));
        assert_eq!(parse_persistence(" 0 "), Ok(0.0));
        for bad in ["-0.1", "NaN", "inf", "-inf", "pct", ""] {
            assert!(parse_persistence(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn hierarchy_off_costs_nothing() {
        let input = noise_input(8, 3);
        let r = run_parallel(&input, 2, 2, &PipelineParams::default(), None).unwrap();
        assert!(r.hierarchies.is_empty());
        assert!(r.msh_footer.is_none());
        assert_eq!(r.telemetry.counter_total("hierarchy_records"), 0);
    }

    #[test]
    fn hierarchy_is_recorded_replayable_and_schedule_independent() {
        let tmp = std::env::temp_dir();
        let mk = |tag: &str| {
            let mut p = tmp.clone();
            p.push(format!("msp_core_hier_{}_{tag}.msc", std::process::id()));
            p
        };
        let input = noise_input(9, 21);
        let params = PipelineParams {
            persistence_frac: 0.0,
            plan: MergePlan::full_merge(8),
            segment: true,
            hierarchy: true,
            check: true,
            ..Default::default()
        };
        let pa = mk("a");
        let pb = mk("b");
        let a = run_parallel(&input, 4, 8, &params, Some(&pa)).unwrap();
        let b = run_parallel(&input, 1, 8, &params, Some(&pb)).unwrap();
        // one hierarchy per output slot, with both orderings recorded
        assert_eq!(a.hierarchies.len(), a.outputs.len());
        assert_eq!(a.hierarchies, b.hierarchies);
        let h = &a.hierarchies[0];
        assert!(!h.difference.is_empty());
        assert!(h.count.as_ref().is_some_and(|c| !c.is_empty()));
        assert!(a.telemetry.counter_total("hierarchy_records") > 0);
        // the conformance check ran clean under --check
        assert_eq!(a.telemetry.counter_total("check_hierarchy"), 0);
        // the artifact is byte-identical across rank counts and round-trips
        let bytes_a = std::fs::read(msh_output_path(&pa)).unwrap();
        let bytes_b = std::fs::read(msh_output_path(&pb)).unwrap();
        assert_eq!(bytes_a, bytes_b, ".msh must not depend on the schedule");
        let footer = a.msh_footer.as_ref().expect("msh footer on rank 0");
        assert_eq!(footer.len(), a.outputs.len());
        let payload =
            msp_vmpi::fileio::read_block_payload(&msh_output_path(&pa), &footer[0]).unwrap();
        let loaded = hwire::deserialize(&payload).unwrap();
        assert_eq!(&loaded, h);
        // a mid-threshold materialization from the artifact matches a
        // direct simplify run on the wire-loaded base
        let base = {
            let f = a.footer.as_ref().expect("complex footer");
            let pl = msp_vmpi::fileio::read_block_payload(&pa, &f[0]).unwrap();
            wire::deserialize(&pl).unwrap()
        };
        let t = loaded.difference[loaded.difference.len() / 2].key;
        let got = loaded
            .materialize(&base, msp_hierarchy::Ordering::Difference, t)
            .unwrap();
        let mut want = base.clone();
        simplify_forwarding(
            &mut want,
            SimplifyParams {
                threshold: t,
                max_new_arcs: params.max_new_arcs,
                max_parallel_arcs: Some(2),
            },
            None,
        )
        .unwrap();
        want.compact();
        assert_eq!(wire::serialize(&got.complex), wire::serialize(&want));
        for p in [&pa, &pb] {
            std::fs::remove_file(p).ok();
            std::fs::remove_file(seg_output_path(p)).ok();
            std::fs::remove_file(msh_output_path(p)).ok();
        }
    }

    #[test]
    fn writes_valid_output_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("msp_core_out_{}.msc", std::process::id()));
        let input = noise_input(9, 2);
        let params = PipelineParams {
            plan: MergePlan::rounds(vec![4]),
            segment: true,
            ..Default::default()
        };
        let r = run_parallel(&input, 4, 8, &params, Some(&path)).unwrap();
        let footer = r.footer.expect("footer present");
        assert_eq!(footer.len(), 2);
        assert_eq!(r.output_bytes, footer.iter().map(|e| e.len).sum());
        // reload both blocks and compare with in-memory outputs
        for (entry, ms) in footer.iter().zip(&r.outputs) {
            let payload = msp_vmpi::fileio::read_block_payload(&path, entry).unwrap();
            let loaded = wire::deserialize(&payload).unwrap();
            assert_eq!(loaded.nodes.len(), ms.nodes.len());
            assert_eq!(loaded.member_blocks, ms.member_blocks);
        }
        // the labeled volume rides along in `<out>.seg`: one block per
        // original block, each payload round-tripping to the in-memory
        // segmentation
        let seg_path = seg_output_path(&path);
        let seg_footer = r.seg_footer.expect("seg footer present");
        assert_eq!(seg_footer.len(), 8);
        let mut loaded: Vec<BlockSegmentation> = seg_footer
            .iter()
            .map(|e| {
                let payload = msp_vmpi::fileio::read_block_payload(&seg_path, e).unwrap();
                segwire::deserialize(&payload).unwrap()
            })
            .collect();
        loaded.sort_by_key(|s| s.block_id);
        assert_eq!(loaded, r.segmentation);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&seg_path).ok();
    }
}
