//! The **threaded backend**: a genuinely parallel run of the stage list
//! (`stages.rs`) with one OS thread per rank and real message passing.
//!
//! Each rank's [`Machine`] hosts exactly that rank: steps run inline on
//! its thread with the `--threads` budget inside, messages go through
//! its `vmpi::Rank`, and phases are measured with `Instant` into the
//! [`Recorder`] (mirrored into a [`TraceSink`] when tracing). Blocks
//! may outnumber ranks; uniform runs assign them block-cyclically,
//! irregular ones by LPT over per-block cost estimates.

use crate::plan::MergePlan;
use crate::sched::DecompMode;
use crate::stages::{self, Io, Job, Machine, Node, Output, Source};
use bytes::Bytes;
use msp_complex::{wire, MsComplex};
use msp_fault::checkpoint::CheckpointError;
use msp_fault::FaultPlan;
use msp_grid::par::available_threads;
use msp_grid::rawio::VolumeDType;
use msp_grid::{Dims, ScalarField};
use msp_hierarchy::SlotHierarchy;
use msp_morse::TraceLimits;
use msp_segment::BlockSegmentation;
use msp_telemetry::{
    Counter, Heartbeat, Json, Phase, RankReport, RankTrace, Recorder, RunReport, RunTrace,
    TraceSink,
};
use msp_vmpi::comm::{CommError, Inject};
use msp_vmpi::fileio::{collective_write_blocks_keyed, FooterEntry};
use msp_vmpi::{Rank, Universe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags of the end-of-run telemetry exchange. They live above the file-IO
/// range (9001..) and below no one: nothing else speaks after the write
/// stage.
const TAG_TELEMETRY_GATHER: u32 = 9100;
const TAG_TELEMETRY_SHIP: u32 = 9110;
const TAG_TRACE_GATHER: u32 = 9120;

/// Fault-tolerance configuration of a run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Faults to inject (crashes at the stage list; message drops and
    /// delays at the machine; slow ranks on the simulator only). `None`
    /// injects nothing.
    pub plan: Option<FaultPlan>,
    /// Checkpoint every rank's state at each merge-round boundary and
    /// before the write, enabling exact recovery.
    pub checkpoint: bool,
    /// How long a root waits for a group member's merge message before
    /// declaring it dead and recovering (on the simulator: the modeled
    /// wait). On the threaded backend it also bounds every other receive:
    /// the run fails once all ranks have waited this long for messages
    /// that cannot come (a lost collective message). Only applied while a
    /// fault config is active.
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

pub(crate) fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> PipelineError {
    let context = context.into();
    move |source| PipelineError::Io { context, source }
}

pub(crate) fn comm_err(context: impl Into<String>) -> impl FnOnce(CommError) -> PipelineError {
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
    /// collective section would deadlock its peers).
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
    /// for long paper-scale runs. `None` is off.
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
    let (src, dtype) = match input {
        Input::Memory(f) => (Source::Memory(f), VolumeDType::F32),
        Input::File { path, dims, dtype } => (Source::File(path, *dims), *dtype),
    };
    let mut job = Job::layout(src, dtype, params, n_ranks, n_blocks)?;
    // One time base for every rank's trace sink, taken before any rank
    // starts, so cross-rank timestamps are causally comparable.
    let epoch = Instant::now();
    let heartbeat = heartbeat("pipeline", n_ranks, params.progress);
    job.progress = heartbeat.as_ref().map(|h| h.state());
    let inject = (params.fault.plan.clone()).map(|p| Arc::new(p) as Arc<dyn Inject>);
    let results = Universe::run_with_inject(n_ranks as usize, inject, |rank| {
        let mut m = Threaded::new(rank, params, epoch);
        let run = stages::run(&mut m, &job, output_path);
        m.finish(run)
    });
    drop(heartbeat);

    let (mut telemetry, mut trace, mut threshold) = (None, None, 0.0);
    let mut out = stages::RankOut::default();
    for res in results {
        let (th, rank_out, tel, tr) = res?;
        // only rank 0 holds the gathered report and trace
        telemetry = telemetry.or(tel);
        trace = trace.or(tr);
        threshold = th; // identical on every rank (all-reduced)
        out.absorb(rank_out);
    }
    let dims = input.dims();
    let radices = params.plan.radices.iter().map(|&r| Json::U64(r as u64));
    let telemetry = telemetry
        .ok_or_else(|| PipelineError::Telemetry("rank 0 produced no gathered report".into()))?
        .with_meta(
            "dims",
            Json::str(format!("{}x{}x{}", dims.nx, dims.ny, dims.nz)),
        )
        .with_meta("n_blocks", Json::U64(n_blocks as u64))
        .with_meta("decomp", Json::str(params.decomp.to_string()))
        .with_meta("merge_radices", Json::Arr(radices.collect()))
        .with_meta(
            "persistence_frac",
            Json::F64(params.persistence_frac as f64),
        )
        .with_meta("threshold", Json::F64(threshold as f64))
        .with_meta("output_bytes", Json::U64(out.output_bytes));
    // The critical path — the longest causally-ordered chain of span
    // time — rides along in the telemetry report meta.
    let telemetry = match trace.as_ref().and_then(|t| t.critical_path()) {
        Some(cp) => telemetry.with_meta("critical_path", cp.to_json()),
        None => telemetry,
    };
    Ok(RunResult {
        telemetry,
        outputs: out.outputs.into_iter().map(|(_, c)| c).collect(),
        footer: out.footer,
        output_bytes: out.output_bytes,
        threshold,
        trace,
        segmentation: out.segs,
        seg_footer: out.seg_footer,
        hierarchies: out.hier.into_iter().map(|(_, h)| h).collect(),
        msh_footer: out.msh_footer,
    })
}

/// The progress heartbeat of a run (`None`: off).
pub(crate) fn heartbeat(source: &str, n_ranks: u32, secs: Option<f64>) -> Option<Heartbeat> {
    let secs = secs.filter(|&s| s > 0.0 && s.is_finite())?;
    Some(Heartbeat::spawn(
        source,
        n_ranks as usize,
        Duration::from_secs_f64(secs),
    ))
}

pub(crate) type RankResult = (f32, stages::RankOut, Option<RunReport>, Option<RunTrace>);

/// The threaded machine: hosts one rank, on that rank's own thread.
pub(crate) struct Threaded<'r> {
    comm: &'r Rank,
    rec: Recorder,
    /// Causal tracing: one sink shared by the recorder (span events)
    /// and the comm endpoint (message stamps).
    sink: Option<TraceSink>,
    /// Trace time at which the open pointer-jump round began.
    round_t0: Option<u64>,
    threads: usize,
}

impl<'r> Threaded<'r> {
    pub(crate) fn new(comm: &'r Rank, params: &PipelineParams, epoch: Instant) -> Self {
        let p = comm.rank() as u32;
        let mut rec = Recorder::new(p);
        let sink = params.trace.then(|| TraceSink::new(p, epoch));
        if let Some(s) = &sink {
            rec.attach_trace(s.clone());
            comm.attach_tracer(s.clone());
        }
        // `threads == 1` is the serial code path; larger budgets give
        // bit-identical output, so the budget is capped at host
        // parallelism, where oversubscribing buys nothing.
        let host = available_threads();
        let threads = params.threads.unwrap_or(host).min(host).max(1);
        // With faults active no receive may hang: one that names no
        // deadline of its own (collectives, barriers, the all-to-all)
        // fails once the whole universe has waited a deadline for a
        // message that cannot come.
        let fault = &params.fault;
        comm.set_stall_deadline(fault.active().then_some(fault.deadline));
        Threaded {
            comm,
            rec,
            sink,
            round_t0: None,
            threads,
        }
    }

    /// Gather the counters and traces at rank 0. Tracing stops first and
    /// the traffic counters are read first: the gathers are bookkeeping
    /// and must not observe themselves.
    pub(crate) fn finish(
        mut self,
        run: Result<(f32, stages::RankOut), PipelineError>,
    ) -> Result<RankResult, PipelineError> {
        let (threshold, out) = run?;
        let rank = self.comm;
        rank.detach_tracer();
        self.rec.detach_trace();
        let cs = rank.comm_stats();
        self.rec.add(Counter::BytesSent, cs.bytes_sent);
        self.rec.add(Counter::BytesRecv, cs.bytes_recv);
        self.rec.add(Counter::MsgsSent, cs.msgs_sent);
        self.rec.add(Counter::MsgsRecv, cs.msgs_recv);
        let report = self.rec.finish();
        // exact global merge traffic, in the report meta on rank 0
        let global_ship_bytes = rank
            .allreduce_u64(TAG_TELEMETRY_SHIP, report.counter("ship_bytes"), |a, b| {
                a + b
            })
            .map_err(comm_err("all-reducing global ship bytes"))?;
        let gathered = rank
            .gather(0, TAG_TELEMETRY_GATHER, Bytes::from(report.encode()))
            .map_err(comm_err("gathering telemetry reports"))?;
        let telemetry = match gathered {
            Some(all) => {
                let ranks = all.iter().map(|b| RankReport::decode(b));
                let ranks = ranks.collect::<Result<Vec<_>, _>>();
                Some(
                    RunReport::from_ranks("run", ranks.map_err(PipelineError::Telemetry)?)
                        .with_meta("global_ship_bytes", Json::U64(global_ship_bytes)),
                )
            }
            None => None,
        };
        let trace = match &self.sink {
            Some(s) => rank
                .gather(0, TAG_TRACE_GATHER, Bytes::from(s.finish().encode()))
                .map_err(comm_err("gathering rank traces"))?
                .map(|all| all.iter().map(|b| RankTrace::decode(b)).collect())
                .transpose()
                .map_err(PipelineError::Telemetry)?
                .map(RunTrace::from_ranks),
            None => None,
        };
        Ok((threshold, out, telemetry, trace))
    }
}

impl Node for Threaded<'_> {
    fn rank(&self) -> u32 {
        self.comm.rank() as u32
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.rec.add(c, n);
    }

    fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.rec.time(phase, |_| f())
    }

    fn send(&mut self, to: u32, tag: u32, payload: Bytes) -> Result<(), CommError> {
        self.comm.send(to as usize, tag, payload)
    }

    fn recv(
        &mut self,
        from: u32,
        tag: u32,
        deadline: Option<Duration>,
    ) -> Result<Bytes, CommError> {
        self.comm.recv_deadline(from as usize, tag, deadline)
    }

    /// The trace charges replay work to the rank doing it.
    fn recover<R>(&mut self, _from: u32, f: impl FnOnce() -> (R, u64)) -> (R, Duration) {
        let t0 = Instant::now();
        let r0 = self.sink.as_ref().map(|s| s.now_ns());
        let (r, _) = f();
        if let (Some(s), Some(r0)) = (&self.sink, r0) {
            s.span_at("recover", r0, s.now_ns());
        }
        (r, t0.elapsed())
    }
}

impl Machine for Threaded<'_> {
    type Node = Self;
    const MODELS_IO: bool = false;

    fn size(&self) -> u32 {
        self.comm.size() as u32
    }

    fn ranks(&self) -> Vec<u32> {
        vec![self.comm.rank() as u32]
    }

    fn each<S: Send, R: Send>(
        &mut self,
        st: &mut [S],
        f: impl Fn(&mut Self, &mut S) -> R + Sync,
    ) -> Vec<R> {
        st.iter_mut().map(|s| f(self, s)).collect()
    }

    fn begin(&mut self, phase: Phase) {
        self.rec.begin(phase);
    }

    fn end(&mut self, phase: Phase) {
        self.rec.end(phase);
    }

    fn seg_round(&mut self, open: bool) {
        let Some(s) = &self.sink else { return };
        match self.round_t0.take() {
            Some(t0) if !open => s.span_at("seg_round", t0, s.now_ns()),
            _ => self.round_t0 = Some(s.now_ns()),
        }
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.comm.barrier()
    }

    fn allreduce_min_max(&mut self, tag: u32, v: &[(f64, f64)]) -> Result<(f64, f64), CommError> {
        self.comm.allreduce_min_max(tag, v[0].0, v[0].1)
    }

    fn allreduce_sum(&mut self, tag: u32, v: &[u64]) -> Result<u64, CommError> {
        self.comm.allreduce_u64(tag, v[0], |a, b| a + b)
    }

    fn io(&mut self, _: Io, _: &[u64]) {}

    fn write(
        &mut self,
        path: Option<&Path>,
        _: Output,
        blocks: Vec<Vec<(u32, Bytes)>>,
    ) -> std::io::Result<Option<Vec<FooterEntry>>> {
        let Some(path) = path else { return Ok(None) };
        let blocks = blocks.into_iter().flatten().map(|(k, p)| (k as u64, p));
        let (keys, payloads): (Vec<u64>, Vec<Bytes>) = blocks.unzip();
        let footer = collective_write_blocks_keyed(self.comm, path, &payloads, &keys)?;
        Ok((self.comm.rank() == 0).then_some(footer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_complex::{simplify_with, CancelOrder, SimplifyParams};
    use msp_hierarchy::wire as hwire;
    use msp_segment::wire as segwire;

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
            .and_then(|(_, v)| v.as_u64())
            .expect("global_ship_bytes in meta, as u64");
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
        let sp = SimplifyParams {
            threshold: t,
            max_new_arcs: params.max_new_arcs,
            max_parallel_arcs: Some(2),
        };
        simplify_with(&mut want, sp, &mut CancelOrder::Difference, None, None).unwrap();
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
