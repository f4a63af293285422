//! Scalable simulation driver: thousands of *virtual ranks* on a Rayon
//! pool, with per-rank **measured** compute times and **modeled**
//! communication and I/O times (BG/P-like torus + parallel filesystem,
//! see `msp_vmpi::netmodel`).
//!
//! The pipeline is bulk-synchronous, which makes this faithful: every
//! virtual rank carries a virtual clock; local stages advance it by the
//! measured wall time of the actual computation (performed for real),
//! gather-to-root merge rounds advance the root's clock by the modeled
//! message arrival plus the measured glue time. The result reproduces
//! the *shape* of the paper's Figs 6, 9, 10 and Tables I, II on a
//! workstation.
//!
//! ## Fault timing model
//!
//! With a [`FaultPlan`] in [`SimFault`], the same faults the threaded
//! backend injects for real are charged to the virtual clocks here:
//! a slowed rank's measured compute is multiplied by its factor; a
//! dropped message is re-shipped at [`NetParams::retry_time`] cost; a
//! crashed rank costs its merge root the detection deadline plus a
//! checkpoint re-ship over the torus. Checkpointing itself is charged
//! as a collective write of all live state at every round boundary.
//! The sim always models the *recovered* path (data is never actually
//! destroyed — outputs stay identical); degraded-mode data loss exists
//! only on the threaded backend.

use crate::plan::MergePlan;
use crate::sched::{feature_weights, Assignment, DecompMode, MergeSchedule};
use msp_complex::glue::glue_all;
use msp_complex::{
    complex_from_gradient, simplify, simplify_forwarding, wire, MsComplex, SimplifyParams,
};
use msp_fault::FaultPlan;
use msp_grid::par::{available_threads, par_map, par_map_mut};
use msp_grid::rawio::{block_bytes, VolumeDType};
use msp_grid::{Decomposition, ScalarField};
use msp_morse::{assign_gradient, TraceLimits};
use msp_segment::{
    label_block, owner_rank, wire as segwire, BlockSegmentation, ForwardMap, DRAIN_ADDR,
};
use msp_telemetry::{
    progress_interval_from_env, Heartbeat, Json, ProgressPhase, RankTrace, RunTrace, TimeoutStamp,
};
use msp_vmpi::comm::{Inject, SendFate};
use msp_vmpi::{IoParams, NetParams, Torus};
use std::collections::HashMap;
use std::time::Instant;

/// Fault configuration of a simulated run (timing model only).
#[derive(Debug, Clone)]
pub struct SimFault {
    /// Faults whose costs are charged to the virtual clocks.
    pub plan: Option<FaultPlan>,
    /// Charge a collective checkpoint write at every round boundary
    /// (and once before the output write).
    pub checkpoint: bool,
    /// Modeled failure-detection deadline a root waits before
    /// recovering a dead member from its checkpoint.
    pub deadline_s: f64,
}

impl Default for SimFault {
    fn default() -> Self {
        SimFault {
            plan: None,
            checkpoint: false,
            deadline_s: 0.25,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Persistence threshold as a fraction of the global value range.
    pub persistence_frac: f32,
    pub plan: MergePlan,
    /// Decomposition mode (DESIGN.md §14). The sim replays exactly the
    /// schedule the threaded pipeline would run: uniform bisection keeps
    /// the fixed radix tree and block-cyclic (here: identity) rank map,
    /// irregular modes contract the block neighbor graph and assign
    /// blocks by LPT over the same per-block cost estimates.
    pub decomp: DecompMode,
    pub trace_limits: TraceLimits,
    pub max_new_arcs: Option<u64>,
    pub net: NetParams,
    pub io: IoParams,
    /// Element type of the (virtual) input file, for the read model.
    pub dtype: VolumeDType,
    /// Fault injection for the timing model (inactive by default).
    pub fault: SimFault,
    /// Build a causal event trace on the virtual clocks — the same
    /// [`RunTrace`] format the threaded backend records, so Chrome
    /// export and critical-path analysis work identically on simulated
    /// runs.
    pub trace: bool,
    /// Compute the Morse-Smale segmentation: per-block labeling is
    /// *measured*, the distributed pointer-jump resolution is replayed
    /// exactly (same owner maps, same synchronized evolution, same wire
    /// encoding — DESIGN.md §11) with *modeled* communication costs, so
    /// `seg_rounds` / `seg_forwards` / `seg_bytes` match the threaded
    /// pipeline's counters bit for bit.
    pub segment: bool,
    /// Emit a progress heartbeat (phase, virtual ranks done, bytes
    /// moved) to stderr every this-many seconds; `None` falls back to
    /// the `MSP_PROGRESS` environment variable, off when unset.
    pub progress: Option<f64>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            persistence_frac: 0.01,
            plan: MergePlan::none(),
            decomp: DecompMode::Uniform,
            trace_limits: TraceLimits::default(),
            // valence guard: skip cancellations that would fan out into
            // more than this many replacement arcs (degenerate lattices)
            max_new_arcs: Some(4096),
            net: NetParams::default(),
            io: IoParams::default(),
            dtype: VolumeDType::F32,
            fault: SimFault::default(),
            trace: false,
            segment: false,
            progress: None,
        }
    }
}

/// A simulation failure with context, replacing the panics the driver
/// used to raise on bad configurations and internal slot bookkeeping.
#[derive(Debug)]
pub enum SimError {
    /// Invalid run configuration (rank count, merge plan).
    Config(String),
    /// A slot the plan says must be alive holds no complex — internal
    /// bookkeeping violation, reported instead of panicking.
    DeadSlot { slot: u32, stage: &'static str },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid sim config: {msg}"),
            SimError::DeadSlot { slot, stage } => {
                write!(f, "slot {slot} holds no complex at {stage}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Modeled + measured times of one merge round.
#[derive(Debug, Clone, Copy)]
pub struct RoundReport {
    pub radix: u32,
    /// Modeled communication time (max over groups).
    pub comm_s: f64,
    /// Measured glue + re-simplify time (max over groups).
    pub glue_s: f64,
    /// Critical-path advance of this round.
    pub round_s: f64,
    /// Total serialized bytes moved in this round.
    pub bytes_moved: u64,
}

/// Full report of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub n_ranks: u32,
    /// Modeled collective-read time.
    pub read_s: f64,
    /// Measured per-block gradient + MS-complex time (max over ranks).
    pub compute_s: f64,
    /// Measured initial local simplification (max over ranks) — the
    /// paper counts this as the start of the merge stage (Fig 3 (d)).
    pub local_simplify_s: f64,
    /// Merge-stage critical path: local simplify + all rounds.
    pub merge_s: f64,
    /// Modeled collective-write time.
    pub write_s: f64,
    /// End-to-end modeled wall time.
    pub total_s: f64,
    pub rounds: Vec<RoundReport>,
    pub output_blocks: u32,
    pub output_bytes: u64,
    pub live_nodes: u64,
    pub live_arcs: u64,
    pub threshold: f32,
    /// Injected crashes charged to the clocks.
    pub crashes: u64,
    /// Recovery re-ships (dead members + dropped messages).
    pub retries: u64,
    /// Bytes re-shipped during recovery.
    pub retry_bytes: u64,
    /// Modeled time spent detecting failures and re-shipping state.
    pub recovery_s: f64,
    /// Modeled time spent writing round-boundary checkpoints.
    pub checkpoint_s: f64,
    /// Measured per-block segmentation labeling (max over ranks).
    pub seg_label_s: f64,
    /// Modeled communication time of the distributed resolution
    /// (forward routing + jump rounds + table rewrite).
    pub seg_resolve_s: f64,
    /// Modeled collective write of the labeled-volume file.
    pub seg_write_s: f64,
    /// Pointer-jump rounds to the fixed point, including the final
    /// observing round — exactly the pipeline's `seg_rounds` counter.
    pub seg_rounds: u64,
    /// Forward entries routed to their owners (pipeline `seg_forwards`).
    pub seg_forwards: u64,
    /// Resolution wire traffic in bytes (pipeline `seg_boundary_bytes`).
    pub seg_bytes: u64,
    /// Serialized segmentation payload bytes (`SEG1` blocks).
    pub seg_output_bytes: u64,
    /// Virtual-clock causal trace when [`SimParams::trace`] was on.
    pub trace: Option<RunTrace>,
}

impl SimReport {
    /// Render the report as the same versioned JSON document shape the
    /// threaded pipeline emits (`kind: "sim"`), so sim and run reports
    /// land side by side in `results/` and share tooling.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj(vec![
            ("version", Json::U64(msp_telemetry::REPORT_VERSION as u64)),
            ("kind", Json::str("sim")),
            ("n_ranks", Json::U64(self.n_ranks as u64)),
            (
                "phases",
                Json::obj(vec![
                    ("read", Json::F64(self.read_s)),
                    ("compute", Json::F64(self.compute_s)),
                    ("local_simplify", Json::F64(self.local_simplify_s)),
                    ("merge", Json::F64(self.merge_s)),
                    ("segment", Json::F64(self.seg_label_s)),
                    ("seg_resolve", Json::F64(self.seg_resolve_s)),
                    ("write", Json::F64(self.write_s)),
                    ("total", Json::F64(self.total_s)),
                ]),
            ),
            (
                "rounds",
                Json::Arr(
                    self.rounds
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("radix", Json::U64(r.radix as u64)),
                                ("comm_s", Json::F64(r.comm_s)),
                                ("glue_s", Json::F64(r.glue_s)),
                                ("round_s", Json::F64(r.round_s)),
                                ("bytes_moved", Json::U64(r.bytes_moved)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("output_blocks", Json::U64(self.output_blocks as u64)),
            ("output_bytes", Json::U64(self.output_bytes)),
            ("live_nodes", Json::U64(self.live_nodes)),
            ("live_arcs", Json::U64(self.live_arcs)),
            ("threshold", Json::F64(self.threshold as f64)),
            (
                "segment",
                Json::obj(vec![
                    ("label_s", Json::F64(self.seg_label_s)),
                    ("resolve_s", Json::F64(self.seg_resolve_s)),
                    ("write_s", Json::F64(self.seg_write_s)),
                    ("rounds", Json::U64(self.seg_rounds)),
                    ("forwards", Json::U64(self.seg_forwards)),
                    ("resolution_bytes", Json::U64(self.seg_bytes)),
                    ("output_bytes", Json::U64(self.seg_output_bytes)),
                ]),
            ),
            (
                "fault",
                Json::obj(vec![
                    ("crashes", Json::U64(self.crashes)),
                    ("retries", Json::U64(self.retries)),
                    ("retry_bytes", Json::U64(self.retry_bytes)),
                    ("recovery_s", Json::F64(self.recovery_s)),
                    ("checkpoint_s", Json::F64(self.checkpoint_s)),
                ]),
            ),
        ]);
        if let Some(cp) = self.trace.as_ref().and_then(|t| t.critical_path()) {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("critical_path".to_string(), cp.to_json()));
            }
        }
        doc
    }
}

/// Per-member modeled delivery, resolved serially so link sequence
/// numbers and fault charges are deterministic.
struct MemberIn {
    ms: MsComplex,
    /// Modeled clock at which the root can consume this complex.
    arrive_s: f64,
    bytes: u64,
}

/// Fault charges accumulated while resolving deliveries.
#[derive(Default)]
struct FaultLedger {
    crashes: u64,
    retries: u64,
    retry_bytes: u64,
    recovery_s: f64,
    checkpoint_s: f64,
}

/// Route every rank's pending forwards to their owner maps, mirroring
/// the pipeline's `flush_forwards` all-to-all: each rank sends a
/// length-prefixed pair payload to every *other* rank (empty buckets
/// still cost their 4-byte count header; the self bucket is delivered
/// locally, unserialized). Pending buckets are indexed by block slot;
/// `assign` maps each slot to the virtual rank that holds it, and owners
/// are the pipeline's hashed `owner_rank` map. Returns
/// `(total_bytes, max_rank_bytes)` of the modeled exchange and bumps the
/// forward counter.
fn flush_pending(
    pending: &mut [Vec<(u64, u64)>],
    owned: &mut [ForwardMap],
    assign: &Assignment,
    forwards: &mut u64,
) -> (u64, u64) {
    let n = owned.len();
    let nl = n as u64;
    let (mut total, mut maxb) = (0u64, 0u64);
    for (src, bucket) in pending.iter_mut().enumerate() {
        let src_rank = assign.rank_of(src as u32) as usize;
        *forwards += bucket.len() as u64;
        let mut lens = vec![0u64; n];
        for &(dead, target) in bucket.iter() {
            let owner = owner_rank(dead, nl) as usize;
            lens[owner] += 1;
            owned[owner].insert(dead, target);
        }
        bucket.clear();
        let rank_bytes: u64 = lens
            .iter()
            .enumerate()
            .filter(|(dst, _)| *dst != src_rank)
            .map(|(_, &l)| 4 + 16 * l)
            .sum();
        total += rank_bytes;
        maxb = maxb.max(rank_bytes);
    }
    (total, maxb)
}

/// Simulate the pipeline at `n_ranks` virtual ranks (one block each).
pub fn simulate(
    field: &ScalarField,
    n_ranks: u32,
    params: &SimParams,
) -> Result<SimReport, SimError> {
    if n_ranks < 1 {
        return Err(SimError::Config("need at least one rank".into()));
    }
    let n_blocks = n_ranks;
    let red = params.plan.reduction();
    if params.decomp.is_uniform() && !n_blocks.is_multiple_of(red) {
        return Err(SimError::Config(format!(
            "plan reduction {red} must divide the rank count {n_ranks}"
        )));
    }
    // Heartbeat: virtual ranks advance in lockstep phases here (the
    // driver is bulk-synchronous), so every transition is a
    // `set_phase_all`; "done" ranks only diverge from the phase label
    // at the very end.
    let heartbeat = params
        .progress
        .or_else(progress_interval_from_env)
        .filter(|&s| s > 0.0 && s.is_finite())
        .map(|secs| {
            Heartbeat::spawn(
                "sim",
                n_ranks as usize,
                std::time::Duration::from_secs_f64(secs),
            )
        });
    let progress = heartbeat.as_ref().map(|h| h.state());
    let phase = |ph: ProgressPhase| {
        if let Some(st) = &progress {
            st.set_phase_all(ph);
        }
    };
    // Same (decomposition, schedule, assignment) the threaded pipeline
    // derives — all pure functions of `(decomp, plan)`, so the sim
    // replays the identical merge tree and rank layout. With one block
    // per virtual rank the LPT assignment is a permutation; clocks,
    // traces, and fault charges index by `rank_of(slot)` while the
    // complexes stay slot-indexed like the pipeline's slot maps.
    let (decomp, costs): (Decomposition, Option<Vec<u64>>) = match params.decomp {
        DecompMode::Uniform => (Decomposition::bisect(field.dims(), n_blocks), None),
        DecompMode::Adaptive => {
            let weights = feature_weights(field);
            let d = Decomposition::adaptive(field.dims(), n_blocks, &weights);
            let c = d.block_costs(&weights);
            (d, Some(c))
        }
        DecompMode::RandomTree { seed } => {
            let d = Decomposition::random_tree(field.dims(), n_blocks, seed);
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
    let rk = |b: u32| assign.rank_of(b) as usize;
    let (gmin, gmax) = field.min_max();
    let threshold = params.persistence_frac * (gmax - gmin);
    let sp = SimplifyParams {
        threshold,
        max_new_arcs: params.max_new_arcs,
        max_parallel_arcs: Some(2),
    };
    let fplan = params.fault.plan.as_ref();
    let mut ledger = FaultLedger::default();
    // Virtual-clock trace: spans/messages stamped in modeled seconds,
    // converted to the trace's nanosecond timestamps.
    let ns = |s: f64| (s.max(0.0) * 1e9).round() as u64;
    let mut traces: Option<Vec<RankTrace>> = params
        .trace
        .then(|| (0..n_ranks).map(RankTrace::new).collect());

    // ---- read (modeled) ----
    phase(ProgressPhase::Read);
    let total_in: u64 = decomp
        .blocks()
        .iter()
        .map(|b| block_bytes(b, params.dtype))
        .sum();
    let max_in = decomp
        .blocks()
        .iter()
        .map(|b| block_bytes(b, params.dtype))
        .max()
        .unwrap_or(0);
    let read_s = params.io.collective_time(total_in, max_in, n_ranks);

    // ---- compute + local simplify (measured, per virtual rank) ----
    phase(ProgressPhase::Local);
    struct BlockOut {
        ms: MsComplex,
        seg: Option<BlockSegmentation>,
        fw: Vec<(u64, u64)>,
        t_build: f64,
        t_label: f64,
        t_simplify: f64,
    }
    let rdims = field.dims().refined();
    let threads = available_threads();
    let blocks: Vec<BlockOut> = par_map(threads, decomp.blocks(), |_, b| {
        let bf = field.extract_block(b);
        let t0 = Instant::now();
        let grad = assign_gradient(&bf, &decomp);
        let (mut ms, _) = complex_from_gradient(&bf, &decomp, &grad, params.trace_limits);
        let t_build = t0.elapsed().as_secs_f64();
        let (seg, t_label) = if params.segment {
            let tl = Instant::now();
            let seg = label_block(b, &rdims, &grad, 1);
            (Some(seg), tl.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };
        let t1 = Instant::now();
        let mut fw = Vec::new();
        if params.segment {
            simplify_forwarding(&mut ms, sp, Some(&mut fw)).expect("sim-driver fields are finite");
        } else {
            simplify(&mut ms, sp).expect("sim-driver fields are finite");
        }
        ms.compact();
        let t_simplify = t1.elapsed().as_secs_f64();
        BlockOut {
            ms,
            seg,
            fw,
            t_build,
            t_label,
            t_simplify,
        }
    });

    let compute_s = blocks.iter().map(|b| b.t_build).fold(0.0, f64::max);
    let seg_label_s = blocks.iter().map(|b| b.t_label).fold(0.0, f64::max);
    let local_simplify_s = blocks.iter().map(|b| b.t_simplify).fold(0.0, f64::max);

    // virtual clocks: collective read ends together, then local work
    // (multiplied by the rank's injected slowdown factor, if any)
    let mut clocks: Vec<f64> = vec![0.0; n_ranks as usize];
    for (i, b) in blocks.iter().enumerate() {
        let r = rk(i as u32);
        let slow = fplan.map_or(1.0, |p| p.slow_factor(r));
        clocks[r] = read_s + (b.t_build + b.t_label + b.t_simplify) * slow;
    }
    if let Some(tr) = &mut traces {
        for (i, b) in blocks.iter().enumerate() {
            let r = rk(i as u32);
            let slow = fplan.map_or(1.0, |p| p.slow_factor(r));
            let t_read_end = read_s;
            let t_compute_end = t_read_end + b.t_build * slow;
            let t_label_end = t_compute_end + b.t_label * slow;
            tr[r].span("read", 0, ns(t_read_end));
            tr[r].span("compute", ns(t_read_end), ns(t_compute_end));
            if params.segment {
                tr[r].span("segment", ns(t_compute_end), ns(t_label_end));
            }
            tr[r].span("local_simplify", ns(t_label_end), ns(clocks[r]));
        }
    }
    // Segmentation resolution state: per-slot pending forwards and
    // per-rank owner maps (the pipeline's hashed `owner_rank`), plus
    // the counters the modeled exchanges accumulate.
    let mut pending_fw: Vec<Vec<(u64, u64)>> = Vec::with_capacity(blocks.len());
    let mut segs: Vec<Option<BlockSegmentation>> = Vec::with_capacity(blocks.len());
    let mut complexes: Vec<Option<MsComplex>> = Vec::with_capacity(blocks.len());
    for b in blocks {
        pending_fw.push(b.fw);
        segs.push(b.seg);
        complexes.push(Some(b.ms));
    }
    let mut owned_fw: Vec<ForwardMap> = vec![ForwardMap::new(); n_ranks as usize];
    let mut seg_forwards = 0u64;
    let mut seg_bytes = 0u64;
    let mut seg_resolve_s = 0.0f64;

    // ---- merge rounds ----
    phase(ProgressPhase::Merge);
    let torus = Torus::for_ranks(n_ranks);
    let clock_after_local = clocks.iter().copied().fold(0.0, f64::max);
    let mut rounds = Vec::with_capacity(sched.rounds.len());
    // per-directed-link message counter, 1-based like the comm layer's
    let mut link_seq: HashMap<(usize, usize), u64> = HashMap::new();
    for (r, round) in sched.rounds.iter().enumerate() {
        let groups = &round.groups;
        let round_no = r as u32 + 1;
        let before = clocks.iter().copied().fold(0.0, f64::max);

        // Round boundary = consistent cut: charge the checkpoint write
        // of all live state as a collective over the alive slots.
        if params.fault.checkpoint {
            let alive: Vec<u32> = groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
            let sizes: Vec<u64> = alive
                .iter()
                .map(|&s| match &complexes[s as usize] {
                    Some(ms) => wire::estimate_size(ms) as u64,
                    None => 0,
                })
                .collect();
            let total: u64 = sizes.iter().sum();
            let ck = params.io.collective_time(
                total,
                sizes.iter().copied().max().unwrap_or(0),
                alive.len() as u32,
            );
            for &s in &alive {
                if let Some(tr) = &mut traces {
                    let t0 = clocks[rk(s)];
                    tr[rk(s)].span("checkpoint", ns(t0), ns(t0 + ck));
                }
                clocks[rk(s)] += ck;
            }
            ledger.checkpoint_s += ck;
        }

        // pull out the group inputs serially (deterministic link
        // sequencing + fault charges), process groups in parallel
        let mut work: Vec<(u32, MsComplex, f64, Vec<MemberIn>)> = Vec::with_capacity(groups.len());
        let mut round_entry: HashMap<u32, f64> = HashMap::new();
        for (root, members) in groups {
            let root_ms = complexes[*root as usize].take().ok_or(SimError::DeadSlot {
                slot: *root,
                stage: "merge root",
            })?;
            let mut root_clock = clocks[rk(*root)];
            round_entry.insert(*root, root_clock);
            if fplan.is_some_and(|p| p.should_crash(rk(*root), round_no)) {
                // A crashed root reboots from its own checkpoint: the
                // round replays after a reload of its full state.
                let bytes = wire::estimate_size(&root_ms) as u64;
                let reload = params.net.retry_time(bytes, 0);
                ledger.crashes += 1;
                ledger.retries += 1;
                ledger.retry_bytes += bytes;
                ledger.recovery_s += reload;
                if let Some(tr) = &mut traces {
                    tr[rk(*root)].span("recover", ns(root_clock), ns(root_clock + reload));
                }
                root_clock += reload;
                // keep root_ms: the sim models the recovered (bit-exact)
                // data path, only the clock pays
            }
            let mut inputs = Vec::with_capacity(members.len() - 1);
            for &m in &members[1..] {
                let ms = complexes[m as usize].take().ok_or(SimError::DeadSlot {
                    slot: m,
                    stage: "merge member",
                })?;
                let bytes = wire::estimate_size(&ms) as u64;
                if let Some(st) = &progress {
                    st.add_bytes(bytes);
                }
                let hops = torus.hops(rk(m) as u32, rk(*root) as u32);
                let seq = link_seq.entry((rk(m), rk(*root))).or_insert(0);
                *seq += 1;
                let tag = (round_no << 20) | m;
                let mut arrive =
                    clocks[rk(m)] + params.net.latency_s + params.net.hop_time_s * hops as f64;
                if fplan.is_some_and(|p| p.should_crash(rk(m), round_no)) {
                    // Dead member: the root burns its detection deadline,
                    // then re-ships the member's checkpoint over the
                    // torus instead of receiving its message.
                    let retry = params.net.retry_time(bytes, hops);
                    ledger.crashes += 1;
                    ledger.retries += 1;
                    ledger.retry_bytes += bytes;
                    ledger.recovery_s += params.fault.deadline_s + retry;
                    arrive = root_clock + params.fault.deadline_s + retry;
                    if let Some(tr) = &mut traces {
                        // No message left the dead member: the root's
                        // trace shows the expired deadline and the
                        // checkpoint re-ship as a recover span.
                        let expire = root_clock + params.fault.deadline_s;
                        tr[rk(*root)].timeouts.push(TimeoutStamp {
                            src: rk(m) as u32,
                            tag,
                            t_ns: ns(expire),
                            waited_ns: ns(params.fault.deadline_s),
                        });
                        tr[rk(*root)].span("recover", ns(expire), ns(arrive));
                    }
                } else if let Some(p) = fplan {
                    match p.fate(m as usize, *root as usize, *seq) {
                        SendFate::Deliver => {}
                        SendFate::Drop => {
                            // lost in flight: one retry round-trip
                            let retry = params.net.retry_time(bytes, hops);
                            ledger.retries += 1;
                            ledger.retry_bytes += bytes;
                            ledger.recovery_s += retry;
                            arrive += retry;
                        }
                        SendFate::Delay(d) => arrive += d.as_secs_f64(),
                    }
                }
                if let Some(tr) = &mut traces {
                    if !fplan.is_some_and(|p| p.should_crash(rk(m), round_no)) {
                        // One causal pair per surviving transfer: drops and
                        // delays move the arrival, they don't fork the edge.
                        tr[rk(m)].send(rk(*root) as u32, tag, *seq, bytes, ns(clocks[rk(m)]));
                        tr[rk(*root)].recv(rk(m) as u32, tag, *seq, bytes, ns(arrive));
                    }
                }
                inputs.push(MemberIn {
                    ms,
                    arrive_s: arrive,
                    bytes,
                });
            }
            work.push((*root, root_ms, root_clock, inputs));
        }
        type GlueOut = (f64, f64, f64, u64, Vec<(u64, u64)>);
        let results: Vec<GlueOut> =
            par_map_mut(threads, &mut work, |_, (_, root_ms, root_clock, inputs)| {
                // modeled arrival: the root can start gluing once every
                // member's message has landed; the root link serializes
                // the payloads
                let mut start = *root_clock;
                let mut sum_bytes = 0u64;
                for m in inputs.iter() {
                    sum_bytes += m.bytes;
                    start = start.max(m.arrive_s);
                }
                let comm = sum_bytes as f64 * params.net.byte_time_s;
                let t0 = Instant::now();
                let incoming: Vec<MsComplex> = inputs.drain(..).map(|m| m.ms).collect();
                glue_all(root_ms, &incoming, &decomp).expect("sim-driver complexes glue cleanly");
                let mut fw = Vec::new();
                if params.segment {
                    simplify_forwarding(root_ms, sp, Some(&mut fw))
                        .expect("sim-driver fields are finite");
                } else {
                    simplify(root_ms, sp).expect("sim-driver fields are finite");
                }
                root_ms.compact();
                let glue = t0.elapsed().as_secs_f64();
                (start + comm + glue, comm, glue, sum_bytes, fw)
            });
        let mut comm_max = 0.0f64;
        let mut glue_max = 0.0f64;
        let mut bytes_moved = 0u64;
        for ((root, ms, _, _), (clock, comm, glue, bytes, fw)) in work.into_iter().zip(results) {
            comm_max = comm_max.max(comm);
            glue_max = glue_max.max(glue);
            bytes_moved += bytes;
            if let Some(tr) = &mut traces {
                let entry = round_entry.get(&root).copied().unwrap_or(clock);
                tr[rk(root)].span(&format!("merge_round[{r}]"), ns(entry), ns(clock));
                tr[rk(root)].span("glue", ns(clock - glue), ns(clock));
            }
            clocks[rk(root)] = clock;
            complexes[root as usize] = Some(ms);
            pending_fw[root as usize].extend(fw);
        }
        // Piggybacked forward flush at the round boundary, mirroring the
        // pipeline: the round's cancellations route to their owner maps,
        // the exchange's wire bytes and one latency are charged.
        if params.segment {
            let (fb, fb_max) =
                flush_pending(&mut pending_fw, &mut owned_fw, &assign, &mut seg_forwards);
            seg_bytes += fb;
            if n_ranks > 1 {
                seg_resolve_s += params.net.latency_s + fb_max as f64 * params.net.byte_time_s;
            }
        }
        let after = groups
            .iter()
            .map(|(root, _)| clocks[rk(*root)])
            .fold(0.0, f64::max);
        rounds.push(RoundReport {
            radix: round.radix,
            comm_s: comm_max,
            glue_s: glue_max,
            round_s: after - before,
            bytes_moved,
        });
    }

    // ---- segmentation resolution (exact evolution, modeled comm) ----
    // The global jump evolution `new[d] = old[old[d]]` is a pure
    // function of the forward-pair content, independent of how entries
    // partition across owners — so replaying it sequentially over the
    // same owner maps yields the *true* distributed round count and
    // wire traffic, while the clocks are only charged modeled costs.
    let mut seg_rounds = 0u64;
    let mut seg_output_bytes = 0u64;
    let mut seg_write_s = 0.0f64;
    if params.segment {
        phase(ProgressPhase::SegResolve);
        let n = n_ranks as usize;
        let nl = n_ranks as u64;
        // log-tree all-reduce closes every jump round
        let allreduce_s = if n_ranks > 1 {
            params.net.latency_s * (32 - (n_ranks - 1).leading_zeros()) as f64
        } else {
            0.0
        };
        // flush whatever was not piggybacked on a merge round (all
        // local forwards when the plan has no rounds)
        let (fb, fb_max) =
            flush_pending(&mut pending_fw, &mut owned_fw, &assign, &mut seg_forwards);
        seg_bytes += fb;
        if n_ranks > 1 {
            seg_resolve_s += params.net.latency_s + fb_max as f64 * params.net.byte_time_s;
        }
        loop {
            // queries: each rank asks every target's owner, sorted and
            // deduplicated per destination
            let mut qbuckets: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n]; n];
            for (src, map) in owned_fw.iter().enumerate() {
                for (_, target) in map.sorted_entries() {
                    if target != DRAIN_ADDR {
                        qbuckets[src][owner_rank(target, nl) as usize].push(target);
                    }
                }
                for qb in &mut qbuckets[src] {
                    qb.sort_unstable();
                    qb.dedup();
                }
            }
            // replies answer from the PRE-round state: all lookups are
            // built before any rank applies its jump pass
            let mut lookups: Vec<HashMap<u64, u64>> = vec![HashMap::new(); n];
            let mut rlens = vec![vec![0u64; n]; n];
            let (mut qtot, mut qmax) = (0u64, 0u64);
            for src in 0..n {
                let mut qb_bytes = 0u64;
                for owner in 0..n {
                    let qb = &qbuckets[src][owner];
                    if owner != src {
                        qb_bytes += 4 + 8 * qb.len() as u64;
                    }
                    for &a in qb {
                        if let Some(t) = owned_fw[owner].get(a) {
                            rlens[owner][src] += 1;
                            lookups[src].insert(a, t);
                        }
                    }
                }
                qtot += qb_bytes;
                qmax = qmax.max(qb_bytes);
            }
            let (mut rtot, mut rmax) = (0u64, 0u64);
            for (owner, lens) in rlens.iter().enumerate() {
                let b: u64 = lens
                    .iter()
                    .enumerate()
                    .filter(|(dst, _)| *dst != owner)
                    .map(|(_, &l)| 4 + 16 * l)
                    .sum();
                rtot += b;
                rmax = rmax.max(b);
            }
            seg_bytes += qtot + rtot;
            if n_ranks > 1 {
                seg_resolve_s += 2.0 * params.net.latency_s
                    + (qmax + rmax) as f64 * params.net.byte_time_s
                    + allreduce_s;
            }
            let mut changed = 0u64;
            for (src, map) in owned_fw.iter_mut().enumerate() {
                changed += map.jump_pass(&lookups[src]);
            }
            // counted exactly like the pipeline: every iteration,
            // including the final one that observes the fixed point
            seg_rounds += 1;
            if changed == 0 {
                break;
            }
        }
        // table rewrite: every extremum address in each rank's tables
        // is resolved by its owner against the compressed map
        let mut tlens = vec![vec![0u64; n]; n];
        for (slot, seg) in segs.iter_mut().enumerate() {
            let Some(seg) = seg.as_mut() else { continue };
            let src = rk(slot as u32);
            let mut addrs: Vec<u64> = seg.mins.iter().chain(seg.maxs.iter()).copied().collect();
            addrs.sort_unstable();
            addrs.dedup();
            for &a in &addrs {
                tlens[src][owner_rank(a, nl) as usize] += 1;
            }
            let rm: Vec<u64> = seg
                .mins
                .iter()
                .map(|&a| owned_fw[owner_rank(a, nl) as usize].resolve(a))
                .collect();
            let rx: Vec<u64> = seg
                .maxs
                .iter()
                .map(|&a| owned_fw[owner_rank(a, nl) as usize].resolve(a))
                .collect();
            seg.apply_resolution(&rm, &rx);
        }
        let (mut qtot, mut qmax) = (0u64, 0u64);
        let (mut rtot, mut rmax) = (0u64, 0u64);
        for (src, row) in tlens.iter().enumerate() {
            let qb: u64 = (0..n).filter(|&d| d != src).map(|d| 4 + 8 * row[d]).sum();
            let rb: u64 = (0..n)
                .filter(|&d| d != src)
                .map(|d| 4 + 16 * tlens[d][src])
                .sum();
            qtot += qb;
            qmax = qmax.max(qb);
            rtot += rb;
            rmax = rmax.max(rb);
        }
        seg_bytes += qtot + rtot;
        if n_ranks > 1 {
            seg_resolve_s +=
                2.0 * params.net.latency_s + (qmax + rmax) as f64 * params.net.byte_time_s;
        }
        // labeled-volume output: one SEG1 payload per block, written
        // collectively by all ranks
        let seg_sizes: Vec<u64> = segs
            .iter()
            .flatten()
            .map(|s| segwire::serialize(s).len() as u64)
            .collect();
        seg_output_bytes = seg_sizes.iter().sum();
        let max_seg = seg_sizes.iter().copied().max().unwrap_or(0);
        if seg_output_bytes > 0 {
            seg_write_s = params
                .io
                .collective_time(seg_output_bytes, max_seg, n_ranks);
        }
        // the resolution's all-to-alls synchronize every rank
        let t_sync = clocks.iter().copied().fold(0.0, f64::max);
        for (i, c) in clocks.iter_mut().enumerate() {
            if let Some(tr) = &mut traces {
                tr[i].span("seg_resolve", ns(*c), ns(t_sync + seg_resolve_s));
            }
            *c = t_sync + seg_resolve_s;
        }
    }

    // ---- write (modeled) ----
    phase(ProgressPhase::Write);
    let out_slots = sched.outputs.clone();
    // one final checkpoint protects the fully-merged state
    if params.fault.checkpoint {
        let sizes: Vec<u64> = out_slots
            .iter()
            .map(|&s| match &complexes[s as usize] {
                Some(ms) => wire::estimate_size(ms) as u64,
                None => 0,
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        let ck = params.io.collective_time(
            total,
            sizes.iter().copied().max().unwrap_or(0),
            out_slots.len() as u32,
        );
        for &s in &out_slots {
            if let Some(tr) = &mut traces {
                let t0 = clocks[rk(s)];
                tr[rk(s)].span("checkpoint", ns(t0), ns(t0 + ck));
            }
            clocks[rk(s)] += ck;
        }
        ledger.checkpoint_s += ck;
    }
    let mut payload_sizes = Vec::with_capacity(out_slots.len());
    for &s in &out_slots {
        let ms = complexes[s as usize].as_ref().ok_or(SimError::DeadSlot {
            slot: s,
            stage: "output write",
        })?;
        payload_sizes.push(wire::serialize(ms).len() as u64);
    }
    let output_bytes: u64 = payload_sizes.iter().sum();
    let max_out = payload_sizes.iter().copied().max().unwrap_or(0);
    let write_s = if output_bytes > 0 {
        params.io.collective_time(output_bytes, max_out, n_ranks)
    } else {
        0.0
    };

    let clock_final = out_slots.iter().map(|&s| clocks[rk(s)]).fold(0.0, f64::max);
    let mut live_nodes = 0u64;
    let mut live_arcs = 0u64;
    for &s in &out_slots {
        let ms = complexes[s as usize].as_ref().ok_or(SimError::DeadSlot {
            slot: s,
            stage: "output census",
        })?;
        live_nodes += ms.n_live_nodes();
        live_arcs += ms.n_live_arcs();
    }

    if let Some(tr) = &mut traces {
        // The collective write ends the run for the ranks holding output
        // slots; every other rank's story ends at its last local clock.
        let out_ranks: Vec<usize> = out_slots.iter().map(|&s| rk(s)).collect();
        for &s in &out_slots {
            let t0 = clocks[rk(s)];
            tr[rk(s)].span("write", ns(t0), ns(t0 + write_s));
        }
        for (i, t) in tr.iter_mut().enumerate() {
            let mut end = if out_ranks.contains(&i) {
                clocks[i] + write_s
            } else {
                clocks[i]
            };
            if seg_write_s > 0.0 {
                // every rank owns a block, so every rank joins the
                // collective labeled-volume write
                t.span("seg_write", ns(end), ns(end + seg_write_s));
                end += seg_write_s;
            }
            t.span("total", 0, ns(end));
        }
    }

    phase(ProgressPhase::Done);
    drop(heartbeat);

    Ok(SimReport {
        n_ranks,
        read_s,
        compute_s,
        local_simplify_s,
        merge_s: (clock_final - clock_after_local) + local_simplify_s,
        write_s,
        total_s: clock_final + write_s + seg_write_s,
        rounds,
        output_blocks: out_slots.len() as u32,
        output_bytes,
        live_nodes,
        live_arcs,
        threshold,
        crashes: ledger.crashes,
        retries: ledger.retries,
        retry_bytes: ledger.retry_bytes,
        recovery_s: ledger.recovery_s,
        checkpoint_s: ledger.checkpoint_s,
        seg_label_s,
        seg_resolve_s,
        seg_write_s,
        seg_rounds,
        seg_forwards,
        seg_bytes,
        seg_output_bytes,
        trace: traces.map(RunTrace::from_ranks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::Dims;

    #[test]
    fn simulate_serial_baseline() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let r = simulate(&f, 1, &SimParams::default()).unwrap();
        assert_eq!(r.output_blocks, 1);
        assert!(r.compute_s > 0.0);
        assert!(r.total_s >= r.read_s + r.compute_s);
        assert!(r.rounds.is_empty());
        assert_eq!(r.crashes, 0);
        assert_eq!(r.checkpoint_s, 0.0);
    }

    #[test]
    fn bad_config_is_reported_not_panicked() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let params = SimParams {
            plan: MergePlan::rounds(vec![8]),
            ..Default::default()
        };
        assert!(matches!(
            simulate(&f, 12, &params).err(),
            Some(SimError::Config(_))
        ));
    }

    #[test]
    fn full_merge_counts() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let params = SimParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let r = simulate(&f, 8, &params).unwrap();
        assert_eq!(r.output_blocks, 1);
        assert_eq!(r.rounds.len(), 1);
        assert_eq!(r.rounds[0].radix, 8);
        assert!(r.rounds[0].bytes_moved > 0);
        assert!(r.output_bytes > 0);
    }

    #[test]
    fn sim_matches_threaded_pipeline_output() {
        use crate::pipeline::{run_parallel, Input, PipelineParams};
        use std::sync::Arc;
        let field = Arc::new(msp_synth::white_noise(Dims::cube(9), 10));
        let plan = MergePlan::full_merge(8);
        let sim = simulate(
            &field,
            8,
            &SimParams {
                plan: plan.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let thr = run_parallel(
            &Input::Memory(field.clone()),
            8,
            8,
            &PipelineParams {
                plan,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // identical algorithm, identical outputs
        assert_eq!(sim.live_nodes, thr.outputs[0].n_live_nodes());
        assert_eq!(sim.live_arcs, thr.outputs[0].n_live_arcs());
        assert_eq!(sim.output_bytes, thr.output_bytes);
    }

    #[test]
    fn sim_segment_replays_the_pipeline_resolution_exactly() {
        use crate::pipeline::{run_parallel, Input, PipelineParams};
        use std::sync::Arc;
        let field = Arc::new(msp_synth::white_noise(Dims::cube(9), 10));
        let plan = MergePlan::full_merge(8);
        let sim = simulate(
            &field,
            8,
            &SimParams {
                plan: plan.clone(),
                segment: true,
                ..Default::default()
            },
        )
        .unwrap();
        let thr = run_parallel(
            &Input::Memory(field.clone()),
            8,
            8,
            &PipelineParams {
                plan,
                segment: true,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // the sequential replay must reproduce the distributed
        // protocol's counters bit for bit, not just approximately
        let rk0 = &thr.telemetry.ranks[0];
        assert_eq!(sim.seg_rounds, rk0.counter("seg_rounds"));
        assert_eq!(
            sim.seg_forwards,
            thr.telemetry.counter_total("seg_forwards")
        );
        assert_eq!(
            sim.seg_bytes,
            thr.telemetry.counter_total("seg_boundary_bytes")
        );
        assert!(sim.seg_rounds <= msp_segment::jump_round_bound(sim.seg_forwards));
        assert!(sim.seg_label_s > 0.0);
        assert!(sim.seg_output_bytes > 0);
        assert!(sim.total_s >= sim.seg_write_s);
    }

    #[test]
    fn sim_replays_irregular_schedules_exactly() {
        use crate::pipeline::{run_parallel, Input, PipelineParams};
        use crate::sched::full_merge_plan;
        use std::sync::Arc;
        // A non-power-of-two adaptive run: the sim must derive the same
        // contracted merge schedule and LPT rank permutation as the
        // threaded pipeline, reproducing its outputs and segmentation
        // counters bit for bit.
        let field = Arc::new(msp_synth::white_noise(Dims::cube(9), 10));
        let plan = full_merge_plan(6);
        let sim = simulate(
            &field,
            6,
            &SimParams {
                plan: plan.clone(),
                decomp: DecompMode::Adaptive,
                segment: true,
                ..Default::default()
            },
        )
        .unwrap();
        let thr = run_parallel(
            &Input::Memory(field.clone()),
            6,
            6,
            &PipelineParams {
                plan,
                decomp: DecompMode::Adaptive,
                segment: true,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(sim.output_blocks as usize, thr.outputs.len());
        let thr_nodes: u64 = thr.outputs.iter().map(|ms| ms.n_live_nodes()).sum();
        let thr_arcs: u64 = thr.outputs.iter().map(|ms| ms.n_live_arcs()).sum();
        assert_eq!(sim.live_nodes, thr_nodes);
        assert_eq!(sim.live_arcs, thr_arcs);
        assert_eq!(sim.output_bytes, thr.output_bytes);
        let rk0 = &thr.telemetry.ranks[0];
        assert_eq!(sim.seg_rounds, rk0.counter("seg_rounds"));
        assert_eq!(
            sim.seg_forwards,
            thr.telemetry.counter_total("seg_forwards")
        );
        assert_eq!(
            sim.seg_bytes,
            thr.telemetry.counter_total("seg_boundary_bytes")
        );
    }

    #[test]
    fn sim_segment_off_reports_zeros() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let params = SimParams {
            plan: MergePlan::full_merge(8),
            ..Default::default()
        };
        let r = simulate(&f, 8, &params).unwrap();
        assert_eq!(r.seg_rounds, 0);
        assert_eq!(r.seg_forwards, 0);
        assert_eq!(r.seg_bytes, 0);
        assert_eq!(r.seg_output_bytes, 0);
        assert_eq!(r.seg_label_s, 0.0);
        assert_eq!(r.seg_resolve_s, 0.0);
        assert_eq!(r.seg_write_s, 0.0);
    }

    #[test]
    fn faults_charge_the_clock_but_not_the_data() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let plan = MergePlan::full_merge(8);
        let clean = simulate(
            &f,
            8,
            &SimParams {
                plan: plan.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let faulty = simulate(
            &f,
            8,
            &SimParams {
                plan,
                fault: SimFault {
                    plan: Some(FaultPlan::new().crash(3, 1)),
                    checkpoint: true,
                    deadline_s: 0.5,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(faulty.crashes, 1);
        assert_eq!(faulty.retries, 1);
        assert!(faulty.retry_bytes > 0);
        assert!(faulty.recovery_s >= 0.5, "deadline must be charged");
        assert!(faulty.checkpoint_s > 0.0);
        // data path is the recovered (bit-exact) one
        assert_eq!(faulty.live_nodes, clean.live_nodes);
        assert_eq!(faulty.live_arcs, clean.live_arcs);
        assert_eq!(faulty.output_bytes, clean.output_bytes);
    }

    #[test]
    fn drops_and_delays_add_recovery_time() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let plan = MergePlan::full_merge(8);
        let r = simulate(
            &f,
            8,
            &SimParams {
                plan,
                fault: SimFault {
                    // first message rank 1 -> rank 0 is lost once
                    plan: Some(FaultPlan::new().drop_msg(1, 0, 1)),
                    checkpoint: false,
                    deadline_s: 0.25,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.crashes, 0);
        assert_eq!(r.retries, 1);
        assert!(r.retry_bytes > 0);
        assert!(r.recovery_s > 0.0);
    }

    #[test]
    fn more_ranks_less_compute_time() {
        // weak statement robust to timing noise: per-block compute at 16
        // ranks must be well below serial compute on the same field
        let f = msp_synth::sinusoid(33, 4);
        let t1 = simulate(&f, 1, &SimParams::default()).unwrap().compute_s;
        let t16 = simulate(&f, 16, &SimParams::default()).unwrap().compute_s;
        assert!(
            t16 < t1,
            "per-block compute must shrink with more ranks ({t16} vs {t1})"
        );
    }
}
