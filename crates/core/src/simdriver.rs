//! The **simulated backend**: the same stage list (`stages.rs`) over
//! thousands of *virtual ranks* in one process, each with a virtual
//! clock, per-rank **measured** compute and **modeled** communication
//! and I/O (a BG/P-like torus and parallel filesystem, see
//! `msp_vmpi::netmodel`).
//!
//! The pipeline is bulk-synchronous, which makes this faithful: every
//! step runs for real on every virtual rank (`par_map` over ranks, one
//! thread each); compute advances the rank's clock by its measured wall
//! time; a message lands in the receiver's mailbox at the next step
//! boundary and advances the receiver's clock to its modeled arrival;
//! collectives synchronize the clocks. Shipped complexes and
//! checkpoints are real wire and `MSK1` bytes. The result reproduces
//! the *shape* of the paper's Figs 6, 9, 10 and Tables I, II on a
//! workstation.
//!
//! ## Fault timing model
//!
//! With a [`FaultPlan`](msp_fault::FaultPlan) in the [`FaultConfig`],
//! crashes, drops and delays are the stage list's, exactly as on the
//! threaded backend: a crash really destroys the rank's state, a dropped
//! ship never reaches the receiver's mailbox, and a delayed one leaves
//! when its sender's clock has advanced by the delay. A receive whose
//! message would arrive more than the deadline after the receiver starts
//! waiting, or not at all, is charged the deadline and times out, so its
//! root replays the member with a [`NetParams::retry_time`] re-ship of
//! the sender's checkpoint. A crashed rank restores its own checkpoint at
//! filesystem cost. A slowed
//! rank's measured compute is multiplied by its factor (the simulator's
//! only fault of its own). Checkpointing is charged as a collective
//! write at every cut.

use crate::pipeline::{FaultConfig, PipelineError, PipelineParams};
use crate::stages::{self, Io, Job, Machine, Node, Output, Source};
use bytes::Bytes;
use msp_fault::SendFate;
use msp_grid::par::{available_threads, par_map_mut};
use msp_grid::rawio::VolumeDType;
use msp_grid::{DecompMode, MergePlan, ScalarField};
use msp_telemetry::{Counter, Json, Phase, RankTrace, Recorder, RunTrace, TimeoutStamp};
use msp_vmpi::comm::{CommError, RankPanic};
use msp_vmpi::fileio::FooterEntry;
use msp_vmpi::{IoParams, NetParams, Torus};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Persistence threshold as a fraction of the global value range.
    pub persistence_frac: f32,
    pub plan: MergePlan,
    /// Decomposition mode (DESIGN.md §14); the layout is the threaded
    /// pipeline's, with one block per virtual rank.
    pub decomp: DecompMode,
    pub net: NetParams,
    pub io: IoParams,
    /// Element type of the (virtual) input file, for the read model.
    pub dtype: VolumeDType,
    /// Fault injection and checkpointing (inactive by default); the
    /// deadline is the modeled wait for a dead member.
    pub fault: FaultConfig,
    /// Build a causal event trace on the virtual clocks — the same
    /// [`RunTrace`] format the threaded backend records, so Chrome
    /// export and critical-path analysis work identically on simulated
    /// runs.
    pub trace: bool,
    /// Compute the Morse-Smale segmentation: labeling is *measured*,
    /// the distributed pointer-jump resolution runs message for message
    /// with *modeled* costs, so `seg_rounds` / `seg_forwards` /
    /// `seg_bytes` equal the threaded pipeline's counters.
    pub segment: bool,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            persistence_frac: 0.01,
            plan: MergePlan::none(),
            decomp: DecompMode::Uniform,
            net: NetParams::default(),
            io: IoParams::default(),
            dtype: VolumeDType::F32,
            fault: FaultConfig::default(),
            trace: false,
            segment: false,
        }
    }
}

/// Modeled + measured times of one merge round.
#[derive(Debug, Clone, Copy)]
pub struct RoundReport {
    pub radix: u32,
    /// Modeled communication time (max over groups).
    pub comm_s: f64,
    /// Measured glue time, remote members' payload decoding included
    /// (max over ranks).
    pub glue_s: f64,
    /// Measured re-simplification time after the glue (max over ranks).
    pub resimplify_s: f64,
    /// Critical-path advance of this round.
    pub round_s: f64,
    /// Total serialized bytes moved in this round.
    pub bytes_moved: u64,
    /// Live nodes of the complexes shipped in this round: the nodes
    /// its roots receive from remote members.
    pub nodes_moved: u64,
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
    /// Members that missed the deadline (crashed, dropped or too late),
    /// as the roots count them.
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
                                ("resimplify_s", Json::F64(r.resimplify_s)),
                                ("round_s", Json::F64(r.round_s)),
                                ("bytes_moved", Json::U64(r.bytes_moved)),
                                ("nodes_moved", Json::U64(r.nodes_moved)),
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

/// Simulate the pipeline at `n_ranks` virtual ranks (one block each).
/// It fails as the threaded pipeline does: a rank count or merge plan
/// the layout refuses is [`PipelineError::Config`], and a virtual rank
/// that panics (`panic:R@K` included) is [`PipelineError::Panic`].
pub fn simulate(
    field: &ScalarField,
    n_ranks: u32,
    params: &SimParams,
) -> Result<SimReport, PipelineError> {
    let pp = PipelineParams {
        persistence_frac: params.persistence_frac,
        plan: params.plan.clone(),
        decomp: params.decomp,
        fault: params.fault.clone(),
        threads: Some(1),
        segment: params.segment,
        ..Default::default()
    };
    let job = Job::layout(Source::Memory(field), params.dtype, &pp, n_ranks, n_ranks)?;
    let mut m = Sim::new(n_ranks, params);
    let run = catch_unwind(AssertUnwindSafe(|| stages::run(&mut m, &job, None)));
    let (threshold, out) = match run.map_err(|e| e.downcast::<RankPanic>()) {
        Ok(run) => run?,
        Err(Ok(p)) => return Err(PipelineError::Panic(*p)),
        Err(Err(e)) => resume_unwind(e),
    };
    let total = |c: Counter| (0..n_ranks).map(|p| m.counter(p, c)).sum::<u64>();
    let slowest = |phases: &[Phase]| {
        let secs = |v: &VRank| phases.iter().map(|&p| v.rec.phase_seconds(p)).sum::<f64>();
        m.ranks.iter().map(secs).fold(0.0, f64::max)
    };
    let local_simplify_s = slowest(&[Phase::Simplify]);
    let after_local = m.ranks.iter().map(|v| v.local_end).fold(0.0, f64::max);
    let mut rounds = m.rounds.clone();
    for (r, round) in rounds.iter_mut().zip(&job.sched.rounds) {
        r.radix = round.radix;
    }
    Ok(SimReport {
        n_ranks,
        read_s: m.read_s,
        compute_s: slowest(&[Phase::Gradient, Phase::Trace]),
        local_simplify_s,
        merge_s: (m.before_write - after_local) + local_simplify_s,
        write_s: m.write_s,
        total_s: m.clock(),
        rounds,
        output_blocks: out.outputs.len() as u32,
        output_bytes: out.output_bytes,
        live_nodes: out.outputs.iter().map(|(_, c)| c.n_live_nodes()).sum(),
        live_arcs: out.outputs.iter().map(|(_, c)| c.n_live_arcs()).sum(),
        threshold,
        crashes: total(Counter::Crashes),
        retries: total(Counter::Retries),
        retry_bytes: m.ranks.iter().map(|v| v.retry_bytes).sum(),
        recovery_s: m.ranks.iter().map(|v| v.recovery_s).sum(),
        checkpoint_s: m.checkpoint_s,
        seg_label_s: slowest(&[Phase::Segment]),
        seg_resolve_s: slowest(&[Phase::SegResolve]),
        seg_write_s: m.seg_write_s,
        seg_rounds: m.counter(0, Counter::SegRounds),
        seg_forwards: total(Counter::SegForwards),
        seg_bytes: total(Counter::SegBoundaryBytes),
        seg_output_bytes: out.seg_bytes,
        trace: params.trace.then(|| {
            let traces = m.ranks.iter_mut();
            let traces = traces.filter_map(|v| Some(v.rec.trace(v.trace.take()?)));
            RunTrace::from_ranks(traces.collect())
        }),
    })
}

struct Msg {
    src: u32,
    tag: u32,
    seq: u64,
    payload: Bytes,
    /// Modeled clock at which the payload reaches the receiver.
    arrive: f64,
}

fn ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

/// One virtual rank: its clock, counters and trace, and its mailboxes.
pub(crate) struct VRank<'a> {
    p: u32,
    params: &'a SimParams,
    torus: Torus,
    clock: f64,
    /// Counters and phase spans on the virtual clock.
    rec: Recorder,
    /// Message, timeout and modeled-I/O stamps; the phase spans come
    /// from `rec`.
    trace: Option<RankTrace>,
    /// Messages delivered at step boundaries and not yet received, in
    /// arrival order.
    inbox: Vec<Msg>,
    outbox: Vec<(u32, Msg)>,
    /// Per-destination message ordinals, 1-based like the comm layer's.
    link_seq: HashMap<u32, u64>,
    /// Clock at each open machine-level phase.
    open: Vec<f64>,
    /// Modeled time spent receiving payload bytes.
    comm_s: f64,
    recovery_s: f64,
    retry_bytes: u64,
    /// Clock when local simplification ended.
    local_end: f64,
}

impl<'a> VRank<'a> {
    fn new(p: u32, params: &'a SimParams, torus: Torus) -> Self {
        VRank {
            p,
            params,
            torus,
            clock: 0.0,
            rec: Recorder::new(p, Instant::now()),
            trace: params.trace.then(|| RankTrace::new(p)),
            inbox: Vec::new(),
            outbox: Vec::new(),
            link_seq: HashMap::new(),
            open: Vec::new(),
            comm_s: 0.0,
            recovery_s: 0.0,
            retry_bytes: 0,
            local_end: 0.0,
        }
    }

    /// Advance the clock by modeled `secs`, as trace span `key` when
    /// there is one.
    fn charge(&mut self, key: Option<&str>, secs: f64) {
        if let (Some(t), Some(key)) = (&mut self.trace, key) {
            t.span(key, ns(self.clock), ns(self.clock + secs));
        }
        self.clock += secs;
    }

    fn hops(&self, other: u32) -> u32 {
        self.torus.hops(self.p, other)
    }
}

impl Node for VRank<'_> {
    fn rank(&self) -> u32 {
        self.p
    }

    fn threads(&self) -> usize {
        1
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.rec.add(c, n);
    }

    fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let slow = self
            .params
            .fault
            .plan
            .as_ref()
            .map_or(1.0, |p| p.slow_factor(self.p as usize));
        let secs = t0.elapsed().as_secs_f64() * slow;
        let start = self.clock;
        self.clock += secs;
        self.rec.span(phase, ns(start), ns(self.clock));
        if phase == Phase::Simplify {
            self.local_end = self.clock;
        }
        r
    }

    /// A lost payload never enters the link: its orphan send is stamped
    /// as ordinal 0, as on the threaded machine.
    fn send(&mut self, to: u32, tag: u32, payload: Bytes, fate: SendFate) -> Result<(), CommError> {
        let bytes = payload.len() as u64;
        match fate {
            SendFate::Deliver => {}
            SendFate::Delay(d) => self.clock += d.as_secs_f64(),
            SendFate::Drop => {
                if let Some(t) = &mut self.trace {
                    t.send(to, tag, 0, bytes, ns(self.clock));
                }
                return Ok(());
            }
        }
        let seq = self.link_seq.entry(to).or_insert(0);
        *seq += 1;
        let seq = *seq;
        let (net, hops) = (&self.params.net, self.hops(to));
        let arrive = self.clock + net.latency_s + net.hop_time_s * hops as f64;
        if let Some(t) = &mut self.trace {
            t.send(to, tag, seq, bytes, ns(self.clock));
        }
        let msg = Msg {
            src: self.p,
            tag,
            seq,
            payload,
            arrive,
        };
        self.outbox.push((to, msg));
        Ok(())
    }

    /// The receiver's link serializes payloads: the clock moves to the
    /// arrival, then pays the bytes. A message that would arrive past
    /// the deadline stays in the mailbox, unreceived.
    fn recv(
        &mut self,
        from: u32,
        tag: u32,
        deadline: Option<Duration>,
    ) -> Result<Bytes, CommError> {
        let in_time = |m: &Msg| deadline.is_none_or(|d| m.arrive <= self.clock + d.as_secs_f64());
        let at = (self.inbox.iter())
            .position(|m| (m.src, m.tag) == (from, tag))
            .filter(|&i| in_time(&self.inbox[i]));
        let Some(m) = at.map(|i| self.inbox.remove(i)) else {
            // Nothing was sent in time: the sender is dead, the message
            // lost or late (or the protocol broken).
            let waited = deadline.ok_or(CommError::Disconnected {
                peer: from as usize,
                tag,
            })?;
            self.clock += waited.as_secs_f64();
            self.recovery_s += waited.as_secs_f64();
            if let Some(t) = &mut self.trace {
                t.timeouts.push(TimeoutStamp {
                    src: from,
                    tag,
                    t_ns: ns(self.clock),
                    waited_ns: waited.as_nanos() as u64,
                });
            }
            return Err(CommError::Timeout {
                from: from as usize,
                to: self.p as usize,
                tag,
                waited,
            });
        };
        let bytes = m.payload.len() as u64;
        let comm = bytes as f64 * self.params.net.byte_time_s;
        self.clock = self.clock.max(m.arrive) + comm;
        self.comm_s += comm;
        if let Some(t) = &mut self.trace {
            t.recv(from, tag, m.seq, bytes, ns(self.clock));
        }
        Ok(m.payload)
    }

    /// A peer's checkpoint is re-shipped over the torus; the rank's own
    /// is read back from the filesystem.
    fn recover<R>(&mut self, from: u32, f: impl FnOnce() -> (R, u64)) -> (R, Duration) {
        let (r, bytes) = f();
        let secs = if from == self.p {
            self.params.io.collective_time(bytes, bytes, 1)
        } else {
            self.retry_bytes += bytes;
            self.params.net.retry_time(bytes, self.hops(from))
        };
        self.recovery_s += secs;
        self.charge(Some("recover"), secs);
        (r, Duration::from_secs_f64(secs))
    }
}

/// The simulated machine: hosts every virtual rank.
#[derive(Default)]
pub(crate) struct Sim<'a> {
    ranks: Vec<VRank<'a>>,
    read_s: f64,
    write_s: f64,
    seg_write_s: f64,
    checkpoint_s: f64,
    /// Clock when the writes began.
    before_write: f64,
    rounds: Vec<RoundReport>,
    /// Max clock, then per rank (comm, glue, shipped bytes and nodes), at
    /// round entry.
    round_entry: (f64, Vec<RoundState>),
}

/// A virtual rank's running totals a round report is the difference of.
#[derive(Default)]
struct RoundState {
    comm_s: f64,
    glue_s: f64,
    resimplify_s: f64,
    ship_bytes: u64,
    nodes_shipped: u64,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(n_ranks: u32, params: &'a SimParams) -> Self {
        let torus = Torus::for_ranks(n_ranks);
        let ranks = (0..n_ranks).map(|p| VRank::new(p, params, torus));
        Sim {
            ranks: ranks.collect(),
            ..Default::default()
        }
    }

    /// Counter `c` of virtual rank `p`.
    pub(crate) fn counter(&self, p: u32, c: Counter) -> u64 {
        self.ranks[p as usize].rec.counter(c)
    }

    fn clock(&self) -> f64 {
        self.ranks.iter().map(|v| v.clock).fold(0.0, f64::max)
    }

    /// Every clock moves to the latest plus a log-tree of latencies.
    fn sync(&mut self) {
        let n = self.ranks.len() as u32;
        let tree = (32 - n.saturating_sub(1).leading_zeros()) as f64;
        let t = self.clock() + tree * self.ranks[0].params.net.latency_s;
        self.ranks.iter_mut().for_each(|v| v.clock = t);
    }

    fn round_state(v: &VRank) -> RoundState {
        RoundState {
            comm_s: v.comm_s,
            glue_s: v.rec.phase_seconds(Phase::Glue),
            resimplify_s: v.rec.phase_seconds(Phase::Resimplify),
            ship_bytes: v.rec.counter(Counter::ShipBytes),
            nodes_shipped: v.rec.counter(Counter::NodesShipped),
        }
    }
}

impl<'a> Machine for Sim<'a> {
    type Node = VRank<'a>;
    const MODELS_IO: bool = true;

    fn size(&self) -> u32 {
        self.ranks.len() as u32
    }

    fn ranks(&self) -> Vec<u32> {
        (0..self.size()).collect()
    }

    /// A step boundary: last step's messages land in their mailboxes.
    fn each<S: Send, R: Send>(
        &mut self,
        st: &mut [S],
        f: impl Fn(&mut VRank<'a>, &mut S) -> R + Sync,
    ) -> Vec<R> {
        for src in 0..self.ranks.len() {
            for (to, msg) in std::mem::take(&mut self.ranks[src].outbox) {
                self.ranks[to as usize].inbox.push(msg);
            }
        }
        let mut work: Vec<_> = self.ranks.iter_mut().zip(st).collect();
        let out = par_map_mut(available_threads(), &mut work, |_, (v, s)| {
            let p = v.p as usize;
            catch_unwind(AssertUnwindSafe(|| f(v, s))).map_err(|e| RankPanic::new(p, &*e))
        });
        // the lowest rank that panicked ends the run, as on the threaded
        // backend; `simulate` turns it back into an error
        let out: Result<Vec<R>, RankPanic> = out.into_iter().collect();
        out.unwrap_or_else(|p| resume_unwind(Box::new(p)))
    }

    fn begin(&mut self, phase: Phase) {
        for v in &mut self.ranks {
            v.open.push(v.clock);
        }
        match phase {
            Phase::MergeRound(_) => {
                self.round_entry = (
                    self.clock(),
                    self.ranks.iter().map(Sim::round_state).collect(),
                );
            }
            Phase::Write => self.before_write = self.clock(),
            _ => {}
        }
    }

    fn end(&mut self, phase: Phase) {
        for v in &mut self.ranks {
            let t0 = v.open.pop().unwrap_or(0.0);
            v.rec.span(phase, ns(t0), ns(v.clock));
        }
        if let Phase::MergeRound(_) = phase {
            let (before, entry) = &self.round_entry;
            let mut round = RoundReport {
                radix: 0,
                comm_s: 0.0,
                glue_s: 0.0,
                resimplify_s: 0.0,
                round_s: self.clock() - before,
                bytes_moved: 0,
                nodes_moved: 0,
            };
            for (v, at) in self.ranks.iter().zip(entry) {
                let now = Sim::round_state(v);
                round.comm_s = round.comm_s.max(now.comm_s - at.comm_s);
                round.glue_s = round.glue_s.max(now.glue_s - at.glue_s);
                round.resimplify_s = round.resimplify_s.max(now.resimplify_s - at.resimplify_s);
                round.bytes_moved += now.ship_bytes - at.ship_bytes;
                round.nodes_moved += now.nodes_shipped - at.nodes_shipped;
            }
            self.rounds.push(round);
        }
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.sync();
        Ok(())
    }

    fn allreduce_min_max(&mut self, _: u32, v: &[(f64, f64)]) -> Result<(f64, f64), CommError> {
        self.sync();
        let lo = v.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        Ok((lo, v.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max)))
    }

    fn allreduce_sum(&mut self, _: u32, v: &[u64]) -> Result<u64, CommError> {
        self.sync();
        Ok(v.iter().sum())
    }

    fn io(&mut self, what: Io, bytes: &[u64]) {
        let total = bytes.iter().sum();
        let max = bytes.iter().copied().max().unwrap_or(0);
        let t = self.ranks[0]
            .params
            .io
            .collective_time(total, max, self.size());
        let key = match what {
            Io::Read => {
                self.read_s += t;
                None // inside the read phase's own span
            }
            Io::Checkpoint => {
                self.checkpoint_s += t;
                Some("checkpoint")
            }
        };
        self.ranks.iter_mut().for_each(|v| v.charge(key, t));
    }

    /// Charges the modeled write; simulated runs write no file.
    fn write(
        &mut self,
        path: Option<&Path>,
        what: Output,
        blocks: Vec<Vec<(u32, Bytes)>>,
    ) -> std::io::Result<Option<Vec<FooterEntry>>> {
        debug_assert!(path.is_none(), "simulated runs write no file");
        let sizes = blocks
            .iter()
            .map(|b| b.iter().map(|(_, p)| p.len() as u64).sum());
        let sizes: Vec<u64> = sizes.collect();
        let (total, max) = (sizes.iter().sum(), sizes.iter().copied().max().unwrap_or(0));
        let t = match total {
            0 => 0.0,
            _ => self.ranks[0]
                .params
                .io
                .collective_time(total, max, self.size()),
        };
        let key = match what {
            Output::Complex => {
                self.write_s += t;
                "write"
            }
            Output::Segmentation => {
                self.seg_write_s += t;
                "seg_write"
            }
            Output::Hierarchy => "msh_write",
        };
        let start = self.clock();
        for v in &mut self.ranks {
            v.clock = start;
            v.charge(Some(key), t);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_fault::FaultPlan;
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
            Some(PipelineError::Config(_))
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
        assert!(r.rounds[0].nodes_moved > 0);
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
        use msp_grid::full_merge_plan;
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
                fault: FaultConfig {
                    plan: Some(FaultPlan::new().crash(3, 1)),
                    checkpoint: true,
                    deadline: Duration::from_millis(500),
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
    fn sim_trace_spans_are_the_recorded_phase_spans() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let params = SimParams {
            plan: MergePlan::full_merge(8),
            segment: true,
            trace: true,
            fault: FaultConfig::with_plan(FaultPlan::new().crash(3, 1)),
            ..Default::default()
        };
        let r = simulate(&f, 8, &params).unwrap();
        let tr = r.trace.as_ref().expect("trace requested");
        let compute = |t: &RankTrace| t.span_seconds("gradient") + t.span_seconds("trace");
        let slowest = tr.ranks.iter().map(compute).fold(0.0, f64::max);
        assert_eq!(r.compute_s, slowest);
        let modeled = ["checkpoint", "write", "seg_write", "msh_write", "recover"];
        for t in &tr.ranks {
            for s in &t.spans {
                let ok = Phase::parse(&s.key).is_some() || modeled.contains(&s.key.as_str());
                assert!(ok, "rank {} span key '{}'", t.rank, s.key);
            }
            assert!(t.span_seconds("simplify") > 0.0, "rank {}", t.rank);
        }
        let spans = || tr.ranks.iter().flat_map(|t| &t.spans);
        for key in ["checkpoint", "recover", "seg_write", "seg_resolve"] {
            assert!(spans().any(|s| s.key == key), "a '{key}' span");
        }
    }

    #[test]
    fn drops_and_delays_add_recovery_time() {
        let f = msp_synth::white_noise(Dims::cube(9), 4);
        let plan = MergePlan::full_merge(8);
        let run = |faults: FaultPlan| {
            let fault = FaultConfig {
                plan: Some(faults),
                checkpoint: true,
                deadline: Duration::from_millis(250),
            };
            let params = SimParams {
                plan: plan.clone(),
                fault,
                ..Default::default()
            };
            simulate(&f, 8, &params).unwrap()
        };
        let clean = run(FaultPlan::new());
        // rank 1's ship to root 0 is lost, or lands 300 ms late: either
        // way root 0 waits out the deadline and replays it
        for faults in [
            FaultPlan::new().drop_msg(1, 0, 1),
            FaultPlan::new().delay_msg(1, 0, 1, 300),
        ] {
            let r = run(faults);
            assert_eq!((r.crashes, r.retries), (0, 1));
            assert!(r.retry_bytes > 0);
            assert!(r.recovery_s >= 0.25, "the deadline is charged");
            assert_eq!(r.output_bytes, clean.output_bytes);
        }
        // 200 ms late is within the deadline: no replay
        let r = run(FaultPlan::new().delay_msg(1, 0, 1, 200));
        assert_eq!((r.retries, r.recovery_s), (0, 0.0));
    }

    /// A lost ship and one held back past the deadline recover alike on
    /// both machines: the root replays the member from the sender's
    /// checkpoint, and the outputs are the fault-free bytes.
    #[test]
    fn drops_and_late_ships_recover_alike_on_both_machines() {
        use crate::pipeline::{run_parallel, Input};
        use msp_complex::wire;
        use std::sync::Arc;
        let field = Arc::new(msp_synth::white_noise(Dims::cube(9), 4));
        let params = |plan| PipelineParams {
            plan: MergePlan::rounds(vec![2, 2]),
            fault: FaultConfig {
                plan,
                checkpoint: true,
                deadline: Duration::from_millis(200),
            },
            ..Default::default()
        };
        let input = Input::Memory(field.clone());
        let clean = run_parallel(&input, 4, 4, &params(None), None).unwrap();
        let want: Vec<_> = clean.outputs.iter().map(wire::serialize).collect();
        let keys = [Counter::Retries, Counter::RoundsReplayed];
        // slot 3's round-0 ship to root 2, and slot 2's round-1 ship to
        // root 0, held back 5 deadlines
        for spec in ["drop:3->2#1", "delay:2->0#1+1000"] {
            let pp = params(Some(spec.parse().unwrap()));
            let thr = run_parallel(&input, 4, 4, &pp, None).unwrap();
            let counts = keys.map(|c| thr.telemetry.counter_total(c.key()));
            assert_eq!(counts, [1, 1], "{spec}: threaded");
            let got: Vec<_> = thr.outputs.iter().map(wire::serialize).collect();
            assert!(got == want, "{spec}: threaded outputs differ");

            let sp = SimParams::default();
            let job = Job::layout(Source::Memory(&field), VolumeDType::F32, &pp, 4, 4).unwrap();
            let mut m = Sim::new(4, &sp);
            let (_, out) = stages::run(&mut m, &job, None).unwrap();
            let counts = keys.map(|c| (0..4).map(|p| m.counter(p, c)).sum::<u64>());
            assert_eq!(counts, [1, 1], "{spec}: simulated");
            let got: Vec<_> = out
                .outputs
                .iter()
                .map(|(_, c)| wire::serialize(c))
                .collect();
            assert!(got == want, "{spec}: simulated outputs differ");
        }
    }

    #[test]
    fn more_ranks_less_compute_time() {
        // counted, not timed: the busiest virtual rank's gradient work at
        // 16 ranks is well under an eighth of the serial run's
        let f = msp_synth::sinusoid(33, 4);
        let busiest = |n_ranks| {
            let (params, pp) = (SimParams::default(), PipelineParams::default());
            let job = Job::layout(Source::Memory(&f), params.dtype, &pp, n_ranks, n_ranks);
            let mut m = Sim::new(n_ranks, &params);
            stages::run(&mut m, &job.unwrap(), None).unwrap();
            let paired = (0..n_ranks).map(|p| m.counter(p, Counter::CellsPaired));
            paired.max().unwrap()
        };
        let (one, sixteen) = (busiest(1), busiest(16));
        assert!(
            8 * sixteen < one,
            "cells paired by the busiest rank: {sixteen} at 16 ranks, {one} at 1"
        );
    }
}
