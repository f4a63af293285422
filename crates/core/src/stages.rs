//! The paper's Algorithm 1, written once (DESIGN.md §4):
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
//! The list is bulk-synchronous: every stage is a sequence of *steps*,
//! each run on every rank a [`Machine`] hosts, and a message sent in one
//! step is received in a later one. Two machines run it: the threaded
//! backend (`pipeline.rs`: one OS thread and one `vmpi::Rank` per rank,
//! wall-clock phases) and the simulator (`simdriver.rs`: every virtual
//! rank in one process, virtual clocks, modeled network and
//! filesystem). Everything the algorithm decides lives here; a machine
//! only moves bytes and keeps time.
//!
//! ## Merging (DESIGN.md §4)
//!
//! A member slot moves to its root at most once per round. When the root
//! lives on another rank the member is serialized and sent, and the root
//! glues it straight from those bytes (`glue_from_wire`): the incoming
//! complex is never built. When the root lives on the member's own rank
//! the live complex is handed over (`RankState::handoff`), tombstones and
//! all: nothing is serialized, sent or decoded, and the ship counters do
//! not count it. A complex is compacted after its block's local
//! simplification and after that only for hierarchy recording, whose logs
//! name compacted node ids: a ship, a checkpoint cut and the write
//! serialize a root with the tombstones of its re-simplifications, as the
//! bytes of its compaction. Compaction keeps every live node, arc and
//! incidence list in relative order, which is all that gluing, the
//! `(key, ArcId)` cancellation order and serialization see, so the bytes
//! are those of compacting after every pass.
//!
//! ## Fault tolerance (DESIGN.md §9)
//!
//! Every merge-round boundary is a consistent cut: all messages of round
//! *k* are matched before anyone enters round *k + 1*. With a
//! [`FaultConfig`](crate::FaultConfig) active (a fault plan, or
//! checkpointing asked for without one), each rank saves a checkpoint of
//! its living complexes at every cut (and once more before the write),
//! each cut one `checkpoint` span. The slots are
//! serialized once, at the cut: the same bytes go into the checkpoint,
//! out with the round's ship to another rank and, at the pre-write cut,
//! into the output file; a member handed to a root on its own rank drops
//! them. Every fault is decided here, from the plan: an injected crash
//! destroys a rank's state at the cut, and a drop or delay names the
//! n-th cross-rank merge ship on a link ([`Job::fate`]), which the
//! machine loses or holds back before hand-off. A crashed rank restarts
//! from its own checkpoint, while the roots expecting its members — its
//! own roots included, since a crashed rank hands nothing over — and a
//! root whose ship was lost or came too late detect it by receive
//! deadline and glue the member from its slot's bytes in the sender's
//! checkpoint — bit-identical to the fault-free run. A plan always
//! checkpoints, so nothing is ever lost for good: a slot missing where
//! the schedule puts it is a [`PipelineError::MissingComplex`].

use crate::pipeline::{
    comm_err, io_err, msh_output_path, seg_output_path, PipelineError, PipelineParams,
};
use bytes::Bytes;
use msp_complex::glue::{glue, glue_from_wire};
use msp_complex::{
    complex_from_gradient_mt, simplify_forwarding, wire, CancelOrder, GlueError, MsComplex,
    SimplifyParams,
};
use msp_fault::{encode_slots, CheckpointStore, CheckpointView, SendFate};
use msp_grid::par::{par_map, par_map_mut};
use msp_grid::rawio::{block_bytes, read_block, read_raw, VolumeDType};
use msp_grid::{
    feature_weights, Assignment, BlockField, Decomposition, Dims, Layout, MergeSchedule,
    ScalarField,
};
use msp_hierarchy::{record_sequence, wire as hwire, ReplayParams, SlotHierarchy};
use msp_morse::{active_kernel, assign_gradient_kernel, TraceLimits};
use msp_oracle::{CheckOptions, InvariantReport};
use msp_segment::{
    label_block, owner_rank, wire as segwire, BlockSegmentation, ForwardMap, DRAIN_ADDR,
};
use msp_telemetry::{Counter, Phase};
use msp_vmpi::comm::CommError;
use msp_vmpi::fileio::FooterEntry;
use msp_vmpi::pairmsg::{decode_pairs, decode_u64s, encode_pairs, encode_u64s, MsgError};
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

/// Tags of the segmentation resolution protocol (`--segment`) and the
/// hierarchy region-size broadcast, far above the merge tags (`round <<
/// 20 | slot`) and below the barrier's (`0x7FF0_0000`). Per-round tags
/// are `base | round`, so no two rounds share a tag.
const TAG_SEG_ROUTE: u32 = 0x4000_0000; // | merge round (forward flush)
const TAG_SEG_ROUTE_FINAL: u32 = 0x40F0_0000; // pre-resolve flush
const TAG_SEG_QUERY: u32 = 0x4100_0000; // | jump round
const TAG_SEG_REPLY: u32 = 0x4200_0000; // | jump round
const TAG_SEG_FIXED: u32 = 0x4300_0000; // | jump round << 1 (allreduce pair)
const TAG_SEG_TABLE_Q: u32 = 0x4400_0000;
const TAG_SEG_TABLE_R: u32 = 0x4500_0000;
const TAG_HIER_SIZES: u32 = 0x4600_0000;
/// The global value-range all-reduce (`tag .. tag + 3`).
const TAG_RANGE: u32 = 100;

type Res<T = ()> = Result<T, PipelineError>;

/// One rank while a step runs on it.
pub(crate) trait Node {
    fn rank(&self) -> u32;
    /// Intra-rank thread budget for the local stage.
    fn threads(&self) -> usize;
    fn add(&mut self, c: Counter, n: u64);
    /// Run `f` as one occurrence of compute phase `phase`.
    fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R;
    /// Send `payload` as `fate` decides: lost before hand-off (still an
    /// orphan send in the trace), held back first, or handed off.
    fn send(&mut self, to: u32, tag: u32, payload: Bytes, fate: SendFate) -> Result<(), CommError>;
    /// Receive a message sent in an earlier step. With a deadline, one
    /// that would arrive later than that is a [`CommError::Timeout`];
    /// without one, the receive fails only if the sender is gone.
    fn recv(&mut self, from: u32, tag: u32, deadline: Option<Duration>)
        -> Result<Bytes, CommError>;
    /// Run a recovery that loads `f`'s byte count from `from`'s
    /// checkpoint (`from` = this rank: a restore of its own state).
    fn recover<R>(&mut self, from: u32, f: impl FnOnce() -> (R, u64)) -> (R, Duration);
}

/// A collective read or save whose time the simulator models from bytes.
pub(crate) enum Io {
    Read,
    Checkpoint,
}

/// The three keyed collective writes.
#[derive(Clone, Copy)]
pub(crate) enum Output {
    Complex,
    Segmentation,
    Hierarchy,
}

/// Hosts some ranks of a run and owns how they talk and how time passes.
pub(crate) trait Machine {
    type Node: Node;
    /// Collective writes cost time even when no file is written.
    const MODELS_IO: bool;
    fn size(&self) -> u32;
    /// Ranks hosted here, in the order of every per-rank slice.
    fn ranks(&self) -> Vec<u32>;
    /// Run `f` once on every hosted rank with its state.
    fn each<S: Send, R: Send>(
        &mut self,
        st: &mut [S],
        f: impl Fn(&mut Self::Node, &mut S) -> R + Sync,
    ) -> Vec<R>;
    /// Open/close a phase that spans several steps and collectives.
    fn begin(&mut self, phase: Phase);
    fn end(&mut self, phase: Phase);
    /// Open (`true`) or close one pointer-jump round of the
    /// segmentation resolution.
    fn seg_round(&mut self, _open: bool) {}
    fn barrier(&mut self) -> Result<(), CommError>;
    fn allreduce_min_max(&mut self, tag: u32, v: &[(f64, f64)]) -> Result<(f64, f64), CommError>;
    fn allreduce_sum(&mut self, tag: u32, v: &[u64]) -> Result<u64, CommError>;
    fn io(&mut self, what: Io, bytes: &[u64]);
    /// Keyed collective write of `(key, payload)` blocks per hosted rank;
    /// the footer comes back where the machine has it.
    fn write(
        &mut self,
        path: Option<&Path>,
        what: Output,
        blocks: Vec<Vec<(u32, Bytes)>>,
    ) -> std::io::Result<Option<Vec<FooterEntry>>>;
}

/// Where the scalar blocks come from.
pub(crate) enum Source<'a> {
    Memory(&'a ScalarField),
    File(&'a Path, Dims),
}

/// Everything a run shares across ranks: its input and its layout.
pub(crate) struct Job<'a> {
    src: Source<'a>,
    dtype: VolumeDType,
    params: &'a PipelineParams,
    decomp: Decomposition,
    pub sched: MergeSchedule,
    assign: Assignment,
    costs: Option<Vec<u64>>,
    /// Stable storage stand-in, populated only when a fault config is
    /// active.
    store: CheckpointStore,
}

impl<'a> Job<'a> {
    /// Lay the run out — decomposition, per-block costs, merge schedule
    /// and block-to-rank assignment — with [`Layout::new`], which refuses
    /// an invalid configuration, as
    /// [`FaultPlan::check`](msp_fault::FaultPlan::check) refuses a fault
    /// plan that does not fit the layout.
    /// Irregular modes balance blocks by LPT (longest processing time
    /// first) over the cost estimates; the adaptive splitter needs the
    /// whole field once, up front.
    pub fn layout(
        src: Source<'a>,
        dtype: VolumeDType,
        params: &'a PipelineParams,
        n_ranks: u32,
        n_blocks: u32,
    ) -> Res<Job<'a>> {
        let weights = || match &src {
            Source::Memory(f) => Ok(feature_weights(f)),
            Source::File(path, dims) => read_raw(path, *dims, dtype)
                .map(|f| feature_weights(&f))
                .map_err(io_err(format!(
                    "reading {} for adaptive splitting",
                    path.display()
                ))),
        };
        let (dims, decomp, plan) = (src.dims(), params.decomp, &params.plan);
        let Layout {
            decomp,
            costs,
            sched,
            assign,
        } = Layout::new(dims, decomp, plan, n_ranks, n_blocks, weights)?;
        if let Some(faults) = &params.fault.plan {
            let rounds = sched.n_rounds() as u32;
            (faults.check(n_ranks as usize, rounds)).map_err(PipelineError::Config)?;
        }
        let store = CheckpointStore::new();
        Ok(Job {
            src,
            dtype,
            params,
            decomp,
            sched,
            assign,
            costs,
            store,
        })
    }

    /// Block `b` with its value range.
    fn block(&self, b: u32) -> Res<(BlockField, f32, f32)> {
        let block = self.decomp.block(b);
        match self.src {
            Source::Memory(f) => Ok(f.extract_block_minmax(block)),
            Source::File(path, dims) => {
                let bf = read_block(path, dims, block, self.dtype)
                    .map_err(io_err(format!("reading block {b} from {}", path.display())))?;
                let (lo, hi) = bf.min_max();
                Ok((bf, lo, hi))
            }
        }
    }

    /// Does the plan crash `rank` at merge cursor `round`? A panic the
    /// plan puts there is raised here, as a real unwinding panic.
    fn should_crash(&self, rank: u32, round: u32) -> bool {
        let Some(plan) = self.params.fault.plan.as_ref() else {
            return false;
        };
        if plan.should_panic(rank as usize, round) {
            panic!("injected panic at merge round {round}");
        }
        plan.should_crash(rank as usize, round)
    }

    /// What the plan does to the `nth` cross-rank merge ship from rank
    /// `from` to rank `to`.
    fn fate(&self, from: u32, to: u32, nth: u64) -> SendFate {
        let plan = self.params.fault.plan.as_ref();
        plan.map_or(SendFate::Deliver, |p| {
            p.fate(from as usize, to as usize, nth)
        })
    }

    fn outputs_of(&self, p: u32) -> impl Iterator<Item = u32> + '_ {
        let assign = &self.assign;
        let outputs = self.sched.outputs.iter().copied();
        outputs.filter(move |&s| assign.rank_of(s) == p)
    }
}

impl Source<'_> {
    fn dims(&self) -> Dims {
        match self {
            Source::Memory(f) => f.dims(),
            Source::File(_, dims) => *dims,
        }
    }
}

/// What one rank holds between steps.
#[derive(Default)]
struct RankState {
    p: u32,
    blocks: Vec<u32>,
    fields: HashMap<u32, BlockField>,
    complexes: HashMap<u32, MsComplex>,
    /// The MSC3 bytes each slot had at the latest checkpoint cut, for
    /// the remote ship or write that follows it while the slot is
    /// unchanged.
    cut: HashMap<u32, Bytes>,
    /// This round's members whose root is on this rank: the live
    /// complexes `glue_groups` takes in place of a message.
    handoff: HashMap<u32, MsComplex>,
    /// Cross-rank merge ships so far, per destination rank: the
    /// ordinals a plan's drops and delays name.
    ships: HashMap<u32, u64>,
    /// Block segmentations stay on the rank that computed them.
    segs: HashMap<u32, BlockSegmentation>,
    /// Forward entries of cancelled extrema awaiting their routed flush.
    pending: Vec<(u64, u64)>,
    /// The slice of the global forward map this rank owns.
    owned: ForwardMap,
    /// Addresses other ranks asked this rank to resolve.
    asked: Vec<Vec<u64>>,
    hier: Vec<(u32, SlotHierarchy)>,
    /// Globally summed region sizes (count ordering).
    sizes: Option<HashMap<u64, u64>>,
}

/// The hosted ranks' results, in ascending slot and block order.
#[derive(Default)]
pub(crate) struct RankOut {
    pub outputs: Vec<(u32, MsComplex)>,
    pub output_bytes: u64,
    pub footer: Option<Vec<FooterEntry>>,
    pub segs: Vec<BlockSegmentation>,
    pub seg_bytes: u64,
    pub seg_footer: Option<Vec<FooterEntry>>,
    pub hier: Vec<(u32, SlotHierarchy)>,
    pub msh_footer: Option<Vec<FooterEntry>>,
}

impl RankOut {
    /// Fold another share in, keeping slot and block order.
    pub fn absorb(&mut self, o: RankOut) {
        self.outputs.extend(o.outputs);
        self.outputs.sort_by_key(|(s, _)| *s);
        self.output_bytes += o.output_bytes;
        self.footer = self.footer.take().or(o.footer);
        self.segs.extend(o.segs);
        self.segs.sort_by_key(|s| s.block_id);
        self.seg_bytes += o.seg_bytes;
        self.seg_footer = self.seg_footer.take().or(o.seg_footer);
        self.hier.extend(o.hier);
        self.hier.sort_by_key(|(s, _)| *s);
        self.msh_footer = self.msh_footer.take().or(o.msh_footer);
    }
}

fn all<T>(results: Vec<Res<T>>) -> Res<Vec<T>> {
    results.into_iter().collect()
}

/// Run the whole stage list on `m`: the resolved threshold and the
/// hosted ranks' results.
pub(crate) fn run<M: Machine>(m: &mut M, job: &Job, output: Option<&Path>) -> Res<(f32, RankOut)> {
    let st = m.ranks().into_iter().map(|p| RankState {
        p,
        blocks: job.assign.blocks_of(p),
        ..Default::default()
    });
    let mut run = Run {
        st: st.collect(),
        m,
        job,
        sp: job.params.simplify_params(0.0),
    };
    run.m.begin(Phase::Total);
    run.read()?;
    run.local()?;
    for r in 0..job.sched.rounds.len() {
        run.merge_round(r)?;
    }
    if job.params.segment {
        run.resolve()?;
    }
    if job.params.hierarchy {
        run.hierarchy()?;
    }
    if job.params.fault.active() {
        run.pre_write_cut()?;
    }
    let out = run.write(output)?;
    if job.params.check {
        run.check(&out);
    }
    run.m.end(Phase::Total);
    Ok((run.sp.threshold, out))
}

/// One run of the stage list on one machine.
struct Run<'a, M> {
    m: &'a mut M,
    job: &'a Job<'a>,
    st: Vec<RankState>,
    /// Local and re-simplification parameters (the threshold once read).
    sp: SimplifyParams,
}

impl<M: Machine> Run<'_, M> {
    /// Read every rank's blocks and all-reduce the global value range
    /// into the persistence threshold. The min/max scan is folded into
    /// block extraction; per-block f32 extrema reduce exactly in f64.
    fn read(&mut self) -> Res {
        let job = self.job;
        // The cross-rank imbalance of the estimated local-stage cost is
        // the load-balance figure `balance_sweep` gates on; uniform runs
        // count 1 per block.
        self.m.each(&mut self.st, |node, s| {
            let cost = match &job.costs {
                Some(c) => s.blocks.iter().map(|&b| c[b as usize].max(1)).sum(),
                None => s.blocks.len() as u64,
            };
            node.add(Counter::AssignCost, cost);
        });
        self.m.begin(Phase::Read);
        let ranges = self.m.each(&mut self.st, |node, s| {
            let loaded = par_map(node.threads(), &s.blocks, |_, &b| job.block(b));
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (&b, res) in s.blocks.iter().zip(loaded) {
                let (bf, l, h) = res?;
                lo = lo.min(l as f64);
                hi = hi.max(h as f64);
                s.fields.insert(b, bf);
            }
            Ok((lo, hi))
        });
        let ranges = all(ranges)?;
        let bytes = |s: &RankState| -> u64 {
            let blocks = s.blocks.iter().map(|&b| job.decomp.block(b));
            blocks.map(|b| block_bytes(b, job.dtype)).sum()
        };
        self.m
            .io(Io::Read, &self.st.iter().map(bytes).collect::<Vec<_>>());
        let (gmin, gmax) = (self.m.allreduce_min_max(TAG_RANGE, &ranges))
            .map_err(comm_err("all-reducing the global value range"))?;
        self.m.end(Phase::Read);
        self.sp = job
            .params
            .simplify_params(job.params.persistence_frac * (gmax - gmin) as f32);
        Ok(())
    }

    /// Gradient, complex and labels per block — sequentially, with the
    /// whole thread budget spent inside each block so the phase buckets
    /// measure pure phase time — then every block's simplification.
    fn local(&mut self) -> Res {
        let (job, sp) = (self.job, self.sp);
        let (params, decomp) = (job.params, &job.decomp);
        let rdims = job.src.dims().refined();
        self.m.each(&mut self.st, |node, s| {
            let threads = node.threads();
            for &b in &s.blocks {
                let field = &s.fields[&b];
                let (grad, _) = node.time(Phase::Gradient, || {
                    assign_gradient_kernel(field, decomp, threads, active_kernel())
                });
                let (ms, bstats) = node.time(Phase::Trace, || {
                    complex_from_gradient_mt(field, decomp, &grad, TraceLimits::default(), threads)
                });
                node.add(Counter::CellsPaired, bstats.cells_paired);
                node.add(Counter::CriticalCells, bstats.critical_cells);
                node.add(Counter::ArcsTraced, bstats.arcs);
                if params.segment {
                    let seg = node.time(Phase::Segment, || {
                        label_block(decomp.block(b), &rdims, &grad, threads)
                    });
                    s.segs.insert(b, seg);
                }
                s.complexes.insert(b, ms);
            }
            s.fields = HashMap::new();
        });
        let results = self.m.each(&mut self.st, |node, s| {
            let threads = node.threads();
            // blocks simplify independently; collect in block order so
            // the cancellations and `pending` accumulate deterministically
            let mut work: Vec<(u32, MsComplex)> = s.complexes.drain().collect();
            work.sort_by_key(|(b, _)| *b);
            let results = node.time(Phase::Simplify, || {
                par_map_mut(threads, &mut work, |_, (b, ms)| {
                    let context = || format!("simplifying block {b}");
                    let done = simplify(ms, sp, params.segment, context);
                    // a block's own tombstones would otherwise ride along
                    // through every round
                    ms.compact();
                    done
                })
            });
            s.complexes.extend(work);
            for r in results {
                let (n, fw) = r?;
                node.add(Counter::Cancellations, n);
                s.pending.extend(fw);
            }
            Ok(())
        });
        all(results).map(drop)
    }

    /// One radix-k merge round: persist the cut, ship every non-root slot
    /// to its root, then glue and re-simplify group by group.
    fn merge_round(&mut self, r: usize) -> Res {
        let (job, sp) = (self.job, self.sp);
        (self.m.barrier()).map_err(comm_err(format!("barrier entering merge round {r}")))?;
        self.m.begin(Phase::MergeRound(r as u16));
        // The barrier closed round r-1: a consistent cut. Persist it
        // before anything of round r happens.
        self.checkpoint(r as u32);
        all(self.m.each(&mut self.st, |node, s| ship(node, job, s, r)))?;
        all(self
            .m
            .each(&mut self.st, |node, s| glue_groups(node, job, s, r, sp)))?;
        // Piggybacked forward flush: the round's cancellations route to
        // their owners while everyone is synchronized anyway. A rank
        // that crashed this round flushes too: segmentation state rides
        // outside the checkpoint model.
        if job.params.segment {
            self.flush_forwards(TAG_SEG_ROUTE | r as u32)?;
        }
        self.m.end(Phase::MergeRound(r as u16));
        Ok(())
    }

    /// Snapshot every living complex into the checkpoint store at merge
    /// cursor `cursor` (when a fault config is active), serializing each slot
    /// once, tombstones and all: its bytes stay in `cut` for the remote
    /// ship or write that follows. One `checkpoint` span per cut.
    fn checkpoint(&mut self, cursor: u32) {
        let (job, threshold) = (self.job, self.sp.threshold);
        if !job.params.fault.active() {
            return;
        }
        self.m.begin(Phase::Checkpoint);
        let bytes = self.m.each(&mut self.st, |node, s| {
            let mut blocks: Vec<u32> = s.complexes.keys().copied().collect();
            blocks.sort_unstable();
            let slots = blocks.iter().map(|b| (*b, &s.complexes[b]));
            let (encoded, payloads) = encode_slots(s.p, cursor, threshold, slots);
            s.cut = blocks.into_iter().zip(payloads).collect();
            let n = encoded.len() as u64;
            node.add(Counter::CheckpointBytes, n);
            job.store.save(s.p, cursor, encoded);
            n
        });
        self.m.io(Io::Checkpoint, &bytes);
        self.m.end(Phase::Checkpoint);
    }

    /// One more consistent cut after the last merge round protects the
    /// merged state against a crash before the collective write.
    fn pre_write_cut(&mut self) -> Res {
        let (job, cursor) = (self.job, self.job.sched.rounds.len() as u32);
        (self.m.barrier()).map_err(comm_err("barrier at the pre-write cut"))?;
        self.checkpoint(cursor);
        // nothing ships between here and the write: a full restore
        all(self.m.each(&mut self.st, |node, s| {
            if !job.should_crash(s.p, cursor + 1) {
                return Ok(());
            }
            crash(node, job, s, cursor, |_| false)
        }))
        .map(drop)
    }

    /// Deterministic all-to-all over two steps: `build` makes a rank's
    /// bucket for every rank (sorted, so message bytes are a pure
    /// function of content), the others go out, the self bucket stays
    /// local, and `absorb` takes the incoming buckets by source. Wire
    /// bytes count as `seg_boundary_bytes`.
    fn exchange<T: Send, R: Send>(
        &mut self,
        tag: u32,
        what: &str,
        (encode, decode): Codec<T>,
        build: impl Fn(&mut M::Node, &mut RankState) -> Vec<Vec<T>> + Sync,
        absorb: impl Fn(&mut M::Node, &mut RankState, Vec<Vec<T>>) -> R + Sync,
    ) -> Res<Vec<R>> {
        let sent = self.m.each(&mut self.st, |node, s| {
            let mut buckets = build(node, s);
            let (me, mut sent) = (node.rank(), 0);
            for (p, bucket) in buckets.iter().enumerate().filter(|(p, _)| *p as u32 != me) {
                let payload = encode(bucket);
                sent += payload.len() as u64;
                node.send(p as u32, tag, payload, SendFate::Deliver)?;
            }
            node.add(Counter::SegBoundaryBytes, sent);
            Ok(std::mem::take(&mut buckets[me as usize]))
        });
        let mine = sent.into_iter().map(|r| r.map_err(comm_err(what)));
        let mut st: Vec<_> = self
            .st
            .iter_mut()
            .zip(mine.collect::<Res<Vec<_>>>()?)
            .collect();
        let n = self.m.size() as usize;
        let got = self.m.each(&mut st, |node, (s, mine)| {
            let me = node.rank() as usize;
            let mut incoming: Vec<Vec<T>> = Vec::with_capacity(n);
            for p in 0..n {
                incoming.push(if p == me {
                    std::mem::take(mine)
                } else {
                    let b = node.recv(p as u32, tag, None)?;
                    let protocol = |e: MsgError| CommError::Protocol {
                        from: p,
                        tag,
                        detail: e.to_string(),
                    };
                    decode(&b).map_err(protocol)?
                });
            }
            Ok(absorb(node, s, incoming))
        });
        got.into_iter().map(|r| r.map_err(comm_err(what))).collect()
    }

    /// Route pending forward pairs to their owners (the hashed
    /// [`owner_rank`] map) and absorb the pairs each rank owns.
    fn flush_forwards(&mut self, tag: u32) -> Res {
        let n = self.m.size() as u64;
        let what = "routing segmentation forwards";
        let build = |node: &mut M::Node, s: &mut RankState| {
            node.add(Counter::SegForwards, s.pending.len() as u64);
            let mut buckets = vec![Vec::new(); n as usize];
            for (dead, target) in s.pending.drain(..) {
                buckets[owner_rank(dead, n) as usize].push((dead, target));
            }
            buckets.iter_mut().for_each(|b| b.sort_unstable());
            buckets
        };
        self.exchange(tag, what, PAIRS, build, |_, s, incoming| {
            for (dead, target) in incoming.into_iter().flatten() {
                s.owned.insert(dead, target);
            }
        })
        .map(drop)
    }

    /// Segmentation resolution (DESIGN.md §11): compress every chain of
    /// cancelled-extremum forwards to its live root by synchronized
    /// pointer jumping, then rewrite each block's extremum tables
    /// through the resolved representatives. The state at every round
    /// boundary is a pure function of the forward pairs, so labels are
    /// bit-identical for any rank count, thread count or schedule.
    fn resolve(&mut self) -> Res {
        self.m.begin(Phase::SegResolve);
        // whatever was not piggybacked on a merge round
        self.flush_forwards(TAG_SEG_ROUTE_FINAL)?;
        let n = self.m.size() as u64;
        let by_owner = move |addrs: &mut dyn Iterator<Item = u64>| {
            let mut b = vec![Vec::new(); n as usize];
            addrs.for_each(|a| b[owner_rank(a, n) as usize].push(a));
            for q in &mut b {
                q.sort_unstable();
                q.dedup();
            }
            b
        };
        let ask = |_: &mut M::Node, s: &mut RankState, asked| s.asked = asked;
        for jump in 0u32.. {
            self.m.seg_round(true);
            // Ask each target's owner what it currently forwards to.
            let what = "exchanging jump queries";
            self.exchange(
                TAG_SEG_QUERY | jump,
                what,
                ADDRS,
                |_, s| {
                    let targets = s.owned.sorted_entries().into_iter().map(|(_, t)| t);
                    by_owner(&mut targets.filter(|&t| t != DRAIN_ADDR))
                },
                ask,
            )?;
            // Answer from the pre-round state: only dead addresses have
            // an entry, live ones are absent = already resolved.
            let what = "exchanging jump replies";
            let changed = self.exchange(
                TAG_SEG_REPLY | jump,
                what,
                PAIRS,
                |_, s| {
                    let answer = |a: &u64| s.owned.get(*a).map(|t| (*a, t));
                    s.asked
                        .iter()
                        .map(|b| b.iter().filter_map(answer).collect())
                        .collect()
                },
                |node, s, replies| {
                    let lookup: HashMap<u64, u64> = replies.into_iter().flatten().collect();
                    let changed = s.owned.jump_pass(&lookup);
                    node.add(Counter::SegRelabels, changed);
                    node.add(Counter::SegRounds, 1);
                    changed
                },
            )?;
            let changed = (self.m.allreduce_sum(TAG_SEG_FIXED | (jump << 1), &changed))
                .map_err(comm_err("all-reducing jump fixed point"))?;
            self.m.seg_round(false);
            if changed == 0 {
                break;
            }
        }
        // Table resolution: every extremum address in a rank's tables is
        // resolved by its owner against the compressed map.
        let what = "exchanging table-resolution queries";
        self.exchange(
            TAG_SEG_TABLE_Q,
            what,
            ADDRS,
            |_, s| {
                let segs = s.segs.values();
                by_owner(&mut segs.flat_map(|s| s.mins.iter().chain(&s.maxs).copied()))
            },
            ask,
        )?;
        let what = "exchanging table-resolution replies";
        self.exchange(
            TAG_SEG_TABLE_R,
            what,
            PAIRS,
            |_, s| {
                let resolve = |b: &Vec<u64>| b.iter().map(|&a| (a, s.owned.resolve(a))).collect();
                s.asked.iter().map(resolve).collect()
            },
            |node, s, replies| {
                let resolved: HashMap<u64, u64> = replies.into_iter().flatten().collect();
                let mut blocks: Vec<u32> = s.segs.keys().copied().collect();
                blocks.sort_unstable();
                let mut relabels = 0;
                for b in blocks {
                    let seg = s.segs.get_mut(&b).expect("own block");
                    let rm: Vec<u64> = seg.mins.iter().map(|a| resolved[a]).collect();
                    let rx: Vec<u64> = seg.maxs.iter().map(|a| resolved[a]).collect();
                    relabels += seg.apply_resolution(&rm, &rx);
                }
                node.add(Counter::SegRelabels, relabels);
            },
        )?;
        self.m.end(Phase::SegResolve);
        Ok(())
    }

    /// Hierarchy recording (DESIGN.md §12): simplify each output slot
    /// once to persistence ∞ with full logging, replayable to any
    /// threshold later. Runs after resolution so the count ordering can
    /// key on globally summed region sizes of the resolved tables.
    fn hierarchy(&mut self) -> Res {
        let job = self.job;
        self.m.begin(Phase::Hierarchy);
        if job.params.segment {
            self.m.begin(Phase::HierarchySizes);
            // Every rank broadcasts its sorted local tallies and sums
            // what it receives; addition commutes and buckets arrive in
            // rank order, so the map is identical everywhere.
            let n = self.m.size() as usize;
            let what = "broadcasting hierarchy region sizes";
            self.exchange(
                TAG_HIER_SIZES,
                what,
                PAIRS,
                |_, s| {
                    let mut pairs: Vec<_> = msp_hierarchy::region_sizes(s.segs.values())
                        .into_iter()
                        .collect();
                    pairs.sort_unstable();
                    vec![pairs; n]
                },
                |_, s, incoming| {
                    let mut sizes: HashMap<u64, u64> = HashMap::new();
                    for (addr, n) in incoming.into_iter().flatten() {
                        *sizes.entry(addr).or_insert(0) += n;
                    }
                    s.sizes = Some(sizes);
                },
            )?;
            self.m.end(Phase::HierarchySizes);
        }
        let rp = ReplayParams {
            max_new_arcs: job.params.max_new_arcs,
            max_parallel_arcs: Some(2),
        };
        all(self.m.each(&mut self.st, |node, s| {
            for slot in job.outputs_of(s.p) {
                let ms = s.complexes.get_mut(&slot);
                let ms = ms.ok_or(missing(slot, "hierarchy recording"))?;
                // the logs name the node ids of the complex the write
                // stores, which is the compaction
                ms.compact();
                let ms = &*ms;
                // `record`, one span per ordering
                let err = |source| PipelineError::Simplify {
                    context: format!("recording hierarchy for slot {slot}"),
                    source,
                };
                let difference = node.time(Phase::HierarchyDifference, || {
                    record_sequence(ms, rp, CancelOrder::Difference)
                });
                let difference = difference.map_err(err)?;
                let count = (s.sizes.clone()).map(|sizes| {
                    node.time(Phase::HierarchyCount, || {
                        record_sequence(ms, rp, CancelOrder::Count(sizes))
                    })
                });
                let count = count.transpose().map_err(err)?;
                let h = SlotHierarchy {
                    params: rp,
                    difference,
                    count,
                };
                let n_records = h.difference.len() + h.count.as_ref().map_or(0, |c| c.len());
                node.add(Counter::HierarchyRecords, n_records as u64);
                s.hier.push((slot, h));
            }
            Ok(())
        }))?;
        self.m.end(Phase::Hierarchy);
        Ok(())
    }

    /// The three keyed collective writes: output complexes by slot (so
    /// the file is a pure function of `(decomposition, plan, threshold)`
    /// however LPT parks the slots), labeled volumes by block into
    /// `<out>.seg` and hierarchies by slot into `<out>.msh`. Each file's
    /// payloads are built and dropped before the next file's.
    fn write(&mut self, output: Option<&Path>) -> Res<RankOut> {
        let job = self.job;
        self.m.begin(Phase::Write);
        // Each output is serialized once, path or no path (the lengths
        // are the run's `output_bytes`), or not at all after a pre-write
        // cut, whose bytes it still has. The complex itself is handed
        // back with its tombstones; only its cancellation log goes, as
        // the file keeps none (§IV-F1).
        let outputs = all(self.m.each(&mut self.st, |_, s| {
            let (mut outs, mut blocks) = (Vec::new(), Vec::new());
            for slot in job.outputs_of(s.p) {
                let c = s.complexes.remove(&slot);
                let mut c = c.ok_or(missing(slot, "output collection"))?;
                let bytes = s.cut.remove(&slot);
                blocks.push((slot, bytes.unwrap_or_else(|| wire::serialize(&c))));
                c.hierarchy = Vec::new();
                outs.push((slot, c));
            }
            Ok((outs, blocks))
        }))?;
        let (outputs, blocks): (Vec<_>, _) = outputs.into_iter().unzip();
        let mut out = RankOut::default();
        (out.footer, out.output_bytes) = self.write_file(Output::Complex, output, blocks)?;
        out.outputs = outputs.into_iter().flatten().collect();
        let st = self.st.iter_mut();
        let segs: Vec<Vec<BlockSegmentation>> = (st.map(|s| {
            let mut segs: Vec<_> = std::mem::take(&mut s.segs).into_values().collect();
            segs.sort_by_key(|s| s.block_id);
            segs
        }))
        .collect();
        let wanted = |on: bool| on && (output.is_some() || M::MODELS_IO);
        if wanted(job.params.segment) {
            let blocks = segs
                .iter()
                .map(|v| v.iter().map(|s| (s.block_id, segwire::serialize(s))));
            let path = output.map(seg_output_path);
            let blocks = blocks.map(Iterator::collect).collect();
            (out.seg_footer, out.seg_bytes) =
                self.write_file(Output::Segmentation, path.as_deref(), blocks)?;
        }
        if wanted(job.params.hierarchy) {
            let hier = self
                .st
                .iter()
                .map(|s| s.hier.iter().map(|(k, h)| (*k, hwire::serialize(h))));
            let blocks = hier.map(Iterator::collect).collect();
            let path = output.map(msh_output_path);
            out.msh_footer = self
                .write_file(Output::Hierarchy, path.as_deref(), blocks)?
                .0;
        }
        self.m.end(Phase::Write);
        out.segs = segs.into_iter().flatten().collect();
        out.hier = self
            .st
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut s.hier))
            .collect();
        Ok(out)
    }

    /// One keyed collective write; returns its footer and total bytes.
    fn write_file(
        &mut self,
        what: Output,
        path: Option<&Path>,
        blocks: Vec<Vec<(u32, Bytes)>>,
    ) -> Res<(Option<Vec<FooterEntry>>, u64)> {
        let bytes = blocks.iter().flatten().map(|(_, p)| p.len() as u64).sum();
        let footer = self.m.write(path, what, blocks).map_err(|source| {
            let file = match what {
                Output::Complex => "",
                Output::Segmentation => "segmentation ",
                Output::Hierarchy => "hierarchy ",
            };
            let path = path.map(|p| p.display().to_string()).unwrap_or_default();
            PipelineError::Io {
                context: format!("collective {file}write to {path}"),
                source,
            }
        })?;
        Ok((footer, bytes))
    }

    /// The oracle invariant checker over the outputs (`--check`).
    /// Violations are counted and described on stderr, never returned: a
    /// rank bailing out while its peers sit in collectives would
    /// deadlock the run. Callers gate on the counters (`msc --check`,
    /// `oracle_fuzz`).
    fn check(&mut self, out: &RankOut) {
        let job = self.job;
        self.m.begin(Phase::Check);
        self.m.each(&mut self.st, |node, s| {
            let opts = CheckOptions::default();
            let mine = |slot: &u32| job.assign.rank_of(*slot) == s.p;
            for (slot, ms) in out.outputs.iter().filter(|(k, _)| mine(k)) {
                let mut report = InvariantReport::default();
                msp_oracle::check_structural(ms, &job.decomp, &opts, &mut report);
                // The semantic tier needs the member scalar blocks back
                // (they were dropped after the local stage).
                let blocks = ms.member_blocks.iter().map(|&b| job.block(b).map(|f| f.0));
                match blocks.collect::<Res<Vec<_>>>() {
                    Ok(f) => msp_oracle::check_semantic(ms, &job.decomp, &f, &opts, &mut report),
                    Err(e) => report.notes.push(format!("semantic tier skipped: {e}")),
                }
                if let Err(e) = msp_oracle::check_glue_idempotent(ms, &job.decomp) {
                    report.structural += 1;
                    report.notes.push(format!("glue idempotency: {e}"));
                }
                node.add(Counter::ChecksRun, 1);
                node.add(Counter::CheckStructural, report.structural);
                node.add(Counter::CheckEuler, report.euler);
                node.add(Counter::CheckBoundary, report.boundary);
                node.add(Counter::CheckVpath, report.vpath);
                note(s.p, &format!(" slot {slot}"), &report.notes);
                // Hierarchy replay must reproduce a direct simplify.
                if let Some((_, h)) = out.hier.iter().find(|(k, _)| k == slot) {
                    let notes = h.check_replay(ms, s.sizes.as_ref());
                    node.add(Counter::CheckHierarchy, notes.len() as u64);
                    note(s.p, &format!(" slot {slot}"), &notes);
                }
            }
            // Segmentation invariants are per original block: resolved
            // labels never change along a V-path of an independent
            // reference gradient. (Representative liveness needs the
            // gathered outputs: see `check_segmentation_tables`.)
            let rdims = job.src.dims().refined();
            for seg in out.segs.iter().filter(|g| s.blocks.contains(&g.block_id)) {
                let mut report = InvariantReport::default();
                match job.block(seg.block_id) {
                    Ok((bf, _, _)) => {
                        let grad = msp_oracle::reference_gradient(&bf, &job.decomp);
                        let view = msp_oracle::SegView {
                            block_id: seg.block_id,
                            vdims: seg.vdims,
                            mins: &seg.mins,
                            maxs: &seg.maxs,
                            min_label: &seg.min_label,
                            max_label: &seg.max_label,
                        };
                        let b = job.decomp.block(seg.block_id);
                        msp_oracle::check_segmentation_block(
                            &view,
                            b,
                            &rdims,
                            &grad,
                            &opts,
                            &mut report,
                        );
                    }
                    Err(e) => report
                        .notes
                        .push(format!("seg block {}: {e}", seg.block_id)),
                }
                node.add(Counter::CheckSegment, report.segment);
                note(s.p, "", &report.notes);
            }
        });
        self.m.end(Phase::Check);
    }
}

fn note(p: u32, what: &str, notes: &[String]) {
    for n in notes {
        eprintln!("[msp-check] rank {p}{what}: {n}");
    }
}

/// A message codec of the resolution protocol.
type Codec<T> = (fn(&[T]) -> Bytes, fn(&[u8]) -> Result<Vec<T>, MsgError>);
const PAIRS: Codec<(u64, u64)> = (encode_pairs, decode_pairs);
const ADDRS: Codec<u64> = (encode_u64s, decode_u64s);

/// Simplify one complex: the cancellation count and the forward entries
/// of cancelled extrema (`--segment`).
fn simplify(
    ms: &mut MsComplex,
    sp: SimplifyParams,
    segment: bool,
    context: impl FnOnce() -> String,
) -> Res<(u64, Vec<(u64, u64)>)> {
    let mut fw = segment.then(Vec::new);
    let st = simplify_forwarding(ms, sp, fw.as_mut()).map_err(|source| {
        let context = context();
        PipelineError::Simplify { context, source }
    })?;
    Ok((st.cancellations, fw.unwrap_or_default()))
}

/// The send half of round `r`. A member whose root is on another rank
/// ships as the bytes of the cut when there was one, else serialized with
/// its tombstones, and meets the fate the plan gives its ship; one whose
/// root is on this rank is handed over live. A rank that crashes at the
/// cut ships and hands over nothing.
fn ship<N: Node>(node: &mut N, job: &Job, s: &mut RankState, r: usize) -> Res {
    let groups = &job.sched.rounds[r].groups;
    if job.should_crash(s.p, r as u32 + 1) {
        let member = |slot: &u32| groups.iter().any(|(_, m)| m[1..].contains(slot));
        return crash(node, job, s, r as u32, member);
    }
    // the slots left after the ship are this round's to change
    let mut cut = std::mem::take(&mut s.cut);
    for (root, members) in groups {
        let to = job.assign.rank_of(*root);
        for &mb in members[1..]
            .iter()
            .filter(|&&mb| job.assign.rank_of(mb) == s.p)
        {
            let ms = s.complexes.remove(&mb).ok_or(missing(mb, "merge send"))?;
            if to == s.p {
                s.handoff.insert(mb, ms);
                continue;
            }
            node.add(Counter::NodesShipped, ms.n_live_nodes());
            node.add(Counter::ArcsShipped, ms.n_live_arcs());
            let payload = match cut.remove(&mb) {
                Some(payload) => payload,
                None => node.time(Phase::Ship, || wire::serialize(&ms)),
            };
            node.add(Counter::ShipBytes, payload.len() as u64);
            let nth = s.ships.entry(to).or_default();
            *nth += 1;
            let fate = job.fate(s.p, to, *nth);
            (node.send(to, (r as u32) << 20 | mb, payload, fate))
                .map_err(comm_err(format!("shipping slot {mb} in round {r}")))?;
        }
    }
    Ok(())
}

/// An injected crash at cut `cursor`: every complex of the rank is gone,
/// and it reloads from its own checkpoint all but the slots `handed` to
/// their roots this round, each of which must be there.
fn crash<N: Node>(
    node: &mut N,
    job: &Job,
    s: &mut RankState,
    cursor: u32,
    handed: impl Fn(&u32) -> bool,
) -> Res {
    node.add(Counter::Crashes, 1);
    s.cut.clear();
    let held = std::mem::take(&mut s.complexes).into_keys();
    let lost: Vec<u32> = held.filter(|slot| !handed(slot)).collect();
    let (kept, took) = node.recover(s.p, || match job.store.load(s.p, cursor) {
        Some(encoded) => {
            let view = CheckpointView::parse(&encoded);
            let kept = view.and_then(|v| v.decode(|slot| lost.contains(&slot)));
            (kept, encoded.len() as u64)
        }
        None => (Ok(Vec::new()), 0),
    });
    let kept = kept.map_err(|source| PipelineError::Checkpoint {
        context: format!("restoring rank {} at round cursor {cursor}", s.p),
        source,
    })?;
    s.complexes.extend(kept);
    if let Some(&slot) = lost.iter().find(|slot| !s.complexes.contains_key(slot)) {
        return Err(missing(slot, "checkpoint restore"));
    }
    node.add(Counter::RoundsReplayed, 1);
    node.add(Counter::RecoveryMs, took.as_millis() as u64);
    Ok(())
}

/// The error for a slot whose complex, or the checkpoint that would
/// restore it, is not where the merge schedule puts it.
fn missing(slot: u32, context: &'static str) -> PipelineError {
    PipelineError::MissingComplex { slot, context }
}

/// A member on its way into its root's glue.
enum Member {
    /// Handed over live by a slot on the root's own rank.
    Live(Box<MsComplex>),
    /// The MSC3 bytes of a ship, or of the sender's checkpoint slot,
    /// glued without decoding them into a complex first.
    Wire(Bytes),
}

/// The receive half of round `r`: every root slot this rank owns takes
/// its members one at a time, in schedule order — from the handoff when
/// the member lives on this rank, else by message — then glues them in
/// that order (a message straight from its bytes) and re-simplifies,
/// keeping the root's tombstones. A member that misses the deadline (a
/// handoff lost to a crash included) is replayed from its checkpoint
/// slot's bytes here, on the recovering root.
fn glue_groups<N: Node>(
    node: &mut N,
    job: &Job,
    s: &mut RankState,
    r: usize,
    sp: SimplifyParams,
) -> Res {
    let fault = &job.params.fault;
    for (root, members) in &job.sched.rounds[r].groups {
        if job.assign.rank_of(*root) != s.p {
            continue;
        }
        let ms = s.complexes.get_mut(root);
        let ms = ms.ok_or(missing(*root, "merge glue"))?;
        let mut incoming = Vec::with_capacity(members.len() - 1);
        for &mb in &members[1..] {
            if let Some(live) = s.handoff.remove(&mb) {
                incoming.push((mb, Member::Live(Box::new(live))));
                continue;
            }
            let owner = job.assign.rank_of(mb);
            let deadline = fault.active().then_some(fault.deadline);
            match node.recv(owner, (r as u32) << 20 | mb, deadline) {
                Ok(payload) => incoming.push((mb, Member::Wire(payload))),
                Err(CommError::Timeout { waited, .. }) => {
                    node.add(Counter::Retries, 1);
                    // only the lost slot's bytes are taken, and they are
                    // what the re-ship costs
                    let (payload, took) = node.recover(owner, || {
                        let Some(encoded) = job.store.load(owner, r as u32) else {
                            return (Ok(None), 0);
                        };
                        let view = CheckpointView::parse(&encoded);
                        let payload = view.map(|v| v.slot(mb).map(Bytes::copy_from_slice));
                        let bytes = payload.as_ref().ok().and_then(Option::as_ref);
                        let bytes = bytes.map_or(0, Bytes::len) as u64;
                        (payload, bytes)
                    });
                    let payload = payload.map_err(|source| PipelineError::Checkpoint {
                        context: format!("recovering slot {mb} from rank {owner} at round {r}"),
                        source,
                    })?;
                    let payload = payload.ok_or(missing(mb, "checkpoint replay"))?;
                    incoming.push((mb, Member::Wire(payload)));
                    node.add(Counter::RoundsReplayed, 1);
                    node.add(Counter::RecoveryMs, (waited + took).as_millis() as u64);
                }
                Err(source) => {
                    let context = format!("receiving slot {mb} in round {r}");
                    return Err(PipelineError::Comm { context, source });
                }
            }
        }
        // every live node of a member is matched or added, and every
        // live arc added or skipped as a duplicate
        let (nodes, arcs) = node.time(Phase::Glue, || -> Res<(u64, u64)> {
            let (mut nodes, mut arcs) = (0, 0);
            for (mb, member) in &incoming {
                let glued = match member {
                    Member::Live(inc) => glue(ms, inc, &job.decomp),
                    Member::Wire(payload) => glue_from_wire(ms, payload, &job.decomp),
                };
                let st = glued.map_err(|source| match source {
                    GlueError::Wire(source) => {
                        let context = format!("merge payload for slot {mb} in round {r}");
                        PipelineError::Wire { context, source }
                    }
                    source => PipelineError::Glue {
                        context: format!("gluing slot {mb} into slot {root} in round {r}"),
                        source,
                    },
                })?;
                nodes += st.matched_nodes + st.added_nodes;
                arcs += st.added_arcs + st.skipped_shared_arcs;
            }
            ms.reflag_boundaries(&job.decomp);
            Ok((nodes, arcs))
        })?;
        node.add(Counter::GluedNodes, nodes);
        node.add(Counter::GluedArcs, arcs);
        let (n, fw) = node.time(Phase::Resimplify, || {
            let context = || format!("re-simplifying slot {root} after round {r}");
            simplify(ms, sp, job.params.segment, context)
        })?;
        node.add(Counter::Cancellations, n);
        s.pending.extend(fw);
    }
    Ok(())
}

impl PipelineParams {
    fn simplify_params(&self, threshold: f32) -> SimplifyParams {
        SimplifyParams {
            threshold,
            max_new_arcs: self.max_new_arcs,
            max_parallel_arcs: Some(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Threaded;
    use crate::simdriver::{Sim, SimParams};
    use msp_vmpi::Universe;
    use std::time::Instant;

    /// Incoming pair and address buckets of one rank, by source.
    type Routed = (Vec<Vec<(u64, u64)>>, Vec<Vec<u64>>);

    /// One pair and one address all-to-all: every rank `me` sends `p + 1`
    /// pairs `(me, p)` and the address `10 me + p` to each rank `p`.
    fn route<M: Machine>(m: &mut M, job: &Job) -> Vec<Routed> {
        let st = m.ranks().into_iter().map(|p| RankState {
            p,
            ..Default::default()
        });
        let mut run = Run {
            st: st.collect(),
            m,
            job,
            sp: job.params.simplify_params(0.0),
        };
        let n = run.m.size() as u64;
        let pairs = run.exchange(
            TAG_SEG_ROUTE,
            "pairs",
            PAIRS,
            |_, s| {
                (0..n)
                    .map(|p| vec![(s.p as u64, p); p as usize + 1])
                    .collect()
            },
            |_, _, incoming| incoming,
        );
        let addrs = run.exchange(
            TAG_SEG_QUERY,
            "addrs",
            ADDRS,
            |_, s| (0..n).map(|p| vec![s.p as u64 * 10 + p]).collect(),
            |_, _, incoming| incoming,
        );
        let (pairs, addrs) = (pairs.unwrap(), addrs.unwrap());
        pairs.into_iter().zip(addrs).collect()
    }

    /// Rank `me` of 3 gets every bucket addressed to it, indexed by
    /// source, its own included; only the two peers' buckets count as
    /// wire bytes.
    fn check(me: u64, (pairs, addrs): &Routed, sent: u64) {
        assert_eq!((pairs.len(), addrs.len()), (3, 3));
        for (src, bucket) in pairs.iter().enumerate() {
            assert_eq!(bucket, &vec![(src as u64, me); me as usize + 1]);
        }
        for (src, bucket) in addrs.iter().enumerate() {
            assert_eq!(bucket, &vec![src as u64 * 10 + me]);
        }
        let peers = (0..3).filter(|&p| p != me);
        let want: u64 = peers.map(|p| (4 + 16 * (p + 1)) + (4 + 8)).sum();
        assert_eq!(sent, want, "rank {me}");
    }

    #[test]
    fn all_to_all_routes_buckets() {
        let field = msp_synth::white_noise(Dims::cube(9), 4);
        let params = PipelineParams::default();
        let src = Source::Memory(&field);
        let job = Job::layout(src, VolumeDType::F32, &params, 3, 3).unwrap();

        let threaded = Universe::run(3, |rank| {
            let mut m = Threaded::new(rank, &params, Instant::now());
            let routed = route(&mut m, &job).pop().unwrap();
            let (_, _, report, _) = m.finish(Ok((0.0, RankOut::default()))).unwrap();
            (routed, report)
        });
        for (me, (routed, report)) in threaded.iter().enumerate() {
            check(me as u64, routed, report.counter("seg_boundary_bytes"));
        }

        let sim_params = SimParams::default();
        let mut m = Sim::new(3, &sim_params);
        for (me, routed) in route(&mut m, &job).iter().enumerate() {
            check(
                me as u64,
                routed,
                m.counter(me as u32, Counter::SegBoundaryBytes),
            );
        }
    }
}
