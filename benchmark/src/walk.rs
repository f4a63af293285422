//! The traced run: each layer measured from outside.
//!
//! One workload's stages are walked serially in-process over the
//! crates' public functions, on the same input the untraced run gives
//! the program: decompose, sched, per-block read -> gradient -> trace ->
//! build -> simplify (-> label), per-round encode -> ship over a 2-rank
//! `Universe` -> decode -> glue -> re-simplify (-> checkpoint
//! encode/save/decode), resolve, hierarchy record/encode, keyed
//! collective write; for `serve_mix` load -> decode -> materialize ->
//! `handle_line`. A span is recorded around every call and the counts
//! are taken at the same boundaries. The walk's files must be
//! byte-identical to what `run_parallel` writes for the same input.
//!
//! End-to-end metrics are never taken from here. The few children this
//! run starts exist only for the three cross metrics that compare a
//! child process with the in-process run (`core.proc_overhead_s`,
//! `core.par_eff_2`, `core.serve_tcp_overhead_ms`).

use crate::child;
use crate::e2e::{drive_pass, Server, WorkDir};
use crate::host::HostProbe;
use crate::report::{Ctx, Metric, Outcome};
use crate::script::{self, Request};
use crate::spans::Tracer;
use crate::stats::{median, percentile, Stat};
use crate::workload::{Kind, Op, Workload, PER_LAYER, RANKS, SERVE_CACHE};
use morse_smale_parallel::complex::glue::glue_all;
use morse_smale_parallel::complex::{
    complex_from_gradient_mt, simplify_forwarding, wire, MsComplex, SimplifyParams,
};
use morse_smale_parallel::core::{
    full_merge_plan, load_dataset, msh_output_path, run_parallel, seg_output_path, simulate,
    Assignment, DecompMode, FaultConfig, Input, MergePlan, MergeSchedule, PipelineParams,
    ServeConfig, ServerCore, SimParams,
};
use morse_smale_parallel::fault::{Checkpoint, CheckpointStore};
use morse_smale_parallel::grid::rawio::{
    block_bytes, read_block, read_raw, write_raw, VolumeDType,
};
use morse_smale_parallel::grid::{Decomposition, Dims, ScalarField};
use morse_smale_parallel::hierarchy::{self, wire as hwire, ReplayParams};
use morse_smale_parallel::morse::{
    active_kernel, assign_gradient_kernel, trace_all_arcs_kernel, TraceLimits,
};
use morse_smale_parallel::segment::{
    label_block, wire as segwire, BlockSegmentation, ForwardMap, DRAIN_ADDR,
};
use morse_smale_parallel::vmpi::fileio::{
    collective_write_blocks_keyed, read_block_payload, read_footer,
};
use morse_smale_parallel::vmpi::Universe;
use morse_smale_parallel::{core as msp_core, synth};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;
const DTYPE: VolumeDType = VolumeDType::F32;
/// Walks per traced run; every layer time is the median over them.
const WALKS: usize = 5;
/// Repeats of the in-process `run_parallel` variants.
const INPROC_REPEATS: usize = 3;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Exact counts one walk took at the layer boundaries.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }
}

fn dims_of(w: &Workload) -> Dims {
    let [x, y, z] = w.dims();
    Dims::new(x, y, z)
}

/// The field `msc synth` writes for this workload and seed.
fn field(w: &Workload, seed: u64) -> ScalarField {
    let seed = w.input_seed(seed);
    match w.synth_kind {
        "sinusoid" => synth::sinusoid(w.size, w.complexity.unwrap_or(4)),
        "noise" => synth::white_noise(Dims::cube(w.size), seed),
        "jet" => synth::jet(dims_of(w), 160, seed),
        other => unreachable!("no workload uses synth kind {other}"),
    }
}

/// The merge plan `msc compute --merge` builds for this workload.
fn plan(w: &Workload) -> MergePlan {
    match w.merge {
        "full" if !w.adaptive => MergePlan::full_merge(w.blocks),
        "full" => full_merge_plan(w.blocks),
        spec => MergePlan::rounds(spec.split(',').map(|r| r.parse().expect("radix")).collect()),
    }
}

/// The parameters `msc compute` builds for this workload's command line.
fn params(w: &Workload, checkpoint: bool, trace: bool, check: bool) -> PipelineParams {
    PipelineParams {
        persistence_frac: 0.01,
        plan: plan(w),
        decomp: if w.adaptive {
            DecompMode::Adaptive
        } else {
            DecompMode::Uniform
        },
        threads: Some(1),
        segment: w.hierarchy,
        hierarchy: w.hierarchy,
        trace,
        check,
        fault: FaultConfig {
            checkpoint,
            ..FaultConfig::default()
        },
        ..PipelineParams::default()
    }
}

fn checkpoints(w: &Workload) -> bool {
    w.pattern.contains(&Op::Ckpt)
}

/// One serial walk of a compute workload; writes `out` (+ `.seg`, `.msh`).
fn walk_compute(w: &Workload, input: &Path, out: &Path, tr: &mut Tracer) -> Res<Counts> {
    let mut n = Counts::default();
    let dims = dims_of(w);
    let rdims = dims.refined();
    let segment = w.hierarchy;
    let kernel = active_kernel();
    let limits = TraceLimits::default();
    let root = tr.begin("walk");

    // ---- decompose + schedule ----
    let (decomp, costs) = if w.adaptive {
        // the adaptive splitter needs the whole field once, up front
        let f = tr
            .time("grid.read", || read_raw(input, dims, DTYPE))
            .map_err(err("read_raw"))?;
        n.add(
            "grid.read_mb",
            dims.n_verts() as f64 * DTYPE.size_bytes() as f64 / MIB,
        );
        let weights = tr.time("core.sched", || msp_core::feature_weights(&f));
        let (d, c) = tr.time("grid.decompose", || {
            let d = Decomposition::adaptive(dims, w.blocks, &weights);
            let c = d.block_costs(&weights);
            (d, c)
        });
        (d, Some(c))
    } else {
        (
            tr.time("grid.decompose", || Decomposition::bisect(dims, w.blocks)),
            None,
        )
    };
    let plan = plan(w);
    let (sched, assign) = tr.time("core.sched", || {
        let s = match costs {
            None => MergeSchedule::uniform(&plan, w.blocks),
            Some(_) => MergeSchedule::contract(&decomp, &plan),
        };
        let a = match &costs {
            None => Assignment::round_robin(w.blocks, RANKS),
            Some(c) => Assignment::lpt(c, RANKS),
        };
        (s, a)
    });

    // ---- local stage, block by block ----
    let mut complexes: BTreeMap<u32, MsComplex> = BTreeMap::new();
    let mut segs: BTreeMap<u32, BlockSegmentation> = BTreeMap::new();
    let (mut gmin, mut gmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for b in 0..w.blocks {
        let blk = tr.begin("block");
        let block = decomp.block(b);
        let (bf, lo, hi) = tr
            .time("grid.read", || {
                read_block(input, dims, block, DTYPE).map(|bf| {
                    let (lo, hi) = bf.min_max();
                    (bf, lo, hi)
                })
            })
            .map_err(err("read_block"))?;
        n.add("grid.read_mb", block_bytes(block, DTYPE) as f64 / MIB);
        gmin = gmin.min(lo as f64);
        gmax = gmax.max(hi as f64);
        let (grad, kstats) = tr.time("morse.gradient", || {
            assign_gradient_kernel(&bf, &decomp, 1, kernel)
        });
        n.add("morse.cells", kstats.cells as f64);
        // traced once on its own for the morse layer's number, and once
        // more inside `complex_from_gradient_mt`, the call the pipeline makes
        let (arcs, tstats) = tr.time("morse.trace", || {
            trace_all_arcs_kernel(&grad, limits, 1, kernel)
        });
        n.add("morse.arc_steps", tstats.path_cells_total as f64);
        drop(arcs);
        let (ms, bstats) = tr.time("complex.from_gradient", || {
            complex_from_gradient_mt(&bf, &decomp, &grad, limits, 1)
        });
        n.add("complex.nodes", bstats.critical_cells as f64);
        n.add("complex.arcs", bstats.arcs as f64);
        if segment {
            let seg = tr.time("segment.label", || label_block(block, &rdims, &grad, 1));
            n.add("segment.voxels", block.n_verts() as f64);
            segs.insert(b, seg);
        }
        complexes.insert(b, ms);
        tr.end(blk);
    }
    let threshold = 0.01 * (gmax - gmin) as f32;
    let sp = SimplifyParams {
        threshold,
        max_new_arcs: PipelineParams::default().max_new_arcs,
        max_parallel_arcs: Some(2),
    };
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut simplify =
        |span: &'static str, ms: &mut MsComplex, tr: &mut Tracer, n: &mut Counts| -> Res<()> {
            let mut fw = segment.then(Vec::new);
            let st = tr
                .time(span, || {
                    let st = simplify_forwarding(ms, sp, fw.as_mut());
                    ms.compact();
                    st
                })
                .map_err(err("simplify"))?;
            n.add("complex.cancellations", st.cancellations as f64);
            pending.extend(fw.unwrap_or_default());
            Ok(())
        };
    for ms in complexes.values_mut() {
        simplify("complex.simplify", ms, tr, &mut n)?;
    }

    // ---- merge rounds ----
    let store = CheckpointStore::new();
    let checkpoint_cut = |cursor: u32,
                          complexes: &BTreeMap<u32, MsComplex>,
                          tr: &mut Tracer,
                          n: &mut Counts|
     -> Res<()> {
        for p in 0..RANKS {
            let encoded = tr.time("fault.ckpt_encode", || {
                let slots = complexes
                    .iter()
                    .filter(|(b, _)| assign.rank_of(**b) == p)
                    .map(|(b, c)| (*b, c.clone()))
                    .collect();
                Checkpoint {
                    rank: p,
                    round: cursor,
                    threshold,
                    slots,
                }
                .encode()
            });
            n.add("fault.ckpt_mb", encoded.len() as f64 / MIB);
            tr.time("fault.ckpt_save", || store.save(p, cursor, encoded));
            // the recovery side of the codec; not on a fault-free run's path
            let stored = store
                .load(p, cursor)
                .ok_or("checkpoint store lost a save")?;
            tr.time("fault.ckpt_decode", || {
                Checkpoint::decode(&stored).map(drop)
            })
            .map_err(err("checkpoint decode"))?;
        }
        Ok(())
    };
    for (r, round) in sched.rounds.iter().enumerate() {
        let rd = tr.begin("round");
        if checkpoints(w) {
            checkpoint_cut(r as u32, &complexes, tr, &mut n)?;
        }
        let mut payloads = Vec::new();
        for (_, members) in &round.groups {
            for m in &members[1..] {
                let ms = complexes.remove(m).ok_or("merge member missing")?;
                let payload = tr.time("complex.encode", || wire::serialize(&ms));
                n.add("complex.encode_mb", payload.len() as f64 / MIB);
                n.add("vmpi.ship_mb", payload.len() as f64 / MIB);
                payloads.push(payload);
            }
        }
        // every shipped complex crosses a real 2-rank universe once
        let received = tr.time("vmpi.ship", || {
            Universe::run(2, |rank| {
                if rank.rank() == 1 {
                    for (i, p) in payloads.iter().enumerate() {
                        rank.send(0, i as u32, p.clone()).expect("send");
                    }
                    Vec::new()
                } else {
                    (0..payloads.len())
                        .map(|i| rank.recv(1, i as u32).expect("recv"))
                        .collect()
                }
            })
            .swap_remove(0)
        });
        let mut received = received.into_iter();
        for (root_slot, members) in &round.groups {
            let mut incoming = Vec::with_capacity(members.len() - 1);
            for _ in &members[1..] {
                let payload = received.next().ok_or("a shipped payload went missing")?;
                incoming.push(
                    tr.time("complex.decode", || wire::deserialize(&payload))
                        .map_err(err("wire decode"))?,
                );
            }
            let ms = complexes.get_mut(root_slot).ok_or("merge root missing")?;
            let g = tr
                .time("complex.glue", || glue_all(ms, &incoming, &decomp))
                .map_err(err("glue"))?;
            n.add("complex.glued_nodes", g.matched_nodes as f64);
            simplify("complex.resimplify", ms, tr, &mut n)?;
        }
        tr.end(rd);
    }

    // ---- segmentation resolution: the serial form of the pointer jumping ----
    if segment {
        n.add("segment.forwards", pending.len() as f64);
        let rounds = tr.time("segment.resolve", || {
            let mut owned = ForwardMap::new();
            for &(dead, target) in &pending {
                owned.insert(dead, target);
            }
            let mut rounds = 0u32;
            loop {
                let lookup: HashMap<u64, u64> = owned
                    .sorted_entries()
                    .into_iter()
                    .filter(|&(_, t)| t != DRAIN_ADDR)
                    .filter_map(|(_, t)| owned.get(t).map(|next| (t, next)))
                    .collect();
                rounds += 1;
                if owned.jump_pass(&lookup) == 0 {
                    break;
                }
            }
            for seg in segs.values_mut() {
                let rm: Vec<u64> = seg.mins.iter().map(|&a| owned.resolve(a)).collect();
                let rx: Vec<u64> = seg.maxs.iter().map(|&a| owned.resolve(a)).collect();
                seg.apply_resolution(&rm, &rx);
            }
            rounds
        });
        n.add("segment.jump_rounds", rounds as f64);
    }

    // ---- hierarchy recording ----
    let mut hierarchies = Vec::new();
    if w.hierarchy {
        let rp = ReplayParams {
            max_new_arcs: sp.max_new_arcs,
            max_parallel_arcs: Some(2),
        };
        for s in &sched.outputs {
            let ms = complexes.get(s).ok_or("output slot missing")?;
            let h = tr
                .time("hierarchy.record", || {
                    hierarchy::record(ms, rp, Some(hierarchy::region_sizes(segs.values())))
                })
                .map_err(err("hierarchy record"))?;
            let records = h.difference.len() + h.count.as_ref().map_or(0, |c| c.len());
            n.add("hierarchy.records", records as f64);
            hierarchies.push((*s, h));
        }
    }
    if checkpoints(w) {
        checkpoint_cut(sched.rounds.len() as u32, &complexes, tr, &mut n)?;
    }

    // ---- write: encode, then one keyed collective write per file ----
    // (path, key of each payload: output slot or block id, payloads,
    // the count its size belongs to)
    let wr = tr.begin("write");
    let slots: Vec<u32> = sched.outputs.clone();
    let payloads: Vec<_> = slots
        .iter()
        .map(|s| tr.time("complex.encode", || wire::serialize(&complexes[s])))
        .collect();
    let mut files = vec![(out.to_path_buf(), slots, payloads, "complex.encode_mb")];
    if segment {
        let payloads = segs
            .values()
            .map(|seg| tr.time("segment.encode", || segwire::serialize(seg)))
            .collect();
        let blocks = segs.keys().copied().collect();
        files.push((seg_output_path(out), blocks, payloads, "segment.seg_mb"));
    }
    if w.hierarchy {
        let payloads = hierarchies
            .iter()
            .map(|(_, h)| tr.time("hierarchy.encode", || hwire::serialize(h)))
            .collect();
        let slots = hierarchies.iter().map(|(s, _)| *s).collect();
        files.push((msh_output_path(out), slots, payloads, "hierarchy.msh_mb"));
    }
    for (path, keys, payloads, size_count) in &files {
        let mb = payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / MIB;
        n.add(size_count, mb);
        n.add("vmpi.write_mb", mb);
        // every rank contributes the payloads of the slots or blocks it owns
        let results = tr.time("vmpi.write", || {
            Universe::run(RANKS as usize, |rank| {
                let mine = |i: &usize| assign.rank_of(keys[*i]) as usize == rank.rank();
                let p: Vec<_> = (0..keys.len())
                    .filter(mine)
                    .map(|i| payloads[i].clone())
                    .collect();
                let k: Vec<u64> = (0..keys.len())
                    .filter(mine)
                    .map(|i| keys[i] as u64)
                    .collect();
                collective_write_blocks_keyed(rank, path, &p, &k).map(drop)
            })
        });
        for r in results {
            r.map_err(err("collective write"))?;
        }
    }
    tr.end(wr);
    tr.end(root);
    Ok(n)
}

/// Spans that are not part of one fault-free pipeline pass: the
/// stand-alone trace (repeated inside `complex.from_gradient`) and the
/// checkpoint layer (the in-process comparison run has it off).
fn outside_pipeline(span: &str) -> bool {
    span == "morse.trace" || span.starts_with("fault.")
}

/// Time `f` `repeats` times.
fn repeat<T>(repeats: usize, mut f: impl FnMut() -> Res<T>) -> Res<(Vec<f64>, T)> {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = f()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    Ok((secs, last.expect("at least one repeat")))
}

/// The top-level phases of a `RunReport`: each second of a run should
/// belong to exactly one of them (`glue` and `resimplify` nest inside
/// `merge_round[k]`, everything nests inside `total`).
fn phase_sum(rank0: &morse_smale_parallel::telemetry::RankReport) -> f64 {
    rank0
        .phases
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "total" | "glue" | "resimplify"))
        .map(|(_, s)| *s)
        .sum()
}

fn compare(a: &Path, b: &Path, failed: &mut u64) -> Res<()> {
    if let Some(at) = child::first_difference(a, b).map_err(err("comparing outputs"))? {
        *failed += 1;
        println!(
            "FAILED: {} differs from {} at byte {at}",
            a.display(),
            b.display()
        );
    }
    Ok(())
}

/// Sum of each span name's seconds, one map per walk.
type WalkSums = Vec<BTreeMap<&'static str, f64>>;

fn series(per_walk: &WalkSums, span: &str) -> Vec<f64> {
    per_walk
        .iter()
        .filter_map(|s| s.get(span).copied())
        .collect()
}

struct Layers {
    metrics: Vec<Metric>,
}

impl Layers {
    /// Every declared metric the walks measured directly: `<span>_s` is
    /// the median over the walks of span `<span>`, and a count goes by
    /// its own name.
    fn from_walks(per_walk: &WalkSums, counts: &Counts) -> Layers {
        let mut l = Layers {
            metrics: Vec::new(),
        };
        for d in PER_LAYER.iter() {
            if let Some(&v) = counts.0.get(d.name) {
                l.exact(d.name, v);
            } else if let Some(span) = d.name.strip_suffix("_s") {
                l.timed(d.name, &series(per_walk, span));
            }
        }
        l
    }

    fn timed(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.metrics
                .push(Metric::new(name, Stat::median_of(samples)));
        }
    }

    fn exact(&mut self, name: &'static str, v: f64) {
        self.metrics.push(Metric::new(name, Stat::exact(v)));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.stat.value)
    }
}

fn trace_compute(
    w: &'static Workload,
    seed: u64,
    ctx: &Ctx,
    work: &Path,
    tr: &mut Tracer,
) -> Res<(Layers, u64, u64)> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let dims = dims_of(w);
    let input = work.join("input.raw");
    let f = field(w, seed);
    write_raw(&input, &f, DTYPE).map_err(err("writing the input"))?;
    let file_input = Input::File {
        path: input.clone(),
        dims,
        dtype: DTYPE,
    };

    // ---- the walks ----
    let walk_out = work.join("walk.msc");
    let mut per_walk = WalkSums::new();
    let mut counts = Counts::default();
    for _ in 0..WALKS {
        let mark = tr.mark();
        counts = walk_compute(w, &input, &walk_out, tr)?;
        per_walk.push(tr.sums_since(mark));
        attempted += 1;
    }
    let mut l = Layers::from_walks(&per_walk, &counts);
    let build: Vec<f64> = per_walk
        .iter()
        .map(|s| s["complex.from_gradient"] - s["morse.trace"])
        .collect();
    l.timed("complex.build_s", &build);
    let rate = |l: &mut Layers, name: &'static str, count: &str, time: &str| {
        if let (Some(&c), Some(t)) = (counts.0.get(count), l.value(time)) {
            l.exact(name, c / t / 1e6);
        }
    };
    rate(
        &mut l,
        "morse.gradient_mcells_per_s",
        "morse.cells",
        "morse.gradient_s",
    );
    rate(
        &mut l,
        "morse.trace_msteps_per_s",
        "morse.arc_steps",
        "morse.trace_s",
    );
    rate(
        &mut l,
        "segment.label_mvox_per_s",
        "segment.voxels",
        "segment.label_s",
    );
    let walk_sums: Vec<f64> = per_walk
        .iter()
        .map(|s| {
            s.iter()
                .filter(|(k, _)| k.contains('.') && !outside_pipeline(k))
                .map(|(_, v)| *v)
                .sum()
        })
        .collect();
    l.timed("core.walk_sum_s", &walk_sums);

    // ---- the program's own serial run, in-process ----
    let inproc_out = work.join("inproc.msc");
    let (plain_s, plain) = repeat(INPROC_REPEATS, || {
        run_parallel(
            &file_input,
            1,
            w.blocks,
            &params(w, false, false, false),
            Some(&inproc_out),
        )
        .map_err(err("run_parallel"))
    })?;
    attempted += INPROC_REPEATS as u64;
    compare(&walk_out, &inproc_out, &mut failed)?;
    if w.hierarchy {
        compare(
            &seg_output_path(&walk_out),
            &seg_output_path(&inproc_out),
            &mut failed,
        )?;
        compare(
            &msh_output_path(&walk_out),
            &msh_output_path(&inproc_out),
            &mut failed,
        )?;
    }
    let inproc = Stat::median_of(&plain_s).value;
    l.exact(
        "core.walk_gap_frac",
        1.0 - l.value("core.walk_sum_s").unwrap_or(0.0) / inproc,
    );
    // the last repeat's report against the last repeat's wall
    let phases = phase_sum(&plain.telemetry.ranks[0]);
    l.exact("core.phase_sum_s", phases);
    l.exact(
        "core.unattributed_frac",
        1.0 - phases / plain_s[INPROC_REPEATS - 1],
    );
    l.exact(
        "telemetry.report_kb",
        plain.telemetry.to_json().pretty().len() as f64 / 1024.0,
    );
    drop(plain);

    // ---- what watching costs ----
    let (traced_s, _) = repeat(INPROC_REPEATS, || {
        run_parallel(
            &file_input,
            1,
            w.blocks,
            &params(w, false, true, false),
            Some(&inproc_out),
        )
        .map(drop)
        .map_err(err("run_parallel --trace"))
    })?;
    l.exact(
        "telemetry.trace_overhead_frac",
        Stat::median_of(&traced_s).value / inproc - 1.0,
    );
    let (checked_s, _) = repeat(1, || {
        run_parallel(
            &file_input,
            1,
            w.blocks,
            &params(w, false, false, true),
            Some(&inproc_out),
        )
        .map(drop)
        .map_err(err("run_parallel --check"))
    })?;
    l.exact("oracle.check_overhead_frac", checked_s[0] / inproc - 1.0);

    // ---- the second copy of the algorithm: 64 virtual ranks, radix 8 ----
    let sim = SimParams {
        plan: MergePlan::rounds(vec![8, 8]),
        decomp: if w.adaptive {
            DecompMode::Adaptive
        } else {
            DecompMode::Uniform
        },
        segment: w.hierarchy,
        ..SimParams::default()
    };
    let (sim_s, _) = repeat(1, || {
        simulate(&f, 64, &sim).map(drop).map_err(err("simulate"))
    })?;
    l.exact("core.sim_s", sim_s[0]);

    // ---- a 2-rank universe running nothing ----
    let (spawn_s, _) = repeat(50, || {
        Universe::run(RANKS as usize, |_| ());
        Ok(())
    })?;
    l.timed("vmpi.spawn_s", &spawn_s);

    // ---- child against in-process: process start, arg parse, report write ----
    let run_child = |ranks: u32| -> Res<f64> {
        let c = child::run(
            &ctx.msc,
            &w.compute_args(ranks, false, "input.raw", "child.msc"),
            work,
            &work.join("compute.log"),
        )
        .map_err(err("msc compute"))?;
        if !c.success {
            return Err("msc compute exited non-zero (see compute.log)".into());
        }
        Ok(c.wall_s)
    };
    let (mut serial, mut wall) = (Vec::new(), Vec::new());
    for _ in 0..INPROC_REPEATS {
        serial.push(run_child(1)?);
        wall.push(run_child(RANKS)?);
        attempted += 2;
        compare(&work.join("child.msc"), &inproc_out, &mut failed)?;
    }
    let (serial, wall) = (Stat::median_of(&serial).value, Stat::median_of(&wall).value);
    l.exact("core.proc_overhead_s", serial - inproc);
    l.exact("core.par_eff_2", serial / (RANKS as f64 * wall));
    Ok((l, attempted, failed))
}

fn trace_serve(
    w: &'static Workload,
    seed: u64,
    ctx: &Ctx,
    work: &Path,
    tr: &mut Tracer,
) -> Res<(Layers, u64, u64)> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    // the artifacts the server would be given, written by the program's
    // own pipeline in-process
    let input = work.join("input.raw");
    write_raw(&input, &field(w, seed), DTYPE).map_err(err("writing the input"))?;
    let served = work.join("served.msc");
    run_parallel(
        &Input::File {
            path: input,
            dims: dims_of(w),
            dtype: DTYPE,
        },
        RANKS,
        w.blocks,
        &params(w, false, false, false),
        Some(&served),
    )
    .map_err(err("run_parallel"))?;
    let script = script::generate(seed, WALKS);
    let config = ServeConfig {
        cache_capacity: SERVE_CACHE,
        ..ServeConfig::default()
    };

    let (mut hit_us, mut miss_ms, mut materialize_ms, mut replayed_per_s) =
        (vec![], vec![], vec![], vec![]);
    let mut per_walk = WalkSums::new();
    let mut hit_frac = 0.0;
    for pass in &script.passes {
        let mark = tr.mark();
        let root = tr.begin("walk");
        let dataset = tr
            .time("core.serve_load", || load_dataset("served", &served))
            .map_err(err("load_dataset"))?;
        // the hierarchy codec alone, on the same bytes the load just read
        let msh = msh_output_path(&served);
        for entry in read_footer(&msh).map_err(err("msh footer"))? {
            let payload = read_block_payload(&msh, &entry).map_err(err("msh payload"))?;
            tr.time("hierarchy.decode", || {
                hwire::deserialize(&payload).map(drop)
            })
            .map_err(err("msh decode"))?;
        }
        // replay alone: every miss threshold of this pass, materialized directly
        let (base, h) = (&dataset.bases[0], &dataset.hierarchies[0]);
        for r in pass.iter().filter(|r| r.miss) {
            let t: f32 = threshold_of(r)?;
            let id = tr.begin("hierarchy.materialize");
            let m = h.materialize(base, hierarchy::Ordering::Difference, t);
            let secs = tr.end(id);
            let m = m.map_err(err("materialize"))?;
            materialize_ms.push(secs * 1e3);
            replayed_per_s.push(m.applied as f64 / secs);
        }
        // the same script the TCP client sends, answered in-process
        let core = ServerCore::new(vec![dataset], config);
        let answer = |r: &Request, tr: &mut Tracer, failed: &mut u64| {
            let id = tr.begin("core.handle_line");
            let (reply, _) = core.handle_line(&r.line);
            let secs = tr.end(id);
            if !reply.contains("\"ok\":true") {
                *failed += 1;
                println!("FAILED: {} answered {reply}", r.line);
            }
            secs
        };
        for r in &script.warmup {
            answer(r, tr, &mut failed);
        }
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        for r in pass {
            let secs = answer(r, tr, &mut failed);
            attempted += 1;
            if r.miss {
                misses.push(secs * 1e3);
            } else {
                hits.push(secs * 1e6);
            }
        }
        hit_us.push(percentile(&hits, 50));
        miss_ms.push(median(&misses));
        let report = core.report("walk");
        let (h, m) = (
            report.counter_total("serve_hits"),
            report.counter_total("serve_misses"),
        );
        hit_frac = h as f64 / (h + m).max(1) as f64;
        tr.end(root);
        per_walk.push(tr.sums_since(mark));
    }
    let mut l = Layers::from_walks(&per_walk, &Counts::default());
    l.timed("hierarchy.materialize_ms", &materialize_ms);
    let fastest = replayed_per_s.iter().copied().fold(0.0, f64::max);
    l.exact("hierarchy.replayed_per_s", fastest);
    l.timed("core.serve_hit_us", &hit_us);
    l.timed("core.serve_miss_ms", &miss_ms);
    l.exact("core.cache_hit_frac", hit_frac);

    // the same hot requests over TCP, for what the transport adds
    let mut server = Server::start(ctx, work, "served.msc").map_err(err("msc serve"))?;
    for r in &script.warmup {
        server.request(&r.line).map_err(err("warm-up"))?;
    }
    let hot: Vec<Request> = script.passes[0]
        .iter()
        .filter(|r| !r.miss)
        .take(60)
        .cloned()
        .collect();
    let p = drive_pass(&mut server, &hot).map_err(err("tcp pass"))?;
    server.shutdown().map_err(err("shutdown"))?;
    attempted += hot.len() as u64;
    failed += p
        .replies
        .iter()
        .filter(|r| !r.contains("\"ok\":true"))
        .count() as u64;
    let tcp_p50 = percentile(&p.latencies_ms, 50);
    l.exact(
        "core.serve_tcp_overhead_ms",
        tcp_p50 - l.value("core.serve_hit_us").unwrap_or(0.0) / 1e3,
    );
    Ok((l, attempted, failed))
}

fn threshold_of(r: &Request) -> Res<f32> {
    let at = r.line.find("\"t\":").ok_or("request without a threshold")? + 4;
    let end = r.line[at..]
        .find([',', '}'])
        .ok_or("unterminated threshold")?
        + at;
    r.line[at..end].parse().map_err(err("threshold"))
}

pub fn run(w: &'static Workload, seed: u64, seconds: u32, ctx: &Ctx) -> io::Result<Outcome> {
    let work = WorkDir::create(ctx, w.name)?;
    let mut host = HostProbe::new();
    host.tick();
    let mut tr = Tracer::new();
    let traced = match w.kind {
        Kind::Compute => trace_compute(w, seed, ctx, &work.0, &mut tr),
        Kind::Serve => trace_serve(w, seed, ctx, &work.0, &mut tr),
    };
    let (layers, attempted, failed) = traced.map_err(io::Error::other)?;
    host.tick();
    let dir = ctx.target.join("trace");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.spans.json", w.name)),
        tr.to_json(w.name),
    )?;
    Ok(Outcome {
        workload: w.name,
        seed,
        seconds,
        trace: true,
        attempted,
        failed,
        metrics: layers.metrics,
        host: host.to_json(),
    })
}
