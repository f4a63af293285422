//! Regenerate the paper's figures and tables (DESIGN.md §5 indexes
//! them; EXPERIMENTS.md reads them against the paper).
//!
//! ```text
//! cargo run --release -p msp-bench --bin figures                     # all
//! cargo run --release -p msp-bench --bin figures -- fig9_jet fig10_rt
//! MSP_SCALE=small cargo run --release -p msp-bench --bin figures     # smoke
//! ```
//!
//! Each figure prints its table and writes it to `results/<name>.txt`,
//! headed by a line naming the scale and the commit, beside its
//! `results/<name>.telemetry.json` (`balance_sweep` writes
//! `results/BENCH_balance.json` instead). A figure that asserts a gate
//! panics when the gate fails, so a run doubles as a check.

use msp_bench::{
    efficiency, emit_doc, emit_series, fmt_bytes, results_dir, simulate, Out, Scale, Table,
};
use msp_complex::query;
use msp_core::{
    feature_weights, run_parallel, DecompMode, FaultConfig, Input, MergePlan, PipelineParams,
    RunResult,
};
use msp_fault::FaultPlan;
use msp_grid::par::available_threads;
use msp_grid::{Decomposition, Dims, Layout, LayoutError};
use msp_telemetry::{aggregate, Agg, Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A figure: runs at a scale and writes its table.
type Figure = fn(Scale, &mut Out);

/// Every figure, by the stem of its `results/` files, in running order.
const FIGURES: &[(&str, Figure)] = &[
    ("fig4_stability", fig4_stability),
    ("fig5_workloads", fig5_workloads),
    ("fig6_sweep", fig6_sweep),
    ("table1_merge_cost", table1_merge_cost),
    ("table2_strategy", table2_strategy),
    ("fig9_jet", fig9_jet),
    ("fig10_rt", fig10_rt),
    ("ablation_blocking", ablation_blocking),
    ("fault_sweep", fault_sweep),
    ("balance_sweep", balance_sweep),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| FIGURES.iter().any(|(name, _)| name == a);
    let unknown: Vec<&String> = args.iter().filter(|a| !known(a)).collect();
    if !unknown.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown figure(s) {unknown:?}; known: {}", names.join(" "));
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    let stamp = format!(
        "# scale {}, commit {}",
        format!("{scale:?}").to_lowercase(),
        git_describe()
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create the results directory");
    let started = Instant::now();
    for (name, figure) in FIGURES {
        if !args.is_empty() && !args.iter().any(|a| a == name) {
            continue;
        }
        let mut out = Out::default();
        out.line(&stamp);
        figure(scale, &mut out);
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, &out.0).expect("write the figure's table");
        println!("table written to {}\n", path.display());
    }
    println!("figures done in {:.1} s", started.elapsed().as_secs_f64());
}

/// `git describe --always --dirty` of the working directory, or
/// `unknown` outside a checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Space-joined merge radices, the way the tables print a plan.
fn radices(r: &[u32]) -> String {
    r.iter().map(u32::to_string).collect::<Vec<_>>().join(" ")
}

/// Fig 4 — stability of the MS complex under blocking: the same
/// hydrogen-like field computed with 1, 8 and 64 blocks, before and after
/// 1% persistence simplification, with the paper's feature filter
/// (2-saddle→maximum arcs above a value threshold).
fn fig4_stability(scale: Scale, out: &mut Out) {
    let n = scale.pick(33u32, 65, 129);
    let input = Input::Memory(Arc::new(msp_synth::hydrogen(n)));
    // the paper filters nodes with value > 14.5 on its byte scale
    let feature_value = 255.0 * 14.5 / 25.0;

    out.line(format!(
        "Fig 4 analogue: hydrogen-like {n}^3, feature filter value > {feature_value:.0}\n"
    ));
    let t = Table::new(
        out,
        &[
            "blocks",
            "raw nodes",
            "raw arcs",
            "1% nodes",
            "1% arcs",
            "stable max",
            "filaments",
        ],
    );
    let mut runs = Vec::new();
    for blocks in [1u32, 8, 64] {
        let run = |persistence_frac, plan| {
            let params = PipelineParams {
                persistence_frac,
                plan,
                ..Default::default()
            };
            run_parallel(&input, blocks.min(8), blocks, &params, None).unwrap()
        };
        // finest scale, unmerged: shows the boundary-artifact bloat
        let raw = run(0.0, MergePlan::none());
        let raw_nodes: u64 = raw.outputs.iter().map(|c| c.n_live_nodes()).sum();
        let raw_arcs: u64 = raw.outputs.iter().map(|c| c.n_live_arcs()).sum();
        // 1% simplified, fully merged: artifacts resolve
        let merged = run(0.01, MergePlan::full_merge(blocks));
        let ms = &merged.outputs[0];
        let stable = query::nodes_by_index_above(ms, 3, feature_value).len();
        let filaments = query::filament_subgraph(ms, feature_value).len();
        t.row(
            out,
            &[
                format!("{blocks}"),
                format!("{raw_nodes}"),
                format!("{raw_arcs}"),
                format!("{}", ms.n_live_nodes()),
                format!("{}", ms.n_live_arcs()),
                format!("{stable}"),
                format!("{filaments}"),
            ],
        );
        runs.push((format!("raw_b{blocks}"), raw.telemetry.to_json()));
        runs.push((format!("merged_b{blocks}"), merged.telemetry.to_json()));
    }
    emit_series("fig4_stability", "run_series", runs);
    out.line(
        "\nExpected (paper §V-A): raw counts inflate with blocking (spurious\n\
         zero-persistence boundary nodes); after 1% simplification + full\n\
         merge, the node counts converge and the filtered features (stable\n\
         maxima, filament arcs) are identical across blockings.",
    );
}

/// Fig 5 — the synthetic complexity family: the sinusoidal dataset at
/// three complexities and the resulting MS-complex population (the
/// quantitative counterpart of the paper's volume renderings).
fn fig5_workloads(scale: Scale, out: &mut Out) {
    let size = scale.pick(33u32, 65, 129);
    out.line(format!(
        "Fig 5 analogue: sinusoid {size}^3, complexity sweep\n"
    ));
    let t = Table::new(
        out,
        &[
            "cmplx", "expected", "minima", "1-sad", "2-sad", "maxima", "arcs", "out size",
        ],
    );
    let mut sims = Vec::new();
    for c in [4u32, 8, 16] {
        let field = Arc::new(msp_synth::sinusoid(size, c));
        let r = simulate(&field, 1, MergePlan::none());
        // census from a serial run (one block)
        let params = PipelineParams {
            persistence_frac: 0.01,
            ..Default::default()
        };
        let serial = run_parallel(&Input::Memory(field), 1, 1, &params, None).unwrap();
        let census = serial.outputs[0].node_census();
        t.row(
            out,
            &[
                format!("{c}"),
                format!("{}", msp_synth::sinusoid::expected_extrema(c)),
                format!("{}", census[0]),
                format!("{}", census[1]),
                format!("{}", census[2]),
                format!("{}", census[3]),
                format!("{}", r.live_arcs),
                fmt_bytes(r.output_bytes),
            ],
        );
        sims.push((format!("complexity{c}"), r.to_json()));
    }
    emit_series("fig5_workloads", "sim_series", sims);
    out.line(
        "\nDoubling the complexity per side multiplies the feature count by\n\
         ~8 (c^3 growth) while the grid size stays fixed — the workload\n\
         axis of Fig 6's horizontal panels.",
    );
}

/// Fig 6 — compute time, merge time and output size as a function of
/// process count, data size and data complexity (3×3 log-log panels).
/// Each (complexity, size) pair is a panel line; rows sweep the virtual
/// rank count under two rounds of radix-8 merging, as in the paper's
/// test. The rows are CSV so the series can be plotted directly.
fn fig6_sweep(scale: Scale, out: &mut Out) {
    // paper: sizes 128..512 per side, complexity 4..64 per side,
    // processes 64..4096, two rounds of radix-8 (output = P/64 blocks).
    // workstation scaling: smaller sizes, same structure.
    let sizes: &[u32] = scale.pick(&[17, 33], &[33, 49, 65], &[65, 97, 129]);
    let ranks: &[u32] = scale.pick(&[64, 128], &[64, 128, 256, 512], &[64, 128, 256, 512, 1024]);

    out.line("Fig 6 analogue: two rounds of radix-8 merging");
    out.line(
        "columns: complexity,points_per_side,ranks,voxels_per_rank,compute_s,merge_s,output_bytes\n",
    );
    out.line("complexity,size,ranks,voxels_per_rank,compute_s,merge_s,output_bytes");
    let mut sims = Vec::new();
    for c in [2u32, 4, 8] {
        for &n in sizes {
            let field = msp_synth::sinusoid(n, c);
            for &p in ranks {
                let r = simulate(&field, p, MergePlan::rounds(vec![8, 8]));
                out.line(format!(
                    "{c},{n},{p},{},{:.6},{:.6},{}",
                    field.dims().n_verts() / p as u64,
                    r.compute_s,
                    r.merge_s,
                    r.output_bytes
                ));
                sims.push((format!("c{c}_n{n}_p{p}"), r.to_json()));
            }
        }
    }
    emit_series("fig6_sweep", "sim_series", sims);
    out.line(
        "\nExpected shapes (paper §VI-B): compute time scales ~1/P and with\n\
         size^3, independent of complexity; merge time is independent of\n\
         size but grows with complexity; output size grows slowly with P\n\
         (boundary artifacts) and is dominated by geometry at low\n\
         complexity, by nodes/arcs at high complexity.",
    );
}

/// Table I — the cost of each merge round: merging 2048 blocks with the
/// cumulative plans `[4]`, `[4,8]`, `[4,8,8]`, `[4,8,8,8]`, reporting
/// total merge time and the time of the final round. The paper's point:
/// later rounds cost more, because complexes grow and gravitate to fewer
/// processes.
fn table1_merge_cost(scale: Scale, out: &mut Out) {
    // paper: 2048 blocks across 2048 processes; full plan [4,8,8,8]
    let blocks = scale.pick(256u32, 2048, 2048);
    let size = scale.pick(33u32, 49, 97);
    let complexity = scale.pick(4u32, 8, 16);
    let full: Vec<u32> = if blocks == 2048 {
        vec![4, 8, 8, 8]
    } else {
        MergePlan::full_merge(blocks).radices
    };

    out.line(format!(
        "Table I analogue: cost of merging {blocks} blocks (sinusoid {size}^3, complexity {complexity})\n"
    ));
    let field = msp_synth::sinusoid(size, complexity);
    let t = Table::new(
        out,
        &["rounds", "radices", "total merge (s)", "final round (s)"],
    );
    let mut sims = Vec::new();
    for upto in 1..=full.len() {
        let r = simulate(&field, blocks, MergePlan::rounds(full[..upto].to_vec()));
        let rounds_total: f64 = r.rounds.iter().map(|x| x.round_s).sum();
        let last = r.rounds.last().unwrap();
        t.row(
            out,
            &[
                format!("{upto}"),
                radices(&full[..upto]),
                format!("{:.4}", rounds_total),
                format!("{:.4}", last.round_s),
            ],
        );
        sims.push((format!("rounds{upto}"), r.to_json()));
    }
    emit_series("table1_merge_cost", "sim_series", sims);
    out.line(
        "\nReading the table top to bottom, the final-round column gives the\n\
         per-round cost of rounds 1..n: merging gets more expensive as it\n\
         progresses (larger complexes, fewer processes) — Table I's trend.",
    );
}

/// Table II — merge strategies for a full merge of 256 blocks: the same
/// reduction reached through different round/radix schedules. The
/// paper's finding: fewer rounds with higher radices win, and when a
/// smaller radix is unavoidable it should come early.
fn table2_strategy(scale: Scale, out: &mut Out) {
    let blocks = 256u32;
    let size = scale.pick(33u32, 49, 97);
    let complexity = scale.pick(4u32, 8, 16);
    let field = msp_synth::sinusoid(size, complexity);

    // the paper's five strategies for 256 -> 1
    let strategies: [&[u32]; 5] = [
        &[4, 8, 8],
        &[8, 8, 4],
        &[4, 4, 2, 8],
        &[4, 4, 4, 4],
        &[2, 2, 2, 2, 2, 2, 2, 2],
    ];

    out.line(format!(
        "Table II analogue: full merge of {blocks} blocks (sinusoid {size}^3, complexity {complexity})\n"
    ));
    let t = Table::new(out, &["rounds", "radices", "compute+merge (s)"]);
    let mut sims = Vec::new();
    for radix in strategies {
        let plan = MergePlan::rounds(radix.to_vec());
        assert_eq!(plan.output_blocks(blocks), 1);
        let r = simulate(&field, blocks, plan);
        t.row(
            out,
            &[
                format!("{}", radix.len()),
                radices(radix),
                format!("{:.4}", r.compute_s + r.merge_s),
            ],
        );
        sims.push((radices(radix).replace(' ', "-"), r.to_json()));
    }
    emit_series("table2_strategy", "sim_series", sims);
    out.line(
        "\nExpected ordering (paper §VI-C2): [4 8 8] <= [8 8 4] <= 4-round\n\
         plans <= eight rounds of radix-2; differences are small until the\n\
         round count grows.",
    );
}

/// Fig 9 — strong scaling on the jet mixture-fraction dataset: overall
/// time and the four components (read, compute, merge, write) across a
/// range of process counts, with a full merge using radix-8-preferred
/// plans — the paper's worst-case configuration.
fn fig9_jet(scale: Scale, out: &mut Out) {
    // paper: 768 x 896 x 512, 32..8192 procs. Keep the aspect ratio.
    let s = scale.pick(16u32, 4, 2);
    let dims = Dims::new(768 / s, 896 / s, 512 / s);
    let ranks: &[u32] = scale.pick(
        &[8, 32, 128],
        &[32, 128, 512, 2048],
        &[32, 128, 512, 2048, 8192],
    );
    let field = msp_synth::jet(dims, 160, 2012);
    out.line(format!(
        "Fig 9 analogue: jet-like {}x{}x{} ({}), full merge, radix-8-preferred\n",
        dims.nx,
        dims.ny,
        dims.nz,
        fmt_bytes(dims.n_verts() * 4)
    ));
    let t = Table::new(
        out,
        &[
            "ranks",
            "vox/rank",
            "read(s)",
            "compute(s)",
            "merge(s)",
            "write(s)",
            "total(s)",
            "eff(%)",
            "out size",
            "last in",
        ],
    );
    let mut sims = Vec::new();
    let mut base = None;
    for &p in ranks {
        let r = simulate(&field, p, MergePlan::full_merge(p));
        let last_in = r.rounds.last().map_or(0, |x| x.nodes_moved);
        let (p0, t0) = *base.get_or_insert((p, r.total_s));
        t.row(
            out,
            &[
                format!("{p}"),
                format!("{}", dims.n_verts() / p as u64),
                format!("{:.4}", r.read_s),
                format!("{:.4}", r.compute_s),
                format!("{:.4}", r.merge_s),
                format!("{:.4}", r.write_s),
                format!("{:.4}", r.total_s),
                format!("{:.1}", 100.0 * efficiency(p0, t0, p, r.total_s)),
                fmt_bytes(r.output_bytes),
                format!("{last_in}"),
            ],
        );
        sims.push((format!("p{p}"), r.to_json()));
    }
    emit_series("fig9_jet", "sim_series", sims);
    out.line(
        "\nlast in: live nodes the final round's root receives from its\n\
         remote members (the merge work that grows with rank count).\n\
         \nExpected shape (paper §VI-D1): compute dominates at small P and\n\
         falls ~1/P; merge time grows at large P and takes over; efficiency\n\
         decays to tens of percent at the largest counts (paper: 35% at\n\
         2048, 13% at 8192 for a full merge).",
    );
}

/// Fig 10 — strong scaling on the Rayleigh-Taylor density dataset:
/// overall time and compute+merge time, with a *partial* merge of two
/// radix-8 rounds — the paper's realistic large-scale configuration
/// (their largest runs: 4096..32768 processes on a 1152^3 grid).
fn fig10_rt(scale: Scale, out: &mut Out) {
    let n = scale.pick(49u32, 145, 289); // paper: 1152 per side
    let ranks: &[u32] = scale.pick(
        &[64, 256],
        &[64, 256, 1024, 4096],
        &[512, 2048, 8192, 32768],
    );
    let field = msp_synth::rayleigh_taylor(n, 48, 2004);
    let voxels = field.dims().n_verts();
    out.line(format!(
        "Fig 10 analogue: RT-like {n}^3 ({}), partial merge = two rounds of radix-8\n",
        fmt_bytes(voxels * 4)
    ));
    let t = Table::new(
        out,
        &[
            "ranks",
            "vox/rank",
            "compute+merge(s)",
            "total(s)",
            "c+m eff(%)",
            "total eff(%)",
            "out blocks",
            "out size",
        ],
    );
    let mut sims = Vec::new();
    let mut base = None;
    for &p in ranks {
        let r = simulate(&field, p, MergePlan::rounds(vec![8, 8]));
        let cm = r.compute_s + r.merge_s;
        let (p0, cm0, t0) = *base.get_or_insert((p, cm, r.total_s));
        t.row(
            out,
            &[
                format!("{p}"),
                format!("{}", voxels / p as u64),
                format!("{:.4}", cm),
                format!("{:.4}", r.total_s),
                format!("{:.1}", 100.0 * efficiency(p0, cm0, p, cm)),
                format!("{:.1}", 100.0 * efficiency(p0, t0, p, r.total_s)),
                format!("{}", r.output_blocks),
                fmt_bytes(r.output_bytes),
            ],
        );
        sims.push((format!("p{p}"), r.to_json()));
    }
    emit_series("fig10_rt", "sim_series", sims);
    out.line(
        "\nExpected shape (paper §VI-D2): with a partial merge the\n\
         compute+merge time keeps scaling much better than the end-to-end\n\
         time, which is capped by I/O (paper: 66% vs 35% at 32768 procs).",
    );
}

/// Ablations of two design choices:
///
/// 1. **Blocks per process** (paper §IV-A): the decomposition supports
///    more blocks than ranks for load balance, but the paper found one
///    block per process sufficient; the threaded pipeline runs 1, 2 and
///    4 blocks per rank over the same grid.
/// 2. **Boundary-restricted pairing** (paper §IV-C): the restriction
///    creates spurious critical cells, the price of mergeability; they
///    are counted against an unrestricted serial gradient.
fn ablation_blocking(scale: Scale, out: &mut Out) {
    let n = scale.pick(33u32, 65, 97);
    let field = Arc::new(msp_synth::jet(Dims::new(n, n, n / 2 + 1), 96, 11));
    let ranks = 4u32;

    out.line(format!(
        "Ablation 1: blocks per process (jet-like {n}x{n}x{}, {ranks} ranks)\n",
        n / 2 + 1
    ));
    let t = Table::new(
        out,
        &[
            "blocks/rank",
            "blocks",
            "compute max(s)",
            "merge max(s)",
            "total max(s)",
        ],
    );
    let mut runs = Vec::new();
    for bpr in [1u32, 2, 4] {
        let blocks = ranks * bpr;
        let params = PipelineParams {
            persistence_frac: 0.01,
            plan: MergePlan::full_merge(blocks),
            ..Default::default()
        };
        let r = run_parallel(&Input::Memory(field.clone()), ranks, blocks, &params, None).unwrap();
        let max = |f: fn(&msp_telemetry::RankReport) -> f64| {
            r.telemetry.ranks.iter().map(f).fold(0.0, f64::max)
        };
        t.row(
            out,
            &[
                format!("{bpr}"),
                format!("{blocks}"),
                format!(
                    "{:.4}",
                    max(|t| {
                        t.phase_seconds("gradient").unwrap_or(0.0)
                            + t.phase_seconds("trace").unwrap_or(0.0)
                    })
                ),
                format!("{:.4}", max(|t| t.merge_seconds())),
                format!("{:.4}", max(|t| t.phase_seconds("total").unwrap_or(0.0))),
            ],
        );
        runs.push((format!("bpr{bpr}"), r.telemetry.to_json()));
    }
    emit_series("ablation_blocking", "run_series", runs);

    out.line("\nAblation 2: boundary-restriction overhead (spurious critical cells)\n");
    let t = Table::new(out, &["blocks", "critical cells", "overhead vs serial"]);
    let mut serial_count = 0u64;
    for blocks in [1u32, 8, 64] {
        let d = Decomposition::bisect(field.dims(), blocks);
        let total: u64 = d
            .blocks()
            .iter()
            .map(|b| {
                let g = msp_morse::assign_gradient(&field.extract_block(b), &d);
                g.critical_cells()
                    .iter()
                    .filter(|&&c| d.owners(c).as_slice()[0] == b.id)
                    .count() as u64
            })
            .sum();
        if blocks == 1 {
            serial_count = total;
        }
        t.row(
            out,
            &[
                format!("{blocks}"),
                format!("{total}"),
                format!("{:.2}x", total as f64 / serial_count as f64),
            ],
        );
    }
    out.line(
        "\nThe spurious cells are zero-persistence by construction and are\n\
         cancelled during the merge stage — Fig 4 demonstrates full recovery.",
    );
}

/// Fault-tolerance overhead on the Fig-9 jet workload: wall time of the
/// threaded pipeline as the injected crash rate rises from 0 to 10%,
/// then with two fixed crashes of a member that still holds its block,
/// against a checkpoint-free baseline. Every row is the median of
/// `REPEATS` runs after one untimed warm-up, so the rate-0 row measures
/// the cost of checkpointing rather than a cold first run. Every run,
/// the baseline's included, is asserted bit-identical to the warm-up,
/// and each fixed row must recover its member through the deadline
/// (`retries` ≥ 1).
fn fault_sweep(scale: Scale, out: &mut Out) {
    const RANKS: u32 = 8;
    const ROUNDS: &[u32] = &[2, 2, 2]; // 8 blocks -> 1, three cut points
    const REPEATS: usize = 3;
    let s = scale.pick(24u32, 12, 6);
    let dims = Dims::new(768 / s, 896 / s, 512 / s);
    let input = Input::Memory(Arc::new(msp_synth::jet(dims, 160, 2012)));
    out.line(format!(
        "fault sweep: jet-like {}x{}x{}, {} ranks, merge radices {:?}\n",
        dims.nx, dims.ny, dims.nz, RANKS, ROUNDS
    ));

    let deadline = Duration::from_millis(250);
    let base_params = PipelineParams {
        persistence_frac: 0.01,
        plan: MergePlan::rounds(ROUNDS.to_vec()),
        ..Default::default()
    };
    let run = |params: &PipelineParams| {
        run_parallel(&input, RANKS, RANKS, params, None)
            .unwrap_or_else(|e| panic!("fault sweep run failed: {e}"))
    };
    let bytes =
        |r: &RunResult| -> Vec<_> { r.outputs.iter().map(msp_complex::wire::serialize).collect() };
    let reference = bytes(&run(&base_params));
    // median wall time of REPEATS runs, the last run, and whether every
    // run's outputs equal the reference
    let timed = |params: &PipelineParams| {
        let mut walls = Vec::with_capacity(REPEATS);
        let mut identical = true;
        let mut last = None;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let r = run(params);
            walls.push(t0.elapsed().as_secs_f64());
            identical &= bytes(&r) == reference;
            last = Some(r);
        }
        walls.sort_by(f64::total_cmp);
        (walls[REPEATS / 2], last.unwrap(), identical)
    };

    let (base_s, _, base_identical) = timed(&base_params);
    assert!(base_identical, "checkpoint-free baseline runs differ");
    let t = Table::new(
        out,
        &[
            "faults",
            "wall(s)",
            "overhead(%)",
            "crashes",
            "retries",
            "replayed",
            "ckpt bytes",
            "identical",
        ],
    );
    t.row(
        out,
        &[
            "baseline".into(),
            format!("{base_s:.3}"),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "ref".into(),
        ],
    );

    // the seeded rate rows, then two crashes of a member holding a block
    // its root is still to receive: rank 1 in round 1, rank 4 in round 3
    let seeded = |rate: f64| {
        (rate > 0.0)
            .then(|| FaultPlan::seeded_crashes(2012, RANKS as usize, ROUNDS.len() as u32, rate))
    };
    let mut rows: Vec<(String, Option<f64>, Option<FaultPlan>)> = [0.0f64, 0.02, 0.05, 0.10]
        .map(|rate| (format!("{:.0}%", rate * 100.0), Some(rate), seeded(rate)))
        .into();
    for (rank, round) in [(1, 1), (4, 3)] {
        let plan = FaultPlan::new().crash(rank, round);
        rows.push((format!("crash:{rank}@{round}"), None, Some(plan)));
    }
    let mut runs = Vec::new();
    let mut diverged = Vec::new();
    let mut unretried = Vec::new();
    for (label, rate, plan) in rows {
        let params = PipelineParams {
            fault: FaultConfig {
                plan,
                // the rate-0 row checkpoints with no plan
                checkpoint: true,
                deadline,
            },
            ..base_params.clone()
        };
        let (wall_s, r, identical) = timed(&params);
        let overhead = 100.0 * (wall_s - base_s) / base_s;
        let tel = &r.telemetry;
        if !identical {
            diverged.push(label.clone());
        }
        if rate.is_none() && tel.counter_total("retries") == 0 {
            unretried.push(label.clone());
        }
        t.row(
            out,
            &[
                label.clone(),
                format!("{wall_s:.3}"),
                format!("{overhead:+.1}"),
                format!("{}", tel.counter_total("crashes")),
                format!("{}", tel.counter_total("retries")),
                format!("{}", tel.counter_total("rounds_replayed")),
                format!("{}", tel.counter_total("checkpoint_bytes")),
                if identical { "yes" } else { "NO" }.into(),
            ],
        );
        let counter = |key| (key, Json::U64(tel.counter_total(key)));
        runs.push(Json::obj(vec![
            ("row", Json::str(label)),
            ("rate", rate.map_or(Json::Null, Json::F64)),
            ("wall_s", Json::F64(wall_s)),
            ("overhead_pct", Json::F64(overhead)),
            counter("crashes"),
            counter("retries"),
            counter("rounds_replayed"),
            counter("checkpoint_bytes"),
            counter("recovery_ms"),
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
        ("repeats", Json::U64(REPEATS as u64)),
        ("baseline_wall_s", Json::F64(base_s)),
        ("runs", Json::Arr(runs)),
    ]);
    emit_doc("fault_sweep", &doc);
    out.line(format!(
        "\nExpected shape: the rate-0 row is pure checkpoint overhead\n\
         (<15% is the acceptance bar). A crashed rank reloads its own\n\
         checkpoint at the cut and replays the round without waiting\n\
         (retries 0). The seeded rows crash only such ranks: 2% crashes\n\
         none, 5% rank 6 at round 3 (its block left in round 1), 10% adds\n\
         root rank 0 at round 2. The crash:R@K rows crash a member whose\n\
         block its root has yet to receive: the root waits out the {}ms\n\
         deadline and reloads the block from the member's checkpoint\n\
         (retries 1; replayed 2 counts that reload and the member's own),\n\
         so the row pays the deadline in wall time. Every recovered run\n\
         stays bit-identical to the baseline.",
        deadline.as_millis()
    ));
    assert!(
        diverged.is_empty(),
        "recovered runs differ from the baseline in row(s) {diverged:?}"
    );
    assert!(
        unretried.is_empty(),
        "no member was recovered through the deadline in row(s) {unretried:?}"
    );
}

/// Load balance: uniform bisection + contiguous assignment against the
/// adaptive feature-density splitter + LPT assignment (DESIGN.md §14) on
/// the jet-like mixture-fraction field, each laid out by the pipeline's
/// own `Layout::new`.
///
/// Both layouts are costed with the same model, the per-vertex
/// feature-weight integral over each block, so the comparison measures
/// what the decomposition and assignment policies do to the estimated
/// local-stage work per rank. Per-rank loads go through the telemetry
/// `aggregate` (imbalance = max/mean), and three gates hold:
///
/// * the adaptive imbalance is strictly below uniform at every swept
///   rank count (the jet's feature density is skewed);
/// * one real adaptive pipeline run records `assign_cost` counters whose
///   aggregate min/max equal the loads computed here;
/// * on a host with >= 4 CPUs, gradient+trace runs >= 2.5x faster at 4
///   threads than at 1 (skipped, and recorded as such, on smaller hosts).
///
/// Writes `results/BENCH_balance.json` and re-parses it.
fn balance_sweep(scale: Scale, out: &mut Out) {
    const BLOCKS: u32 = 8;
    const RANKS: [u32; 3] = [2, 3, 4];
    let dims = msp_synth::jet::jet_dims(scale.pick(32, 8, 4));
    let modes = scale.pick(40, 160, 160);
    let host = available_threads();

    let field = Arc::new(msp_synth::jet(dims, modes, 2012));
    let weights = feature_weights(&field);
    out.line(format!(
        "balance sweep: jet-like {}x{}x{}, {BLOCKS} blocks, ranks {RANKS:?}, \
         host parallelism {host}\n",
        dims.nx, dims.ny, dims.nz
    ));

    // per-rank loads of a mode's layout, every block costed alike
    let loads = |mode, n| {
        let w = || Ok::<_, LayoutError>(weights.clone());
        let l = Layout::new(dims, mode, &MergePlan::none(), n, BLOCKS, w)
            .unwrap_or_else(|e| panic!("{mode} layout of {BLOCKS} blocks on {n} ranks: {e}"));
        l.assign.loads(&l.decomp.block_costs(&weights), n)
    };
    let agg = |loads: &[u64]| aggregate(&loads.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let agg_json = |a: Agg| {
        Json::obj(vec![
            ("min", Json::F64(a.min)),
            ("mean", Json::F64(a.mean)),
            ("max", Json::F64(a.max)),
            ("imbalance", Json::F64(a.imbalance)),
        ])
    };

    let table = Table::new(
        out,
        &[
            "ranks",
            "uniform_imb",
            "adaptive_imb",
            "uniform_max",
            "adaptive_max",
        ],
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut last_adaptive_loads: Vec<u64> = Vec::new();
    for n in RANKS {
        let uni = agg(&loads(DecompMode::Uniform, n));
        let adaptive_loads = loads(DecompMode::Adaptive, n);
        let ada = agg(&adaptive_loads);
        last_adaptive_loads = adaptive_loads;
        assert!(
            ada.imbalance < uni.imbalance,
            "{n} ranks: adaptive imbalance {:.4} is not strictly below uniform {:.4}",
            ada.imbalance,
            uni.imbalance
        );
        table.row(
            out,
            &[
                format!("{n}"),
                format!("{:.4}", uni.imbalance),
                format!("{:.4}", ada.imbalance),
                format!("{:.0}", uni.max),
                format!("{:.0}", ada.max),
            ],
        );
        rows.push(Json::obj(vec![
            ("ranks", Json::U64(n as u64)),
            ("uniform", agg_json(uni)),
            ("adaptive", agg_json(ada)),
            (
                "adaptive_beats_uniform",
                Json::Bool(ada.imbalance < uni.imbalance),
            ),
        ]));
    }
    out.line("\nadaptive imbalance strictly below uniform at every swept rank count");

    // Cross-check: a real adaptive pipeline run must record per-rank
    // `assign_cost` whose telemetry aggregation matches the loads
    // computed above (same splitter, same LPT, same cost model).
    let check_ranks = RANKS[RANKS.len() - 1];
    let input = Input::Memory(field.clone());
    let adaptive = |threads| PipelineParams {
        persistence_frac: 0.01,
        decomp: DecompMode::Adaptive,
        threads,
        ..Default::default()
    };
    let r = run_parallel(&input, check_ranks, BLOCKS, &adaptive(None), None)
        .unwrap_or_else(|e| panic!("adaptive cross-check run failed: {e}"));
    let stat = r
        .telemetry
        .counter_stats
        .iter()
        .find(|s| s.key == "assign_cost")
        .expect("assign_cost counter aggregated");
    let want_min = *last_adaptive_loads.iter().min().unwrap();
    let want_max = *last_adaptive_loads.iter().max().unwrap();
    assert_eq!(
        (stat.min, stat.max),
        (want_min, want_max),
        "pipeline-recorded assign_cost diverged from the sched-layer loads"
    );
    out.line(format!(
        "telemetry cross-check OK: assign_cost min/max/imbalance = \
         {}/{}/{:.4} at {check_ranks} ranks",
        stat.min, stat.max, stat.imbalance
    ));

    // Multicore gate: measured when the host can show wall-clock
    // speedup, recorded either way.
    let speedup = if host >= 4 {
        // gradient+trace seconds of one single-rank run at a thread budget
        let grad_trace = |threads| {
            let r = run_parallel(&input, 1, BLOCKS, &adaptive(Some(threads)), None)
                .unwrap_or_else(|e| panic!("speedup run with {threads} thread(s) failed: {e}"));
            let rank = &r.telemetry.ranks;
            ["gradient", "trace"]
                .iter()
                .flat_map(|key| rank.iter().map(|rk| rk.phase_seconds(key).unwrap_or(0.0)))
                .sum::<f64>()
        };
        let (s1, s4) = (grad_trace(1), grad_trace(4));
        let sp = if s4 > 0.0 { s1 / s4 } else { 0.0 };
        assert!(
            sp >= 2.5,
            "gradient+trace speedup at 4 threads is {sp:.2}x, expected >= 2.5x"
        );
        out.line(format!("speedup gate OK ({sp:.2}x at 4 threads)"));
        Json::obj(vec![
            ("measured", Json::Bool(true)),
            ("grad_trace_speedup_4t", Json::F64(sp)),
            ("gate", Json::str("ok")),
        ])
    } else {
        out.line(format!(
            "speedup gate SKIPPED: host exposes {host} CPU(s), \
             4-thread wall-clock speedup needs at least 4"
        ));
        Json::obj(vec![
            ("measured", Json::Bool(false)),
            (
                "gate",
                Json::str(format!("skipped: host exposes {host} CPU(s)")),
            ),
        ])
    };

    let doc = Json::obj(vec![
        ("kind", Json::str("balance_sweep")),
        (
            "volume",
            Json::str(format!("jet_{}x{}x{}", dims.nx, dims.ny, dims.nz)),
        ),
        ("blocks", Json::U64(BLOCKS as u64)),
        ("host_parallelism", Json::U64(host as u64)),
        ("runs", Json::Arr(rows)),
        ("speedup", speedup),
    ]);
    let path = results_dir().join("BENCH_balance.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_balance.json");
    println!("bench written to {}", path.display());

    // schema self-check: the emitted document must round-trip
    let text = std::fs::read_to_string(&path).expect("read back BENCH_balance.json");
    let parsed =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    let Some(Json::Arr(runs)) = parsed.get("runs") else {
        panic!("BENCH_balance.json has no runs array");
    };
    assert_eq!(runs.len(), RANKS.len(), "round-trip preserves the sweep");
    out.line(format!("schema self-check OK ({} runs)", runs.len()));
}

#[cfg(test)]
mod tests {
    use super::FIGURES;
    use std::collections::BTreeSet;

    #[test]
    fn every_committed_table_has_a_figure() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("read results/")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(name.strip_suffix(".txt")?.to_string())
            })
            .collect();
        let figures: BTreeSet<String> = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(figures, committed);
    }
}
