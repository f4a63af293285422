//! Integration tests of the simulation driver's report structure: the
//! quantities the figure binaries print must be internally consistent.

use morse_smale_parallel::core::{
    full_merge_plan, simulate, DecompMode, FaultConfig, MergePlan, SimParams, SimReport,
};
use morse_smale_parallel::fault::FaultPlan;
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::synth;
use morse_smale_parallel::vmpi::{IoParams, NetParams};
use std::time::Duration;

fn base_params(plan: MergePlan) -> SimParams {
    SimParams {
        persistence_frac: 0.02,
        plan,
        ..Default::default()
    }
}

#[test]
fn round_reports_match_plan() {
    let f = synth::white_noise(Dims::cube(13), 3);
    let plan = MergePlan::rounds(vec![2, 4]);
    let r = simulate(&f, 16, &base_params(plan.clone())).unwrap();
    assert_eq!(r.rounds.len(), 2);
    assert_eq!(r.rounds[0].radix, 2);
    assert_eq!(r.rounds[1].radix, 4);
    assert_eq!(r.output_blocks, 2);
    for round in &r.rounds {
        assert!(round.comm_s >= 0.0 && round.glue_s >= 0.0 && round.resimplify_s >= 0.0);
        assert!(round.round_s >= 0.0);
        assert!(round.bytes_moved > 0, "complexes are never empty");
    }
}

#[test]
fn totals_compose_from_stages() {
    let f = synth::white_noise(Dims::cube(13), 5);
    let r = simulate(&f, 8, &base_params(MergePlan::full_merge(8))).unwrap();
    // total = critical path >= read + compute components, plus write
    assert!(r.total_s >= r.read_s + r.compute_s);
    assert!(r.total_s >= r.write_s);
    // merge critical path includes local simplification
    assert!(r.merge_s >= r.local_simplify_s);
    // threshold is 2% of the noise range (~1.0)
    assert!(r.threshold > 0.0 && r.threshold < 0.1);
}

#[test]
fn read_time_scales_with_dtype() {
    use morse_smale_parallel::grid::rawio::VolumeDType;
    let f = synth::white_noise(Dims::cube(17), 9);
    let mut p8 = base_params(MergePlan::none());
    p8.dtype = VolumeDType::U8;
    let mut p64 = base_params(MergePlan::none());
    p64.dtype = VolumeDType::F64;
    let r8 = simulate(&f, 4, &p8).unwrap();
    let r64 = simulate(&f, 4, &p64).unwrap();
    assert!(
        r64.read_s > r8.read_s,
        "f64 volumes are 8x the bytes of u8 ({} vs {})",
        r64.read_s,
        r8.read_s
    );
}

#[test]
fn network_parameters_influence_merge() {
    let f = synth::sinusoid(17, 2);
    let fast = base_params(MergePlan::full_merge(8));
    let mut slow = base_params(MergePlan::full_merge(8));
    slow.net = NetParams {
        latency_s: 1.0, // absurdly slow network
        ..NetParams::default()
    };
    let rf = simulate(&f, 8, &fast).unwrap();
    let rs = simulate(&f, 8, &slow).unwrap();
    assert!(
        rs.rounds[0].round_s > rf.rounds[0].round_s + 0.5,
        "1s latency must dominate the round time"
    );
}

#[test]
fn io_parameters_influence_read_write() {
    let f = synth::white_noise(Dims::cube(17), 2);
    let fast = base_params(MergePlan::none());
    let mut slow = base_params(MergePlan::none());
    slow.io = IoParams {
        aggregate_bw: 1.0e3, // 1 KB/s filesystem
        per_proc_bw: 1.0e3,
        ..IoParams::default()
    };
    let rf = simulate(&f, 4, &fast).unwrap();
    let rs = simulate(&f, 4, &slow).unwrap();
    assert!(rs.read_s > 10.0 * rf.read_s);
    assert!(rs.write_s > 10.0 * rf.write_s);
}

#[test]
fn no_merge_means_no_rounds_and_many_outputs() {
    let f = synth::white_noise(Dims::cube(13), 4);
    let r = simulate(&f, 8, &base_params(MergePlan::none())).unwrap();
    assert!(r.rounds.is_empty());
    assert_eq!(r.output_blocks, 8);
    assert_eq!(r.merge_s, r.local_simplify_s, "merge = local simplify only");
}

/// The deterministic part of a simulated run: everything but the
/// measured and modeled seconds.
fn ledger(r: &SimReport) -> String {
    let rounds: Vec<String> = r
        .rounds
        .iter()
        .map(|x| format!("{}:{}", x.radix, x.bytes_moved))
        .collect();
    format!(
        "out {} {} nodes {} arcs {} th {:#x} rounds [{}] seg {} {} {} {} fault {} {} {}",
        r.output_blocks,
        r.output_bytes,
        r.live_nodes,
        r.live_arcs,
        r.threshold.to_bits(),
        rounds.join(" "),
        r.seg_rounds,
        r.seg_forwards,
        r.seg_bytes,
        r.seg_output_bytes,
        r.crashes,
        r.retries,
        r.retry_bytes,
    )
}

#[test]
fn deterministic_ledger_is_pinned() {
    let jet = synth::jet(Dims::new(48, 56, 32), 160, 2012);
    let jet_run = |p: u32| {
        let params = SimParams {
            persistence_frac: 0.01,
            plan: MergePlan::full_merge(p),
            ..Default::default()
        };
        ledger(&simulate(&jet, p, &params).unwrap())
    };
    let noise = synth::white_noise(Dims::cube(13), 3);
    let seg16 = SimParams {
        plan: MergePlan::rounds(vec![2, 4]),
        segment: true,
        ..base_params(MergePlan::none())
    };
    let adaptive = SimParams {
        plan: full_merge_plan(6),
        decomp: DecompMode::Adaptive,
        segment: true,
        ..base_params(MergePlan::none())
    };
    let faulted = |plan: FaultPlan| SimParams {
        fault: FaultConfig {
            deadline: Duration::from_millis(250),
            ..FaultConfig::with_plan(plan)
        },
        ..base_params(MergePlan::full_merge(8))
    };
    let got = [
        jet_run(8),
        jet_run(32),
        jet_run(128),
        ledger(&simulate(&noise, 16, &seg16).unwrap()),
        ledger(&simulate(&noise, 6, &adaptive).unwrap()),
        ledger(&simulate(&noise, 8, &faulted(FaultPlan::new().crash(3, 1))).unwrap()),
        ledger(&simulate(&noise, 8, &faulted(FaultPlan::new().drop_msg(1, 0, 1))).unwrap()),
    ];
    // captured from the simulator before the stage list was shared with
    // the threaded backend; `fig9_jet`'s small points come first
    let want = [
        "out 1 979400 nodes 4977 arcs 51326 th 0x3c656042 rounds [8:944643] \
         seg 0 0 0 0 fault 0 0 0",
        "out 1 929940 nodes 4963 arcs 51690 th 0x3c656042 rounds [4:819186 8:911908] \
         seg 0 0 0 0 fault 0 0 0",
        "out 1 756791 nodes 4937 arcs 40432 th 0x3c656042 \
         rounds [2:697402 8:1002372 8:770602] seg 0 0 0 0 fault 0 0 0",
        "out 2 82787 nodes 1596 arcs 5011 th 0x3ca396c8 rounds [2:57000 4:73905] \
         seg 2 136 30224 25352 fault 0 0 0",
        "out 1 76183 nodes 1327 arcs 4600 th 0x3ca396c8 rounds [8:80206] \
         seg 2 101 14384 21640 fault 0 0 0",
        // re-pinned on purpose: the crashed member ships nothing, so its
        // 11155 bytes leave `bytes_moved` (85975 before) and stay in
        // `retry_bytes`, the root's replay from its checkpoint
        "out 1 75980 nodes 1327 arcs 4571 th 0x3ca396c8 rounds [8:74820] \
         seg 0 0 0 0 fault 1 1 11155",
        // re-pinned on purpose: a plan always checkpoints, so root 0
        // replays the dropped block 1 from rank 1's checkpoint after the
        // deadline and the outputs are the crash row's. It was "out 1
        // 69632 nodes 1263 arcs 4235 ... fault 0 1 0", block 1 absorbed
        // with no checkpoint; the lost ship's bytes still count in
        // `bytes_moved`
        "out 1 75980 nodes 1327 arcs 4571 th 0x3ca396c8 rounds [8:85975] \
         seg 0 0 0 0 fault 0 1 11300",
    ];
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w);
    }
}

#[test]
fn live_counts_match_threaded_backend_across_plans() {
    use morse_smale_parallel::core::{run_parallel, Input, PipelineParams};
    use std::sync::Arc;
    let field = Arc::new(synth::gaussian_bumps(Dims::cube(13), 2, 0.15, 6));
    for plan in [
        MergePlan::none(),
        MergePlan::rounds(vec![4]),
        MergePlan::full_merge(8),
    ] {
        let sim = simulate(
            &field,
            8,
            &SimParams {
                persistence_frac: 0.02,
                plan: plan.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let thr = run_parallel(
            &Input::Memory(field.clone()),
            4,
            8,
            &PipelineParams {
                persistence_frac: 0.02,
                plan,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let thr_nodes: u64 = thr.outputs.iter().map(|c| c.n_live_nodes()).sum();
        let thr_arcs: u64 = thr.outputs.iter().map(|c| c.n_live_arcs()).sum();
        assert_eq!(sim.live_nodes, thr_nodes);
        assert_eq!(sim.live_arcs, thr_arcs);
        assert_eq!(sim.output_bytes, thr.output_bytes);
    }
}

#[test]
fn both_backends_report_a_non_finite_value_as_the_same_error() {
    use morse_smale_parallel::core::{run_parallel, Input, PipelineParams};
    use morse_smale_parallel::grid::ScalarField;
    use std::sync::Arc;
    let noise = synth::white_noise(Dims::cube(9), 4);
    let field = ScalarField::from_fn(noise.dims(), |x, y, z| match (x, y, z) {
        (4, 4, 4) => f32::INFINITY,
        _ => noise.value(x, y, z),
    });
    let sim = simulate(&field, 1, &SimParams::default()).unwrap_err();
    let input = Input::Memory(Arc::new(field));
    let thr = run_parallel(&input, 1, 1, &PipelineParams::default(), None).err();
    let thr = thr.expect("a non-finite node value fails the threaded run");
    let want = "simplifying block 0: node at address ";
    assert!(thr.to_string().starts_with(want), "{thr}");
    assert!(
        thr.to_string().ends_with(" has non-finite value inf"),
        "{thr}"
    );
    assert_eq!(sim.to_string(), thr.to_string(), "same block, same address");
}
