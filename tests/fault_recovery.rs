//! End-to-end fault-tolerance tests on the threaded backend: injected
//! crashes, dropped and delayed merge ships, checkpoint-based recovery,
//! and the plans a run refuses. The central claim is the acceptance
//! criterion of DESIGN.md §9 — a run that loses a rank mid-merge and
//! recovers from round-boundary checkpoints produces a final complex
//! **bitwise identical** to the fault-free run.

use morse_smale_parallel::complex::wire;
use morse_smale_parallel::core::{
    feature_weights, run_parallel, simulate, Assignment, DecompMode, FaultConfig, Input, MergePlan,
    MergeSchedule, PipelineError, PipelineParams, RunResult, SimParams,
};
use morse_smale_parallel::fault::FaultPlan;
use morse_smale_parallel::grid::{Decomposition, Dims, ScalarField};
use morse_smale_parallel::{hierarchy, segment, synth};
use std::sync::Arc;
use std::time::Duration;

const RANKS: u32 = 4;
const BLOCKS: u32 = 8;

fn test_input() -> Input {
    Input::Memory(Arc::new(synth::gaussian_bumps(Dims::cube(17), 3, 0.12, 41)))
}

fn base_params() -> PipelineParams {
    PipelineParams {
        persistence_frac: 0.02,
        // two rounds: 8 -> 4 -> 2 output blocks, so recovery must carry
        // partially-merged state across a later round correctly
        plan: MergePlan::rounds(vec![2, 2]),
        ..Default::default()
    }
}

const DEADLINE: Duration = Duration::from_millis(400);

/// `base` with `plan` injected; the plan implies checkpoints.
fn faulted(plan: FaultPlan, base: PipelineParams) -> PipelineParams {
    PipelineParams {
        fault: FaultConfig {
            deadline: DEADLINE,
            ..FaultConfig::with_plan(plan)
        },
        ..base
    }
}

fn fault_params(plan: FaultPlan) -> PipelineParams {
    faulted(plan, base_params())
}

/// Serialized output blocks of a fault-free reference run.
fn reference(input: &Input) -> Vec<bytes::Bytes> {
    run_parallel(input, RANKS, BLOCKS, &base_params(), None)
        .unwrap()
        .outputs
        .iter()
        .map(wire::serialize)
        .collect()
}

fn assert_bitwise_identical(
    input: &Input,
    params: &PipelineParams,
) -> morse_smale_parallel::core::RunResult {
    let want = reference(input);
    let got = run_parallel(input, RANKS, BLOCKS, params, None).unwrap();
    assert_eq!(got.outputs.len(), want.len(), "output block count");
    for (i, (c, w)) in got.outputs.iter().zip(&want).enumerate() {
        assert_eq!(
            wire::serialize(c),
            *w,
            "output block {i} must be bitwise identical to the fault-free run"
        );
    }
    got
}

#[test]
fn crash_during_merge_round_1_recovers_bitwise_identical() {
    // Rank 3 owns blocks 6 and 7, the round-1 group (6, 7). The crash
    // destroys rank 3's state at the round boundary, so block 7 is never
    // handed over: rank 3 restores root 6 from its checkpoint, waits out
    // the deadline for its own member and replays block 7 from the same
    // checkpoint. Round 2 then ships slot 6 to rank 2 as usual.
    let input = test_input();
    let r = assert_bitwise_identical(&input, &fault_params(FaultPlan::new().crash(3, 1)));
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("crashes"), 1);
    assert_eq!(tel.counter_total("retries"), 1, "block 7 recovered");
    // rank 3's own restore, then block 7's replay
    assert_eq!(tel.counter_total("rounds_replayed"), 2);
    assert!(tel.counter_total("checkpoint_bytes") > 0);
    assert!(
        tel.counter_total("recovery_ms") > 0,
        "deadline waits are charged"
    );
}

#[test]
fn crash_of_a_root_rank_recovers_bitwise_identical() {
    // After round 1 rank 0 holds only slot 0, the root of the round-2
    // group (0, 2) whose member lives on rank 1. Crashing at the round-2
    // cut, it loses its state, ships nothing (it has no member slot in
    // round 2), reloads its own checkpoint and glues slot 2's message as
    // if nothing happened.
    let input = test_input();
    let r = assert_bitwise_identical(&input, &fault_params(FaultPlan::new().crash(0, 2)));
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("crashes"), 1);
    assert_eq!(tel.counter_total("retries"), 0, "no message was lost");
    assert_eq!(
        tel.counter_total("rounds_replayed"),
        1,
        "self-recovery replay"
    );
}

#[test]
fn crash_of_a_rank_holding_its_own_members_recovers_bitwise_identical() {
    // 8 blocks on 2 ranks, three radix-2 rounds: rank 0 holds blocks 0-3,
    // so it roots the groups (0, 1) and (2, 3) of round 1 and (0, 2) of
    // round 2 and owns their members (1 and 3, then 2), which it hands
    // over without a message. A crash at either cut leaves nothing handed
    // over: the root times out on its own rank and replays each member
    // from its own checkpoint.
    let input = test_input();
    let params = || PipelineParams {
        plan: MergePlan::rounds(vec![2, 2, 2]),
        ..base_params()
    };
    let run = |p: &PipelineParams| run_parallel(&input, 2, BLOCKS, p, None).unwrap();
    let bytes = |r: &RunResult| r.outputs.iter().map(wire::serialize).collect::<Vec<_>>();
    let want = bytes(&run(&params()));
    for (round, members) in [(1, 2), (2, 1)] {
        let r = run(&faulted(FaultPlan::new().crash(0, round), params()));
        assert!(bytes(&r) == want, "crash:0@{round}: outputs differ");
        let tel = &r.telemetry;
        assert_eq!(tel.counter_total("crashes"), 1, "crash:0@{round}");
        assert_eq!(tel.counter_total("retries"), members, "crash:0@{round}");
    }
}

#[test]
fn crash_at_the_pre_write_cut_recovers_bitwise_identical() {
    // Round 3 on a 2-round plan = after the last merge, before the
    // write: the fully-merged state must come back from the final cut.
    let input = test_input();
    let r = assert_bitwise_identical(&input, &fault_params(FaultPlan::new().crash(0, 3)));
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("crashes"), 1);
}

#[test]
fn spec_parsed_plan_drives_the_same_recovery() {
    // the CLI path: `--faults crash:3@1` goes through FromStr
    let input = test_input();
    let plan: FaultPlan = "crash:3@1".parse().unwrap();
    let r = assert_bitwise_identical(&input, &fault_params(plan));
    assert_eq!(r.telemetry.counter_total("crashes"), 1);
}

#[test]
fn dropped_message_is_recovered_from_checkpoint() {
    // the first merge ship rank 3 -> rank 2 (slot 6's round-2 ship to
    // root 4) is lost in flight; the root times out and replays it from
    // the sender's checkpoint — same bytes, same result
    let input = test_input();
    let r = assert_bitwise_identical(&input, &fault_params(FaultPlan::new().drop_msg(3, 2, 1)));
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("crashes"), 0);
    assert_eq!(tel.counter_total("retries"), 1);
}

#[test]
fn delayed_message_within_deadline_needs_no_recovery() {
    let input = test_input();
    let r = assert_bitwise_identical(
        &input,
        &fault_params(FaultPlan::new().delay_msg(3, 2, 1, 100)),
    );
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("retries"), 0);
    assert_eq!(tel.counter_total("rounds_replayed"), 0);
}

#[test]
fn crash_of_a_root_that_is_a_later_member_recovers_bitwise_identical() {
    // One block per rank, so every placement puts block b on rank b.
    // Rank 6 crashes at the cut before round 1 while it roots the group
    // (6, 7): it restores slot 6 from its own checkpoint, glues block 7
    // from rank 7's ship as usual and, in round 2, ships slot 6 to root
    // 4, a member like any other: no root waits for anything.
    let input = test_input();
    let params = fault_params(FaultPlan::new().crash(6, 1));
    let want = reference(&input);
    let r = run_parallel(&input, 8, BLOCKS, &params, None).unwrap();
    let got: Vec<_> = r.outputs.iter().map(wire::serialize).collect();
    assert!(got == want, "outputs differ from the fault-free run");
    let tel = &r.telemetry;
    assert_eq!(tel.counter_total("crashes"), 1);
    assert_eq!(tel.counter_total("retries"), 0);
    assert_eq!(
        tel.counter_total("rounds_replayed"),
        1,
        "rank 6's own restore"
    );
}

/// A plan that names a rank, a cut or a link the run does not have
/// injects nothing silently: both machines refuse it before the run
/// starts, naming the clause. 4 ranks and `--merge 2,2` have ranks 0-3
/// and cuts 1..=3.
#[test]
fn plans_outside_the_layout_are_refused_on_both_machines() {
    let Input::Memory(field) = test_input() else {
        unreachable!("test input is in memory")
    };
    let input = Input::Memory(field.clone());
    for (spec, names) in [
        ("crash:9@1", "rank 9 of a 4-rank run"),
        ("crash:1@7", "cut 7 of a run with cuts 1..=3"),
        ("drop:9->0#1", "rank 9 of a 4-rank run"),
    ] {
        let plan: FaultPlan = spec.parse().unwrap();
        let want = format!("invalid pipeline config: fault clause \"{spec}\" names {names}");
        match run_parallel(&input, RANKS, RANKS, &fault_params(plan.clone()), None) {
            Err(e @ PipelineError::Config(_)) => assert_eq!(e.to_string(), want),
            other => panic!("{spec}: expected a config error, got {:?}", other.err()),
        }
        let sim = SimParams {
            plan: MergePlan::rounds(vec![2, 2]),
            fault: FaultConfig::with_plan(plan),
            ..Default::default()
        };
        match simulate(&field, RANKS, &sim) {
            Err(e @ PipelineError::Config(_)) => assert_eq!(e.to_string(), want),
            other => panic!(
                "{spec}: simulate: expected a config error, got {:?}",
                other.err()
            ),
        }
    }
}

#[test]
fn multithreaded_recovery_matches_serial_recovery_bitwise() {
    // The intra-rank parallel local stage must not perturb the recovery
    // path: a crash + checkpoint-recovery run with --threads 4 produces
    // the same bytes as the identical run with --threads 1, and both
    // match the fault-free reference.
    let input = test_input();
    let with_threads = |threads: usize| PipelineParams {
        threads: Some(threads),
        ..fault_params(FaultPlan::new().crash(3, 1))
    };
    let serial = run_parallel(&input, RANKS, BLOCKS, &with_threads(1), None).unwrap();
    let threaded = assert_bitwise_identical(&input, &with_threads(4));
    assert_eq!(serial.outputs.len(), threaded.outputs.len());
    for (i, (s, t)) in serial.outputs.iter().zip(&threaded.outputs).enumerate() {
        assert_eq!(
            wire::serialize(s),
            wire::serialize(t),
            "recovered block {i}: threads=4 diverged from threads=1"
        );
    }
    assert_eq!(threaded.telemetry.counter_total("crashes"), 1);
    assert_eq!(threaded.telemetry.counter_total("retries"), 1);
}

#[test]
fn an_injected_panic_ends_the_run_even_with_checkpoints() {
    // a panic is a bug, not a lost rank: no checkpoint recovers it, and
    // both backends end the run with it as the error, naming the rank
    let input = test_input();
    let plan: FaultPlan = "panic:1@1".parse().unwrap();
    match run_parallel(&input, RANKS, BLOCKS, &fault_params(plan.clone()), None) {
        Err(PipelineError::Panic(p)) => {
            assert_eq!(p.rank, 1, "{p}");
            assert!(p.to_string().starts_with("rank 1 panicked"), "{p}");
        }
        other => panic!("expected rank 1's panic, got {:?}", other.err()),
    }
    let Input::Memory(field) = &input else {
        unreachable!("test input is in memory")
    };
    let sim = SimParams {
        persistence_frac: 0.02,
        plan: MergePlan::rounds(vec![2, 2]),
        fault: FaultConfig::with_plan(plan),
        ..Default::default()
    };
    match simulate(field, BLOCKS, &sim) {
        Err(PipelineError::Panic(p)) => assert_eq!(p.rank, 1, "{p}"),
        other => panic!("simulate: expected rank 1's panic, got {:?}", other.err()),
    }
}

#[test]
fn checkpoint_only_run_is_bitwise_clean_and_accounts_bytes() {
    // fault rate 0 with checkpointing on: pure overhead, zero recovery
    let input = test_input();
    let params = PipelineParams {
        fault: FaultConfig {
            plan: None,
            checkpoint: true,
            deadline: DEADLINE,
        },
        ..base_params()
    };
    let r = assert_bitwise_identical(&input, &params);
    let tel = &r.telemetry;
    // every rank checkpoints at 2 round cuts + the pre-write cut
    assert!(tel.counter_total("checkpoint_bytes") > 0);
    assert_eq!(tel.counter_total("crashes"), 0);
    assert_eq!(tel.counter_total("retries"), 0);
    assert_eq!(tel.counter_total("recovery_ms"), 0);
}

/// An irregular tree: a 17³ noise field cut into `blocks` blocks over
/// `RANKS` ranks, contracted by a radix-2 and then a radix-4 round, with
/// the segmentation and the hierarchy on.
struct Tree {
    field: Arc<ScalarField>,
    mode: DecompMode,
    blocks: u32,
}

impl Tree {
    fn params(&self) -> PipelineParams {
        PipelineParams {
            persistence_frac: 0.02,
            plan: MergePlan::rounds(vec![2, 4]),
            decomp: self.mode,
            segment: true,
            hierarchy: true,
            ..Default::default()
        }
    }

    fn run(&self, params: &PipelineParams) -> RunResult {
        let input = Input::Memory(self.field.clone());
        run_parallel(&input, RANKS, self.blocks, params, None).unwrap()
    }

    /// The layout `run_parallel` builds: LPT over the per-block cost
    /// estimates and the contracted merge schedule.
    fn layout(&self) -> (Assignment, MergeSchedule) {
        let (dims, n) = (self.field.dims(), self.blocks);
        let (decomp, costs) = match self.mode {
            DecompMode::Adaptive => {
                let w = feature_weights(&self.field);
                let d = Decomposition::adaptive(dims, n, &w);
                let costs = d.block_costs(&w);
                (d, costs)
            }
            DecompMode::RandomTree { seed } => {
                let d = Decomposition::random_tree(dims, n, seed);
                let costs = d.blocks().iter().map(|b| b.n_verts()).collect();
                (d, costs)
            }
            DecompMode::Uniform => unreachable!("irregular trees only"),
        };
        let sched = MergeSchedule::contract(&decomp, &self.params().plan);
        (Assignment::lpt(&costs, RANKS), sched)
    }
}

/// Every artifact of a run, as bytes: complexes, labels, hierarchies.
fn artifacts(r: &RunResult) -> Vec<bytes::Bytes> {
    let complexes = r.outputs.iter().map(wire::serialize);
    let labels = r.segmentation.iter().map(segment::wire::serialize);
    let hierarchies = r.hierarchies.iter().map(hierarchy::wire::serialize);
    complexes.chain(labels).chain(hierarchies).collect()
}

/// On `tree`, a rank that only ships in round 1, a rank that only roots
/// in round 1 and a crash at the pre-write cut each recover every
/// artifact bit for bit.
fn irregular_recovery_is_bitwise_identical(tree: Tree) {
    let (assign, sched) = tree.layout();
    assert!(sched.rounds.len() >= 2, "two contracted rounds");
    let groups = &sched.rounds[0].groups;
    let roots: Vec<u32> = groups.iter().map(|(r, _)| assign.rank_of(*r)).collect();
    let members: Vec<u32> = (groups.iter())
        .flat_map(|(_, g)| g[1..].iter().map(|&m| assign.rank_of(m)))
        .collect();
    let only =
        |mine: &[u32], theirs: &[u32]| (0..RANKS).find(|p| mine.contains(p) && !theirs.contains(p));
    let member = only(&members, &roots).expect("a rank that only ships in round 1");
    let root = only(&roots, &members).expect("a rank that only roots in round 1");
    let pre_write = sched.rounds.len() as u32 + 1;

    let want = artifacts(&tree.run(&tree.params()));
    // only the member's crash leaves a root to replay a lost slot
    for (rank, round, replayed) in [(member, 1, true), (root, 1, false), (0, pre_write, false)] {
        let plan = FaultPlan::new().crash(rank as usize, round);
        let r = tree.run(&faulted(plan, tree.params()));
        let spec = format!("{} crash:{rank}@{round}", tree.mode);
        assert!(artifacts(&r) == want, "{spec}: artifacts differ");
        let tel = &r.telemetry;
        assert_eq!(tel.counter_total("crashes"), 1, "{spec}");
        let replays = tel.counter_total("retries");
        assert_eq!(replays > 0, replayed, "{spec}: {replays} root replays");
    }
}

#[test]
fn crashes_on_an_adaptive_tree_recover_bitwise_identical() {
    irregular_recovery_is_bitwise_identical(Tree {
        field: Arc::new(synth::white_noise(Dims::cube(17), 9)),
        mode: DecompMode::Adaptive,
        blocks: 6,
    });
}

#[test]
fn crashes_on_a_random_tree_recover_bitwise_identical() {
    irregular_recovery_is_bitwise_identical(Tree {
        field: Arc::new(synth::white_noise(Dims::cube(17), 9)),
        mode: DecompMode::RandomTree { seed: 7 },
        blocks: 7,
    });
}
