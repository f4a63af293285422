//! Decomposition modes, block-to-rank assignment, and generalized merge
//! scheduling over irregular block trees (DESIGN.md §14).
//!
//! The paper's merge stage assumes power-of-two uniform bisection, which
//! lets the schedule be the fixed radix tree of [`MergePlan::groups`] and
//! the assignment be contiguous ranges of block ids, so that every rank
//! holds whole subtrees of that tree. Irregular decompositions (the
//! adaptive feature-density splitter, random block trees from the fuzzer)
//! break both assumptions, so this module generalizes them:
//!
//! * [`DecompMode`] selects how the domain is cut into blocks;
//! * [`Assignment`] maps blocks to ranks — contiguous ranges for uniform
//!   runs or LPT greedy over per-block cost estimates for irregular ones;
//! * [`MergeSchedule`] is the reduction over the block neighbor graph:
//!   for uniform runs it replays [`MergePlan::groups`] verbatim, for
//!   irregular ones it is a deterministic greedy contraction of the
//!   neighbor graph, one radix-k round at a time.
//!
//! Everything here is a pure function of `(decomposition, plan)` — never
//! of the rank or thread count — which is what makes irregular runs
//! byte-identical to their canonical 1-rank execution.
//!
//! [`Layout::new`] is the one place that decides whether a `(mode, plan,
//! ranks, blocks)` layout can run; it refuses every invalid one with a
//! [`LayoutError`].

use crate::plan::MergePlan;
use crate::{Decomposition, Dims, ScalarField};

/// How the domain is decomposed into blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecompMode {
    /// Recursive longest-axis bisection (the paper's layout). Requires
    /// the merge-plan reduction to divide the block count; blocks are
    /// assigned in contiguous ranges and merged on the fixed radix tree.
    #[default]
    Uniform,
    /// Feature-density-driven adaptive splitter: split planes balance
    /// the integral of a per-vertex feature weight (local extrema count
    /// extra), so feature-dense regions get more, smaller blocks.
    Adaptive,
    /// Random irregular block tree (fuzzing): random axes, random
    /// planes, random child counts, derived from the seed.
    RandomTree { seed: u64 },
}

impl DecompMode {
    pub fn is_uniform(&self) -> bool {
        matches!(self, DecompMode::Uniform)
    }

    /// Parse a command-line spelling: [`FromStr`](std::str::FromStr)'s, trimmed, with
    /// `uniform` and `adaptive` in any case.
    pub fn parse(s: &str) -> Result<DecompMode, String> {
        let s = s.trim();
        match s.to_ascii_lowercase().as_str() {
            m @ ("uniform" | "adaptive") => m.parse(),
            _ => s.parse(),
        }
    }
}

/// The exact spellings `uniform`, `adaptive` and `random:<seed>`, as a
/// `.case` file writes them.
impl std::str::FromStr for DecompMode {
    type Err = String;

    fn from_str(s: &str) -> Result<DecompMode, String> {
        match s {
            "uniform" => return Ok(DecompMode::Uniform),
            "adaptive" => return Ok(DecompMode::Adaptive),
            _ => {}
        }
        let seed = s.strip_prefix("random:").ok_or_else(|| {
            format!("bad decomposition mode {s:?}: expected uniform, adaptive, or random:<seed>")
        })?;
        seed.parse::<u64>()
            .map(|seed| DecompMode::RandomTree { seed })
            .map_err(|_| format!("bad random-tree seed {seed:?}"))
    }
}

impl std::fmt::Display for DecompMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompMode::Uniform => write!(f, "uniform"),
            DecompMode::Adaptive => write!(f, "adaptive"),
            DecompMode::RandomTree { seed } => write!(f, "random:{seed}"),
        }
    }
}

/// Per-vertex feature weight for the adaptive splitter and the LPT cost
/// model: every vertex costs 1, strict local extrema of the 6-connected
/// vertex graph cost 9. Extrema are where critical cells — and the
/// V-paths that end on them — concentrate, so slab-weight integrals of
/// this proxy track where the local stage actually spends its time.
pub fn feature_weights(field: &ScalarField) -> Vec<u64> {
    let d = field.dims();
    let (nx, ny, nz) = (d.nx as i64, d.ny as i64, d.nz as i64);
    let mut w = vec![1u64; (nx * ny * nz) as usize];
    let mut i = 0usize;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = field.value(x as u32, y as u32, z as u32);
                let mut is_min = true;
                let mut is_max = true;
                for (dx, dy, dz) in [
                    (-1i64, 0i64, 0i64),
                    (1, 0, 0),
                    (0, -1, 0),
                    (0, 1, 0),
                    (0, 0, -1),
                    (0, 0, 1),
                ] {
                    let (ux, uy, uz) = (x + dx, y + dy, z + dz);
                    if ux < 0 || uy < 0 || uz < 0 || ux >= nx || uy >= ny || uz >= nz {
                        continue;
                    }
                    let u = field.value(ux as u32, uy as u32, uz as u32);
                    if u <= v {
                        is_min = false;
                    }
                    if u >= v {
                        is_max = false;
                    }
                    if !is_min && !is_max {
                        break;
                    }
                }
                if is_min || is_max {
                    w[i] = 9;
                }
                i += 1;
            }
        }
    }
    w
}

/// Block-to-rank assignment. The glue order and the keyed writes depend
/// on the decomposition and the plan alone, so the assignment moves
/// which rank does the work, never the bytes of a run's files.
#[derive(Debug, Clone)]
pub struct Assignment {
    rank_of: Vec<u32>,
}

impl Assignment {
    /// The uniform map `rank_of(b) = ⌊b·n_ranks / n_blocks⌋`: each rank
    /// holds one range of consecutive block ids, the ranges differing in
    /// size by at most one. On the radix tree of [`MergePlan::groups`] a
    /// group's slots are consecutive, so each rank holds whole subtrees:
    /// the early rounds merge on one rank and only the top of the tree
    /// crosses ranks.
    pub fn contiguous(n_blocks: u32, n_ranks: u32) -> Self {
        assert!(n_ranks >= 1);
        let rank_of = (0..n_blocks as u64).map(|b| (b * n_ranks as u64 / n_blocks as u64) as u32);
        Assignment {
            rank_of: rank_of.collect(),
        }
    }

    /// The block-cyclic map `rank_of(b) = b % n_ranks`. The benchmark's
    /// layer walk is its only caller outside tests.
    pub fn round_robin(n_blocks: u32, n_ranks: u32) -> Self {
        assert!(n_ranks >= 1);
        Assignment {
            rank_of: (0..n_blocks).map(|b| b % n_ranks).collect(),
        }
    }

    /// Longest-processing-time greedy over per-block cost estimates:
    /// blocks in descending cost order (ids break ties), each to the
    /// currently least-loaded rank (lowest rank breaks ties). Zero-cost
    /// blocks still count 1, so empty ranks are never starved of blocks
    /// they could absorb for free.
    pub fn lpt(costs: &[u64], n_ranks: u32) -> Self {
        assert!(n_ranks >= 1);
        let mut order: Vec<u32> = (0..costs.len() as u32).collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(costs[b as usize]), b));
        let mut load = vec![0u64; n_ranks as usize];
        let mut rank_of = vec![0u32; costs.len()];
        for b in order {
            let r = (0..n_ranks).min_by_key(|&r| (load[r as usize], r)).unwrap();
            rank_of[b as usize] = r;
            load[r as usize] += costs[b as usize].max(1);
        }
        Assignment { rank_of }
    }

    pub fn rank_of(&self, block: u32) -> u32 {
        self.rank_of[block as usize]
    }

    pub fn blocks_of(&self, rank: u32) -> Vec<u32> {
        (0..self.rank_of.len() as u32)
            .filter(|&b| self.rank_of[b as usize] == rank)
            .collect()
    }

    pub fn n_blocks(&self) -> u32 {
        self.rank_of.len() as u32
    }

    /// Per-rank summed cost under this assignment (for balance reports).
    pub fn loads(&self, costs: &[u64], n_ranks: u32) -> Vec<u64> {
        let mut load = vec![0u64; n_ranks as usize];
        for (b, &r) in self.rank_of.iter().enumerate() {
            load[r as usize] += costs[b];
        }
        load
    }
}

/// One merge round: the radix it was planned at and its gather groups,
/// each `(root, members)` with the root leading its member list — the
/// same shape [`MergePlan::groups`] produces.
#[derive(Debug, Clone)]
pub struct Round {
    pub radix: u32,
    pub groups: Vec<(u32, Vec<u32>)>,
}

/// The full merge schedule: rounds plus the surviving output slots. A
/// pure function of `(decomposition, plan)`, identical on every rank.
#[derive(Debug, Clone)]
pub struct MergeSchedule {
    pub rounds: Vec<Round>,
    /// Slots still holding a complex after the last round, ascending.
    pub outputs: Vec<u32>,
}

impl MergeSchedule {
    /// The uniform radix-tree schedule: [`MergePlan::groups`] and
    /// [`MergePlan::output_slots`] verbatim, round for round.
    pub fn uniform(plan: &MergePlan, n_blocks: u32) -> Self {
        let rounds = (0..plan.radices.len())
            .map(|r| Round {
                radix: plan.radices[r],
                groups: plan.groups(r, n_blocks),
            })
            .collect();
        MergeSchedule {
            rounds,
            outputs: plan.output_slots(n_blocks),
        }
    }

    /// Greedy deterministic contraction of the block neighbor graph, one
    /// radix-k round per plan entry: alive slots are visited in
    /// ascending order; an unclaimed slot roots a group and repeatedly
    /// absorbs its smallest unclaimed alive neighbor until the group
    /// reaches the radix (groups that stall below 2 members dissolve and
    /// their root stays alive). Two slots are neighbors when any of
    /// their member blocks share a face, edge, or corner.
    ///
    /// When the plan asks for a full merge (`reduction() >= n_blocks`)
    /// extra radix-8 rounds are appended until one slot survives — the
    /// slot regions tile the domain box, so the contracted graph stays
    /// connected and every extra round makes progress.
    pub fn contract(decomp: &Decomposition, plan: &MergePlan) -> Self {
        let n = decomp.blocks().len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in decomp.neighbor_edges() {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let full = plan.reduction() as usize >= n;
        let mut slot_of: Vec<u32> = (0..n as u32).collect();
        let mut members: Vec<Vec<u32>> = (0..n as u32).map(|b| vec![b]).collect();
        let mut alive: Vec<u32> = (0..n as u32).collect();
        let mut rounds = Vec::new();
        let mut ri = 0usize;
        loop {
            if alive.len() <= 1 {
                break;
            }
            let radix = if ri < plan.radices.len() {
                plan.radices[ri]
            } else if full {
                8
            } else {
                break;
            };
            ri += 1;
            let mut claimed = vec![false; n];
            let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
            for &s in &alive {
                if claimed[s as usize] {
                    continue;
                }
                claimed[s as usize] = true;
                let mut group = vec![s];
                while group.len() < radix as usize {
                    // smallest unclaimed alive neighbor of the group
                    let mut best: Option<u32> = None;
                    for &g in &group {
                        for &blk in &members[g as usize] {
                            for &nb in &adj[blk as usize] {
                                let t = slot_of[nb as usize];
                                if !claimed[t as usize] && best.is_none_or(|b| t < b) {
                                    best = Some(t);
                                }
                            }
                        }
                    }
                    match best {
                        Some(t) => {
                            claimed[t as usize] = true;
                            group.push(t);
                        }
                        None => break,
                    }
                }
                if group.len() >= 2 {
                    groups.push((s, group));
                }
            }
            if groups.is_empty() {
                // No slot could pair up under this plan — nothing more
                // will ever merge (partial plans on sparse graphs).
                break;
            }
            for (root, group) in &groups {
                for &m in &group[1..] {
                    let mb = std::mem::take(&mut members[m as usize]);
                    for &blk in &mb {
                        slot_of[blk as usize] = *root;
                    }
                    members[*root as usize].extend(mb);
                }
            }
            let merged: Vec<u32> = groups
                .iter()
                .flat_map(|(_, g)| g[1..].iter().copied())
                .collect();
            alive.retain(|s| !merged.contains(s));
            rounds.push(Round { radix, groups });
        }
        MergeSchedule {
            rounds,
            outputs: alive,
        }
    }

    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Why a `(mode, plan, ranks, blocks)` layout cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    NoRanks,
    /// Some rank would hold no block.
    FewerBlocksThanRanks {
        blocks: u32,
        ranks: u32,
    },
    /// A merge radix other than 2, 4 or 8.
    BadRadix(u32),
    /// A uniform plan whose reduction does not divide the block count
    /// (a uniform full merge of a count that is not a power of two).
    Indivisible {
        reduction: u32,
        blocks: u32,
    },
    /// More blocks than the mode's splitter can cut from the domain.
    TooManyBlocks(u32),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::NoRanks => write!(f, "need at least one rank"),
            LayoutError::FewerBlocksThanRanks { blocks, ranks } => write!(
                f,
                "need >= 1 block per rank (got {blocks} blocks on {ranks} ranks)"
            ),
            LayoutError::BadRadix(r) => write!(f, "merge radix {r} is not 2, 4 or 8"),
            LayoutError::Indivisible { reduction, blocks } => write!(
                f,
                "plan reduction {reduction} must divide the block count {blocks} \
                 of a uniform decomposition (--decomp adaptive takes any count)"
            ),
            LayoutError::TooManyBlocks(blocks) => {
                write!(f, "the domain cannot be cut into {blocks} blocks")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A run's layout: decomposition, per-block cost estimates (irregular
/// modes), merge schedule and block-to-rank assignment — a pure function
/// of `(mode, plan, n_blocks)` plus the field weights, which the adaptive
/// splitter alone reads (`weights` is called only then).
pub struct Layout {
    pub decomp: Decomposition,
    pub costs: Option<Vec<u64>>,
    pub sched: MergeSchedule,
    pub assign: Assignment,
}

impl Layout {
    /// Check the layout, then build it.
    pub fn new<E: From<LayoutError>>(
        dims: Dims,
        mode: DecompMode,
        plan: &MergePlan,
        n_ranks: u32,
        n_blocks: u32,
        weights: impl FnOnce() -> Result<Vec<u64>, E>,
    ) -> Result<Layout, E> {
        check(mode, plan, n_ranks, n_blocks)?;
        let cut = match mode {
            DecompMode::Uniform => Decomposition::try_bisect(dims, n_blocks).map(|d| (d, None)),
            DecompMode::Adaptive => {
                let weights = weights()?;
                Decomposition::try_adaptive(dims, n_blocks, &weights).map(|d| {
                    let c = d.block_costs(&weights);
                    (d, Some(c))
                })
            }
            DecompMode::RandomTree { seed } => Decomposition::try_random_tree(dims, n_blocks, seed)
                .map(|d| {
                    let c = d.blocks().iter().map(|b| b.n_verts()).collect();
                    (d, Some(c))
                }),
        };
        let (decomp, costs) = cut.ok_or(LayoutError::TooManyBlocks(n_blocks))?;
        let (sched, assign) = match &costs {
            None => (
                MergeSchedule::uniform(plan, n_blocks),
                Assignment::contiguous(n_blocks, n_ranks),
            ),
            Some(c) => (
                MergeSchedule::contract(&decomp, plan),
                Assignment::lpt(c, n_ranks),
            ),
        };
        Ok(Layout {
            decomp,
            costs,
            sched,
            assign,
        })
    }
}

/// The rules a layout must meet before its decomposition is cut.
fn check(mode: DecompMode, plan: &MergePlan, ranks: u32, blocks: u32) -> Result<(), LayoutError> {
    let reduction = plan.reduction();
    // the exact product: a saturated `reduction` would "divide" u32::MAX
    let exact = plan.radices.iter().try_fold(1u32, |a, &r| a.checked_mul(r));
    if ranks == 0 {
        Err(LayoutError::NoRanks)
    } else if blocks < ranks {
        Err(LayoutError::FewerBlocksThanRanks { blocks, ranks })
    } else if let Some(&r) = plan.radices.iter().find(|r| !matches!(r, 2 | 4 | 8)) {
        Err(LayoutError::BadRadix(r))
    } else if mode.is_uniform() && exact.is_none_or(|r| !blocks.is_multiple_of(r)) {
        Err(LayoutError::Indivisible { reduction, blocks })
    } else {
        Ok(())
    }
}

/// The full-merge plan of every mode: the power-of-two
/// [`MergePlan::full_merge`] heuristic applied to the next power of two,
/// so a power-of-two count gets exactly the heuristic's radices. Under
/// [`MergeSchedule::contract`] only the round count and radices matter
/// (the groups come from the neighbor graph), and `reduction() >=
/// n_blocks` signals the full-merge intent; on a uniform count that is
/// not a power of two, [`Layout::new`] refuses it.
pub fn full_merge_plan(n_blocks: u32) -> MergePlan {
    match n_blocks.max(1).checked_next_power_of_two() {
        Some(p) => MergePlan::full_merge(p),
        // past 2^31: the heuristic's plan for 2^32, whose reduction
        // saturates at u32::MAX
        None => MergePlan::rounds([4].into_iter().chain([8; 10]).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for m in [
            DecompMode::Uniform,
            DecompMode::Adaptive,
            DecompMode::RandomTree { seed: 42 },
        ] {
            assert_eq!(DecompMode::parse(&m.to_string()).unwrap(), m);
        }
        assert!(DecompMode::parse("random:x").is_err());
        assert!(DecompMode::parse("voronoi").is_err());
        // the command line forgives case and padding; `FromStr` does not
        assert_eq!(DecompMode::parse(" ADAPTIVE "), Ok(DecompMode::Adaptive));
        for loose in ["ADAPTIVE", "Uniform", " uniform", "Random:3"] {
            assert!(loose.parse::<DecompMode>().is_err(), "{loose:?}");
        }
    }

    #[test]
    fn round_robin_matches_modulo() {
        let a = Assignment::round_robin(11, 3);
        for b in 0..11u32 {
            assert_eq!(a.rank_of(b), b % 3);
        }
        assert_eq!(a.blocks_of(2), vec![2, 5, 8]);
        assert_eq!(a.n_blocks(), 11);
    }

    #[test]
    fn contiguous_ranges_cover_every_rank() {
        for blocks in 1..=64u32 {
            for ranks in 1..=blocks {
                let a = Assignment::contiguous(blocks, ranks);
                assert_eq!(a.n_blocks(), blocks);
                let sizes: Vec<usize> = (0..ranks).map(|r| a.blocks_of(r).len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*lo >= 1, "{blocks} on {ranks}: an empty rank");
                assert!(hi - lo <= 1, "{blocks} on {ranks}: sizes {sizes:?}");
                // ranks ascend with block ids, so each rank's blocks are
                // one range
                let ranks_of: Vec<u32> = (0..blocks).map(|b| a.rank_of(b)).collect();
                assert!(
                    ranks_of.windows(2).all(|w| w[1] - w[0] <= 1),
                    "{ranks_of:?}"
                );
                if blocks == ranks {
                    assert!((0..blocks).all(|b| a.rank_of(b) == b), "{blocks}: identity");
                }
            }
        }
        assert_eq!(Assignment::contiguous(8, 3).blocks_of(0), vec![0, 1, 2]);
        assert_eq!(Assignment::contiguous(8, 3).blocks_of(2), vec![6, 7]);
    }

    #[test]
    fn lpt_balances_skewed_costs() {
        // one huge block + many small ones: LPT must not stack smalls on
        // the rank holding the huge block
        let costs = [1000u64, 10, 10, 10, 10, 10, 10];
        let a = Assignment::lpt(&costs, 2);
        let loads = a.loads(&costs, 2);
        assert_eq!(a.rank_of(0), 0, "heaviest block goes first to rank 0");
        assert_eq!(loads[1], 60, "all small blocks land opposite the huge one");
        // deterministic
        let b = Assignment::lpt(&costs, 2);
        for blk in 0..costs.len() as u32 {
            assert_eq!(a.rank_of(blk), b.rank_of(blk));
        }
    }

    #[test]
    fn lpt_spreads_zero_costs() {
        let a = Assignment::lpt(&[0, 0, 0, 0], 4);
        let mut ranks: Vec<u32> = (0..4).map(|b| a.rank_of(b)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn uniform_schedule_replays_the_plan() {
        let plan = MergePlan::full_merge(8);
        let s = MergeSchedule::uniform(&plan, 8);
        assert_eq!(s.rounds.len(), plan.radices.len());
        for (r, round) in s.rounds.iter().enumerate() {
            assert_eq!(round.radix, plan.radices[r]);
            assert_eq!(round.groups, plan.groups(r, 8));
        }
        assert_eq!(s.outputs, plan.output_slots(8));
    }

    #[test]
    fn contract_full_merge_reaches_one_slot() {
        for n in [2u32, 3, 5, 6, 7, 11] {
            let d = Decomposition::random_tree(Dims::new(21, 17, 13), n, 7 + n as u64);
            let s = MergeSchedule::contract(&d, &full_merge_plan(n));
            assert_eq!(s.outputs, vec![0], "{n} blocks must contract to slot 0");
            // every block merged exactly once
            let mut seen = vec![0u32; n as usize];
            seen[0] += 1; // the root never ships
            for round in &s.rounds {
                for (root, group) in &round.groups {
                    assert_eq!(*root, group[0]);
                    assert!(group.len() >= 2 && group.len() <= round.radix as usize);
                    for &m in &group[1..] {
                        seen[m as usize] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{n}: {seen:?}");
        }
    }

    #[test]
    fn contract_groups_are_neighbor_connected() {
        let d = Decomposition::random_tree(Dims::new(19, 19, 11), 9, 123);
        let edges = d.neighbor_edges();
        let s = MergeSchedule::contract(&d, &full_merge_plan(9));
        // replay the contraction, checking every absorbed slot touches
        // the group it joins
        let mut members: Vec<Vec<u32>> = (0..9u32).map(|b| vec![b]).collect();
        for round in &s.rounds {
            for (root, group) in &round.groups {
                for &m in &group[1..] {
                    let touches = members[*root as usize].iter().any(|&a| {
                        members[m as usize]
                            .iter()
                            .any(|&b| edges.contains(&(a.min(b), a.max(b))))
                    });
                    assert!(touches, "slot {m} absorbed into non-neighbor {root}");
                    let mb = std::mem::take(&mut members[m as usize]);
                    members[*root as usize].extend(mb);
                }
            }
        }
    }

    #[test]
    fn contract_partial_plan_stops_early() {
        let d = Decomposition::random_tree(Dims::new(21, 17, 13), 6, 99);
        let plan = MergePlan::rounds(vec![2]);
        let s = MergeSchedule::contract(&d, &plan);
        assert_eq!(s.rounds.len(), 1);
        assert_eq!(s.rounds[0].radix, 2);
        let merged: usize = s.rounds[0].groups.iter().map(|(_, g)| g.len() - 1).sum();
        assert_eq!(s.outputs.len(), 6 - merged);
        assert!(s.outputs.len() > 1, "radix-2 round cannot fully merge 6");
    }

    #[test]
    fn feature_weights_mark_extrema() {
        // a single interior peak on an otherwise increasing ramp
        let f = ScalarField::from_fn(Dims::new(7, 5, 5), |x, y, z| {
            if (x, y, z) == (3, 2, 2) {
                100.0
            } else {
                x as f32 + 0.1 * y as f32 + 0.01 * z as f32
            }
        });
        let w = feature_weights(&f);
        let d = f.dims();
        let idx = |x: u64, y: u64, z: u64| ((z * d.ny as u64 + y) * d.nx as u64 + x) as usize;
        assert_eq!(w[idx(3, 2, 2)], 9, "the peak is a local max");
        assert_eq!(w[idx(0, 0, 0)], 9, "the ramp corner is the global min");
        assert_eq!(w[idx(2, 2, 2)], 1, "ramp interior is regular");
        assert_eq!(w.len() as u64, d.n_verts());
    }

    #[test]
    fn full_merge_plan_covers_any_count() {
        let past_2_31 = [(1 << 31) + 1, 3_000_000_000, u32::MAX];
        for n in (1..20u32).chain([1 << 31]).chain(past_2_31) {
            let p = full_merge_plan(n);
            assert!(p.reduction() >= n, "{n}");
            if n.is_power_of_two() {
                assert_eq!(p, MergePlan::full_merge(n));
            }
        }
    }

    /// Every invalid `(mode, plan, ranks, blocks)` is a typed error,
    /// refused before the weights are read; the valid neighbors run.
    #[test]
    fn invalid_layouts_are_typed_errors() {
        use DecompMode::{Adaptive, Uniform};
        use LayoutError::*;
        let layout = |mode, plan: MergePlan, ranks, blocks| {
            let weights = || -> Result<Vec<u64>, LayoutError> {
                assert!(mode == Adaptive, "weights read for {mode}");
                Ok(vec![1; 17 * 17 * 17])
            };
            Layout::new(Dims::cube(17), mode, &plan, ranks, blocks, weights).map(|_| ())
        };
        for r in [1, 3, 16] {
            for mode in [Uniform, Adaptive] {
                let plan = MergePlan::rounds(vec![2, r]);
                assert_eq!(layout(mode, plan, 2, 8), Err(BadRadix(r)), "{mode}");
            }
        }
        let indivisible = |reduction| {
            Err(Indivisible {
                reduction,
                blocks: 6,
            })
        };
        assert_eq!(layout(Uniform, full_merge_plan(6), 2, 6), indivisible(8));
        assert_eq!(
            layout(Uniform, MergePlan::rounds(vec![4]), 2, 6),
            indivisible(4)
        );
        assert_eq!(layout(Uniform, MergePlan::none(), 0, 6), Err(NoRanks));
        let few = FewerBlocksThanRanks {
            blocks: 4,
            ranks: 8,
        };
        assert_eq!(layout(Uniform, MergePlan::none(), 8, 4), Err(few));
        let msg = indivisible(8).unwrap_err().to_string();
        assert!(msg.contains("--decomp adaptive"), "{msg}");
        // an overlong plan saturates its reduction instead of overflowing
        let long = MergePlan::rounds(vec![8; 11]);
        let saturated = Indivisible {
            reduction: u32::MAX,
            blocks: 8,
        };
        assert_eq!(layout(Uniform, long, 1, 8), Err(saturated));
        // a uniform full merge past 2^31 blocks, u32::MAX included
        for blocks in [3_000_000_000, u32::MAX] {
            let huge = Indivisible {
                reduction: u32::MAX,
                blocks,
            };
            let plan = full_merge_plan(blocks);
            assert_eq!(layout(Uniform, plan, 2, blocks), Err(huge), "{blocks}");
        }
        // 16³ cells hold no 10,000 blocks; a random tree stops at 48
        let random = DecompMode::RandomTree { seed: 1 };
        for (mode, blocks) in [(Uniform, 10_000), (Adaptive, 10_000), (random, 49)] {
            let refused = Err(TooManyBlocks(blocks));
            assert_eq!(
                layout(mode, MergePlan::none(), 1, blocks),
                refused,
                "{mode}"
            );
        }
        let huge = 3_000_000_000;
        let refused = Err(TooManyBlocks(huge));
        assert_eq!(layout(Adaptive, full_merge_plan(huge), 1, huge), refused);
        assert_eq!(layout(Uniform, MergePlan::rounds(vec![2]), 3, 6), Ok(()));
        assert_eq!(layout(Uniform, MergePlan::none(), 1, 6), Ok(()));
        assert_eq!(layout(Adaptive, full_merge_plan(6), 3, 6), Ok(()));
    }
}
