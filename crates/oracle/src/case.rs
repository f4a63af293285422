//! Deterministic fuzz-case model: generation, a replayable text format,
//! and greedy shrinking.
//!
//! A [`Case`] fully determines one differential-fuzz run: the synthetic
//! field (kind + dims + seed), the decomposition (mode + blocks), the
//! execution shape (ranks, threads, merge schedule, injected fault) and
//! the simplification persistence. The driver in the workspace root
//! turns a case into an actual pipeline run; this module describes runs
//! and lays them out with the pipeline's own [`Layout::new`], so it
//! can live below `msp-core` in the dependency graph.
//!
//! The text format is line-oriented `key = value`, round-trips exactly,
//! and is what `oracle_fuzz` dumps as `.case` reproducers.

use msp_grid::{
    feature_weights, full_merge_plan, DecompMode, Dims, FaultEvent, FaultPlan, Layout, LayoutError,
    MergePlan, ScalarField, SplitMix64,
};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// What synthetic field the case runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// Hash-based white noise: generic data, all values distinct.
    Noise,
    /// Noise quantized to `n` levels: adversarial plateaus (ties broken
    /// only by simulation of simplicity). `Plateau(1)` is all-constant.
    Plateau(u32),
    /// Saddle-heavy product-of-sines field with `c` periods per axis.
    Sinusoid(u32),
    /// `n` Gaussian bumps: smooth data with few critical cells.
    Bumps(u32),
    /// All-constant field: the fully degenerate plateau.
    Constant,
}

impl fmt::Display for FieldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKind::Noise => write!(f, "noise"),
            FieldKind::Plateau(n) => write!(f, "plateau:{n}"),
            FieldKind::Sinusoid(c) => write!(f, "sinusoid:{c}"),
            FieldKind::Bumps(n) => write!(f, "bumps:{n}"),
            FieldKind::Constant => write!(f, "constant"),
        }
    }
}

impl FromStr for FieldKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let num = |a: Option<&str>| -> Result<u32, String> {
            a.ok_or_else(|| format!("field kind '{head}' needs an argument"))?
                .parse::<u32>()
                .map_err(|e| format!("bad field-kind argument in '{s}': {e}"))
        };
        match head {
            "noise" => Ok(FieldKind::Noise),
            "plateau" => Ok(FieldKind::Plateau(num(arg)?)),
            "sinusoid" => Ok(FieldKind::Sinusoid(num(arg)?)),
            "bumps" => Ok(FieldKind::Bumps(num(arg)?)),
            "constant" => Ok(FieldKind::Constant),
            _ => Err(format!("unknown field kind '{s}'")),
        }
    }
}

/// Cap on irregular block counts in generated and validated cases:
/// large enough to exercise every non-power-of-two neighbor shape the
/// contraction has to handle, small enough that fuzz iterations stay
/// cheap.
pub const MAX_IRREGULAR_BLOCKS: u32 = 12;

/// Cap on each axis of a case's dims. [`Case::validate`] builds an
/// adaptive case's field to lay it out, so the cap bounds what parsing
/// a `.case` file can allocate; generated cases stay below 9.
pub const MAX_CASE_AXIS: u32 = 128;

/// The merge-receive deadline of a fuzz run with a fault; a generated
/// delay is at least twice as long, so its root replays the member.
pub const FAULT_DEADLINE_MS: u64 = 50;

/// Merge schedule, as radices only; [`Case::plan`] is its `MergePlan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// No merging: every block complex is an output.
    None,
    /// Merge everything into one output ([`full_merge_plan`]).
    Full,
    /// Explicit per-round radices.
    Rounds(Vec<u32>),
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::None => write!(f, "none"),
            Schedule::Full => write!(f, "full"),
            Schedule::Rounds(v) => {
                write!(f, "rounds:")?;
                for (i, r) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "none" => return Ok(Schedule::None),
            "full" => return Ok(Schedule::Full),
            _ => {}
        }
        let body = s
            .strip_prefix("rounds:")
            .ok_or_else(|| format!("unknown schedule '{s}'"))?;
        let v: Result<Vec<u32>, _> = body.split(',').map(|x| x.trim().parse::<u32>()).collect();
        Ok(Schedule::Rounds(
            v.map_err(|e| format!("bad schedule '{s}': {e}"))?,
        ))
    }
}

/// One fully-specified differential-fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub kind: FieldKind,
    pub dims: [u32; 3],
    pub seed: u64,
    pub ranks: u32,
    pub blocks: u32,
    /// Block layout. Irregular modes allow any block count in
    /// `1..=MAX_IRREGULAR_BLOCKS`.
    pub decomp: DecompMode,
    pub threads: u32,
    pub schedule: Schedule,
    pub persistence: f32,
    /// Record the cancellation hierarchy and check prefix-replay
    /// conformance (`--hierarchy`; implies segmentation).
    pub hierarchy: bool,
    /// Injected faults, written in the `--faults` grammar: `crash:1@1` =
    /// rank 1 crashes before merge round 1.
    pub fault: Option<FaultPlan>,
}

impl Case {
    /// Internal-consistency check: a case the driver can actually run.
    /// Its layout is the pipeline's ([`Case::layout`]), and its fault
    /// plan must fit it as the pipeline checks ([`FaultPlan::check`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.dims.iter().any(|a| !(2..=MAX_CASE_AXIS).contains(a)) {
            return Err(format!(
                "dims {:?} must each be in 2..={MAX_CASE_AXIS}",
                self.dims
            ));
        }
        if !self.decomp.is_uniform() && (self.blocks == 0 || self.blocks > MAX_IRREGULAR_BLOCKS) {
            return Err(format!(
                "blocks {} must be in 1..={MAX_IRREGULAR_BLOCKS} for a {} decomposition",
                self.blocks, self.decomp
            ));
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if !self.persistence.is_finite() || self.persistence < 0.0 {
            return Err(format!("persistence {} invalid", self.persistence));
        }
        match self.kind {
            FieldKind::Plateau(0) => return Err("plateau needs >= 1 level".into()),
            FieldKind::Sinusoid(0) => return Err("sinusoid needs >= 1 period".into()),
            FieldKind::Bumps(0) => return Err("bumps needs >= 1 bump".into()),
            _ => {}
        }
        let layout = self.layout().map_err(|e| e.to_string())?;
        match &self.fault {
            Some(plan) => plan.check(self.ranks as usize, layout.sched.n_rounds() as u32),
            None => Ok(()),
        }
    }

    /// The synthetic field the case describes.
    pub fn field(&self) -> ScalarField {
        let dims = Dims::new(self.dims[0], self.dims[1], self.dims[2]);
        match self.kind {
            FieldKind::Noise => msp_synth::white_noise(dims, self.seed),
            FieldKind::Plateau(levels) => msp_synth::plateau(dims, self.seed, levels),
            FieldKind::Sinusoid(c) => msp_synth::sinusoid_dims(dims, c),
            FieldKind::Bumps(n) => msp_synth::gaussian_bumps(dims, n as usize, 0.25, self.seed),
            FieldKind::Constant => msp_synth::constant(dims, 0.5),
        }
    }

    /// The case's merge schedule as the pipeline's [`MergePlan`].
    pub fn plan(&self) -> MergePlan {
        match &self.schedule {
            Schedule::None => MergePlan::none(),
            Schedule::Full => full_merge_plan(self.blocks),
            Schedule::Rounds(v) => MergePlan::rounds(v.clone()),
        }
    }

    /// The layout the pipeline builds for this case (decomposition,
    /// merge schedule, assignment), or why it cannot run. Only an
    /// adaptive layout builds the case's field, to weigh it.
    pub fn layout(&self) -> Result<Layout, LayoutError> {
        let (dims, plan) = (
            Dims::new(self.dims[0], self.dims[1], self.dims[2]),
            self.plan(),
        );
        Layout::new(dims, self.decomp, &plan, self.ranks, self.blocks, || {
            Ok(feature_weights(&self.field()))
        })
    }

    /// The case's fault plan without the events its layout does not
    /// have: a rank or cut out of range, or a drop or delay of a ship the
    /// layout does not make (it would never fire). `None` when no event
    /// is left.
    pub fn fitted_fault(&self) -> Option<FaultPlan> {
        let plan = self.fault.as_ref()?;
        let layout = self.layout().ok()?;
        let (ranks, rounds) = (self.ranks as usize, layout.sched.n_rounds() as u32);
        let ships = cross_rank_ships(&layout);
        let fits = |e: &&FaultEvent| match **e {
            FaultEvent::DropMsg { from, to, nth } | FaultEvent::DelayMsg { from, to, nth, .. } => {
                ships.contains(&(from, to, nth))
            }
            e => FaultPlan { events: vec![e] }.check(ranks, rounds).is_ok(),
        };
        let events: Vec<FaultEvent> = plan.events.iter().filter(fits).copied().collect();
        (!events.is_empty()).then_some(FaultPlan { events })
    }

    /// Generate a random valid case from a PRNG. A third of them inject
    /// one fault, drawn before the layout: a crash, a drop or a delay
    /// with equal odds. A drop or a delay needs a cross-rank ship, so its
    /// layout has at least 2 ranks and a merge, and is redrawn until it
    /// makes one (`draw_fault`).
    pub fn generate(rng: &mut SplitMix64) -> Case {
        // the fault kind: 0 a crash, 1 a drop, 2 a delay
        let fault = (rng.below(3) == 0).then(|| rng.below(3));
        loop {
            let mut case = Case::draw(rng, fault.is_some_and(|k| k > 0));
            if let Some(kind) = fault {
                let layout = case.layout().expect("a generated case lays out");
                case.fault = draw_fault(rng, kind, &layout, case.ranks);
                if case.fault.is_none() {
                    continue;
                }
            }
            debug_assert!(case.validate().is_ok(), "{:?}", case.validate());
            return case;
        }
    }

    /// A random valid case without a fault. With `ships`, it has at
    /// least 2 ranks and a merging schedule.
    fn draw(rng: &mut SplitMix64, ships: bool) -> Case {
        let kind = match rng.below(5) {
            0 => FieldKind::Noise,
            1 => FieldKind::Plateau(1 + rng.below(4) as u32),
            2 => FieldKind::Sinusoid(1 + rng.below(3) as u32),
            3 => FieldKind::Bumps(1 + rng.below(5) as u32),
            _ => FieldKind::Constant,
        };
        let axis = |rng: &mut SplitMix64| 5 + rng.below(4) as u32;
        let dims = if matches!(kind, FieldKind::Sinusoid(_)) {
            let a = axis(rng);
            [a, a, a]
        } else {
            [axis(rng), axis(rng), axis(rng)]
        };
        let decomp = match rng.below(4) {
            0 | 1 => DecompMode::Uniform,
            2 => DecompMode::Adaptive,
            _ => DecompMode::RandomTree {
                seed: rng.below(1 << 16),
            },
        };
        let min = 1 + ships as u32;
        let blocks = if decomp.is_uniform() {
            *rng.pick(&[1u32, 2, 4, 8][min as usize - 1..])
        } else {
            // any count, deliberately including non-powers-of-two
            min + rng.below(9 - min as u64) as u32
        };
        // any rank count up to the block count: counts that do not
        // divide it give ranks uneven block sets
        let ranks = min + rng.below((blocks - min + 1) as u64) as u32;
        let threads = 1 + rng.below(6) as u32;
        // with `ships`, never the unmerged arm 0
        let arm = ships as u64 + rng.below(3 - ships as u64);
        let schedule = if decomp.is_uniform() {
            match arm {
                0 => Schedule::None,
                1 if blocks > 1 => Schedule::Full,
                _ => {
                    // random radix factorization of a divisor of `blocks`
                    let mut left = blocks;
                    let mut v = Vec::new();
                    while left > 1 && (ships && v.is_empty() || rng.below(3) > 0) {
                        let r = *rng.pick(
                            &[2u32, 4, 8]
                                .into_iter()
                                .filter(|&r| left.is_multiple_of(r))
                                .collect::<Vec<_>>(),
                        );
                        v.push(r);
                        left /= r;
                    }
                    if v.is_empty() {
                        Schedule::None
                    } else {
                        Schedule::Rounds(v)
                    }
                }
            }
        } else {
            // no divisibility constraint: radices only cap group sizes
            match arm {
                0 => Schedule::None,
                1 if blocks > 1 => Schedule::Full,
                1 => Schedule::None,
                _ => {
                    let n = 1 + rng.below(2) as usize;
                    Schedule::Rounds((0..n).map(|_| *rng.pick(&[2u32, 4, 8])).collect())
                }
            }
        };
        let persistence = *rng.pick(&[0.0f32, 0.01, 0.05, 0.2]);
        let hierarchy = rng.below(3) == 0;
        Case {
            kind,
            dims,
            seed: rng.next_u64(),
            ranks,
            blocks,
            decomp,
            threads,
            schedule,
            persistence,
            hierarchy,
            fault: None,
        }
    }

    /// Candidate one-step simplifications of this case, most aggressive
    /// first: the fault plan less one event, then smaller everything
    /// else. Each candidate is valid, and keeps only the events its
    /// layout still has ([`Case::fitted_fault`]); the shrinker keeps a
    /// candidate if it still reproduces the failure.
    pub fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        let mut push = |mut c: Case| {
            c.fault = c.fitted_fault();
            if c != *self && c.validate().is_ok() {
                out.push(c);
            }
        };
        // a schedule whose reduction no longer divides the block count
        // becomes a full merge (no merge on one block)
        let refit_schedule = |c: &mut Case| {
            if !c.blocks.is_multiple_of(c.plan().reduction()) {
                c.schedule = if c.blocks > 1 {
                    Schedule::Full
                } else {
                    Schedule::None
                };
            }
        };
        for i in 0..self.fault.as_ref().map_or(0, |p| p.events.len()) {
            let mut c = self.clone();
            if let Some(plan) = &mut c.fault {
                plan.events.remove(i);
            }
            push(c);
        }
        if self.hierarchy {
            let mut c = self.clone();
            c.hierarchy = false;
            push(c);
        }
        if self.threads > 1 {
            let mut c = self.clone();
            c.threads = 1;
            push(c);
        }
        if !self.decomp.is_uniform() {
            // most aggressive first: back to the uniform layout (fixing
            // blocks and schedule for its stricter rules), then random
            // trees down to the tamer adaptive splitter
            let mut c = self.clone();
            c.decomp = DecompMode::Uniform;
            if !c.blocks.is_power_of_two() {
                c.blocks = 1 << (31 - c.blocks.leading_zeros());
                c.ranks = c.ranks.min(c.blocks);
            }
            refit_schedule(&mut c);
            push(c);
            if matches!(self.decomp, DecompMode::RandomTree { .. }) {
                let mut c = self.clone();
                c.decomp = DecompMode::Adaptive;
                push(c);
            }
        }
        if self.ranks > 1 {
            let mut c = self.clone();
            c.ranks /= 2;
            push(c);
        }
        match &self.schedule {
            Schedule::Full => {
                let mut c = self.clone();
                c.schedule = Schedule::None;
                push(c);
            }
            Schedule::Rounds(v) => {
                let mut c = self.clone();
                let mut v = v.clone();
                v.pop();
                c.schedule = if v.is_empty() {
                    Schedule::None
                } else {
                    Schedule::Rounds(v)
                };
                push(c);
            }
            Schedule::None => {}
        }
        if self.blocks > 1 {
            let mut c = self.clone();
            c.blocks /= 2;
            c.ranks = c.ranks.min(c.blocks);
            refit_schedule(&mut c);
            push(c);
        }
        if !self.decomp.is_uniform() && self.blocks > 1 {
            // irregular counts can also step down by one
            let mut c = self.clone();
            c.blocks -= 1;
            c.ranks = c.ranks.min(c.blocks);
            push(c);
        }
        for a in 0..3 {
            if self.dims[a] > 5 {
                let mut c = self.clone();
                if matches!(c.kind, FieldKind::Sinusoid(_)) {
                    let s = c.dims[a] - 1;
                    c.dims = [s, s, s];
                } else {
                    c.dims[a] -= 1;
                }
                push(c);
                if matches!(self.kind, FieldKind::Sinusoid(_)) {
                    break; // cube shrink covers all axes at once
                }
            }
        }
        if self.persistence != 0.0 {
            let mut c = self.clone();
            c.persistence = 0.0;
            push(c);
        }
        if self.kind != FieldKind::Noise {
            let mut c = self.clone();
            c.kind = FieldKind::Noise;
            push(c);
        }
        out
    }
}

/// The cross-rank merge ships `layout` makes, as the `(from, to, nth)`
/// a drop or delay names: each link numbers its ships from 1 in round,
/// group and member order, as the stage list sends them.
fn cross_rank_ships(layout: &Layout) -> Vec<(usize, usize, u64)> {
    let (mut seen, mut ships) = (HashMap::new(), Vec::new());
    for round in &layout.sched.rounds {
        for (root, members) in &round.groups {
            let to = layout.assign.rank_of(*root) as usize;
            for &mb in &members[1..] {
                let from = layout.assign.rank_of(mb) as usize;
                if from != to {
                    let nth = seen.entry((from, to)).or_insert(0);
                    *nth += 1;
                    ships.push((from, to, *nth));
                }
            }
        }
    }
    ships
}

/// One fault of `kind` for a case laid out as `layout` on `ranks` ranks:
/// 0, a crash of any rank at any cut, the pre-write cut included, or 1, a
/// drop, or 2, a delay past [`FAULT_DEADLINE_MS`], of one of the
/// layout's cross-rank ships. `None` for a drop or a delay when the
/// layout makes no such ship.
fn draw_fault(rng: &mut SplitMix64, kind: u64, layout: &Layout, ranks: u32) -> Option<FaultPlan> {
    let plan = FaultPlan::new();
    if kind == 0 {
        let cuts = layout.sched.n_rounds() as u64 + 1;
        return Some(plan.crash(rng.below(ranks as u64) as usize, 1 + rng.below(cuts) as u32));
    }
    let ships = cross_rank_ships(layout);
    if ships.is_empty() {
        return None;
    }
    let &(from, to, nth) = rng.pick(&ships);
    Some(match kind {
        1 => plan.drop_msg(from, to, nth),
        _ => plan.delay_msg(from, to, nth, FAULT_DEADLINE_MS * (2 + rng.below(3))),
    })
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kind = {}", self.kind)?;
        writeln!(
            f,
            "dims = {}x{}x{}",
            self.dims[0], self.dims[1], self.dims[2]
        )?;
        writeln!(f, "seed = {}", self.seed)?;
        writeln!(f, "ranks = {}", self.ranks)?;
        writeln!(f, "blocks = {}", self.blocks)?;
        if !self.decomp.is_uniform() {
            // only written when irregular, so historical uniform case
            // files round-trip byte-identically
            writeln!(f, "decomp = {}", self.decomp)?;
        }
        writeln!(f, "threads = {}", self.threads)?;
        writeln!(f, "schedule = {}", self.schedule)?;
        writeln!(f, "persistence = {}", self.persistence)?;
        if self.hierarchy {
            writeln!(f, "hierarchy = true")?;
        }
        if let Some(plan) = &self.fault {
            writeln!(f, "fault = {plan}")?;
        }
        Ok(())
    }
}

impl FromStr for Case {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut kind = None;
        let mut dims = None;
        let mut seed = None;
        let mut ranks = None;
        let mut blocks = None;
        let mut decomp = DecompMode::Uniform;
        let mut threads = None;
        let mut schedule = None;
        let mut persistence = None;
        let mut hierarchy = false;
        let mut fault = None;
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected 'key = value'", ln + 1))?;
            let (k, v) = (k.trim(), v.trim());
            let bad = |e: String| format!("line {}: {e}", ln + 1);
            match k {
                "kind" => kind = Some(v.parse::<FieldKind>().map_err(bad)?),
                "dims" => {
                    let parts: Vec<u32> = v
                        .split('x')
                        .map(|x| x.trim().parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| bad(format!("bad dims: {e}")))?;
                    if parts.len() != 3 {
                        return Err(bad("dims must be AxBxC".into()));
                    }
                    dims = Some([parts[0], parts[1], parts[2]]);
                }
                "seed" => seed = Some(v.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "ranks" => ranks = Some(v.parse::<u32>().map_err(|e| bad(e.to_string()))?),
                "blocks" => blocks = Some(v.parse::<u32>().map_err(|e| bad(e.to_string()))?),
                "decomp" => decomp = v.parse::<DecompMode>().map_err(bad)?,
                "threads" => threads = Some(v.parse::<u32>().map_err(|e| bad(e.to_string()))?),
                "schedule" => schedule = Some(v.parse::<Schedule>().map_err(bad)?),
                "persistence" => {
                    persistence = Some(v.parse::<f32>().map_err(|e| bad(e.to_string()))?)
                }
                "hierarchy" => hierarchy = v.parse::<bool>().map_err(|e| bad(e.to_string()))?,
                "fault" => fault = Some(v.parse::<FaultPlan>().map_err(|e| bad(e.to_string()))?),
                _ => return Err(bad(format!("unknown key '{k}'"))),
            }
        }
        let need = |name: &str| format!("missing key '{name}'");
        let case = Case {
            kind: kind.ok_or_else(|| need("kind"))?,
            dims: dims.ok_or_else(|| need("dims"))?,
            seed: seed.ok_or_else(|| need("seed"))?,
            ranks: ranks.ok_or_else(|| need("ranks"))?,
            blocks: blocks.ok_or_else(|| need("blocks"))?,
            decomp,
            threads: threads.ok_or_else(|| need("threads"))?,
            schedule: schedule.ok_or_else(|| need("schedule"))?,
            persistence: persistence.ok_or_else(|| need("persistence"))?,
            hierarchy,
            fault,
        };
        case.validate()?;
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_round_trips() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let c = Case::generate(&mut rng);
            let text = c.to_string();
            let back: Case = text.parse().unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(c, back, "{text}");
        }
    }

    #[test]
    fn generated_cases_are_valid_and_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..500 {
            let ca = Case::generate(&mut a);
            let cb = Case::generate(&mut b);
            assert_eq!(ca, cb, "same seed, same cases");
            ca.validate().unwrap();
        }
    }

    #[test]
    fn shrink_candidates_are_valid_and_smaller() {
        let mut rng = SplitMix64::new(12345);
        for _ in 0..200 {
            let c = Case::generate(&mut rng);
            for s in c.shrink_candidates() {
                s.validate()
                    .unwrap_or_else(|e| panic!("shrink of {c:?} invalid: {e}"));
                assert_ne!(s, c);
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!("".parse::<Case>().is_err());
        assert!("kind = sponge\n".parse::<Case>().is_err());
        let valid = Case {
            kind: FieldKind::Constant,
            dims: [5, 5, 5],
            seed: 1,
            ranks: 1,
            blocks: 2,
            decomp: DecompMode::Uniform,
            threads: 1,
            schedule: Schedule::Full,
            persistence: 0.0,
            hierarchy: false,
            fault: None,
        };
        valid.validate().unwrap();
        let mut bad = valid.clone();
        bad.ranks = 4; // > blocks
        assert!(bad.validate().is_err());
        let mut bad = valid.clone();
        bad.schedule = Schedule::Rounds(vec![8]); // 8 does not divide 2
        assert!(bad.validate().is_err());
        // layouts out of reach are refused without a panic or a field of
        // their dims: a uniform full merge past 2^31 blocks, an axis past
        // the cap, a decomposition not spelled as a `.case` file writes it
        let text = |blocks: &str, dims: &str, decomp: &str| {
            format!(
                "kind = noise\ndims = {dims}\nseed = 1\nranks = 2\nblocks = {blocks}\n\
                 decomp = {decomp}\nthreads = 1\nschedule = full\npersistence = 0\n"
            )
        };
        let huge = text("3000000000", "5x5x5", "uniform").parse::<Case>();
        let want = LayoutError::Indivisible {
            reduction: u32::MAX,
            blocks: 3_000_000_000,
        };
        assert_eq!(huge, Err(want.to_string()));
        let wide = text("2", "5x5x4000000000", "adaptive").parse::<Case>();
        assert!(wide.unwrap_err().contains("2..=128"));
        for loose in ["ADAPTIVE", "Uniform", "Random:3"] {
            let err = text("2", "5x5x5", loose).parse::<Case>().unwrap_err();
            assert!(err.contains("bad decomposition mode"), "{loose}: {err}");
        }
        text("2", "5x5x5", "adaptive").parse::<Case>().unwrap();
    }

    /// Every prefix of a valid case's text, and every single-byte edit
    /// of it that leaves it text, parses to a case or an error without
    /// panicking.
    #[test]
    fn hostile_case_text_never_panics() {
        let c = Case {
            kind: FieldKind::Sinusoid(2),
            dims: [7, 6, 8],
            seed: 3,
            ranks: 3,
            blocks: 6,
            decomp: DecompMode::RandomTree { seed: 77 },
            threads: 2,
            schedule: Schedule::Rounds(vec![2, 4]),
            persistence: 0.05,
            hierarchy: true,
            fault: Some("crash:1@2".parse().unwrap()),
        };
        c.validate().unwrap();
        let text = c.to_string();
        assert_eq!(text.parse::<Case>().unwrap(), c);
        for cut in 0..text.len() {
            let _ = text[..cut].parse::<Case>();
        }
        // a single byte past 0x7F in ASCII text is not UTF-8, so the
        // ASCII bytes are every edit a `&str` can hold
        let mut edited = text.clone().into_bytes();
        for at in 0..edited.len() {
            let was = edited[at];
            for b in 0..0x80 {
                edited[at] = b;
                let _ = std::str::from_utf8(&edited).unwrap().parse::<Case>();
            }
            edited[at] = was;
        }
    }

    #[test]
    fn irregular_cases_relax_uniform_requirements() {
        let c = Case {
            kind: FieldKind::Noise,
            dims: [6, 6, 6],
            seed: 1,
            ranks: 3,
            blocks: 6,
            decomp: DecompMode::Adaptive,
            threads: 1,
            schedule: Schedule::Full,
            persistence: 0.0,
            hierarchy: false,
            fault: None,
        };
        c.validate().unwrap();
        let text = c.to_string();
        assert!(text.contains("decomp = adaptive"), "{text}");
        let back: Case = text.parse().unwrap();
        assert_eq!(back, c);

        let mut uni = c.clone();
        uni.decomp = DecompMode::Uniform;
        assert!(
            uni.validate().is_err(),
            "6 blocks needs an irregular decomp"
        );

        // the fault cut is checked against the exact round count of the
        // contracted schedule (its last cut is the pre-write one), and
        // refitting drops a crash past it
        let rounds = c.layout().unwrap().sched.n_rounds() as u32;
        assert!((1..6).contains(&rounds), "{rounds} contracted rounds");
        let mut faulted = c.clone();
        faulted.fault = Some(FaultPlan::new().crash(1, rounds + 1));
        faulted.validate().unwrap();
        faulted.fault = Some(FaultPlan::new().crash(1, rounds + 1).crash(1, rounds + 2));
        let err = faulted.validate().unwrap_err();
        assert!(err.contains(&format!("1..={}", rounds + 1)), "{err}");
        let fitted = faulted.fitted_fault();
        assert_eq!(fitted, Some(FaultPlan::new().crash(1, rounds + 1)));

        let mut huge = c.clone();
        huge.blocks = MAX_IRREGULAR_BLOCKS + 1;
        assert!(huge.validate().is_err(), "irregular block cap enforced");

        let rt = Case {
            decomp: DecompMode::RandomTree { seed: 77 },
            blocks: 5,
            ranks: 5,
            schedule: Schedule::Rounds(vec![8]),
            ..c
        };
        rt.validate().unwrap();
        let back: Case = rt.to_string().parse().unwrap();
        assert_eq!(back, rt);
    }

    /// A radix outside {2, 4, 8} on an irregular tree is the layout's
    /// to refuse: `validate` and the parse of the case's own text give
    /// the same error.
    #[test]
    fn bad_radix_case_is_refused_by_validate_and_parse() {
        let c = Case {
            kind: FieldKind::Noise,
            dims: [7, 6, 8],
            seed: 3,
            ranks: 3,
            blocks: 6,
            decomp: DecompMode::RandomTree { seed: 77 },
            threads: 1,
            schedule: Schedule::Rounds(vec![2, 3]),
            persistence: 0.0,
            hierarchy: false,
            fault: None,
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err, LayoutError::BadRadix(3).to_string());
        assert_eq!(c.to_string().parse::<Case>(), Err(err));
    }

    #[test]
    fn irregular_cases_shrink_toward_uniform() {
        let c = Case {
            kind: FieldKind::Noise,
            dims: [6, 6, 6],
            seed: 3,
            ranks: 3,
            blocks: 6,
            decomp: DecompMode::RandomTree { seed: 9 },
            threads: 1,
            schedule: Schedule::Full,
            persistence: 0.0,
            hierarchy: false,
            fault: None,
        };
        c.validate().unwrap();
        let shr = c.shrink_candidates();
        let uni = shr
            .iter()
            .find(|s| s.decomp.is_uniform())
            .expect("a uniform shrink candidate");
        assert!(uni.blocks.is_power_of_two());
        assert!(
            shr.iter().any(|s| s.decomp == DecompMode::Adaptive),
            "random trees step down to adaptive"
        );
        assert!(
            shr.iter()
                .any(|s| s.decomp == c.decomp && s.blocks == c.blocks - 1),
            "irregular block counts step down by one"
        );
        assert!(shr.iter().all(|s| s.validate().is_ok()));
    }

    /// Drops and delays name the ships the layout makes: on 4 uniform
    /// blocks over 2 ranks with `rounds:2,2`, the one cross-rank ship is
    /// slot 2's to root 0 in round 1. Shrinking removes one event at a
    /// time, and a ship a smaller layout does not make leaves the plan.
    #[test]
    fn fault_plans_fit_the_ships_of_the_layout() {
        let c = Case {
            kind: FieldKind::Noise,
            dims: [6, 6, 6],
            seed: 9,
            ranks: 2,
            blocks: 4,
            decomp: DecompMode::Uniform,
            threads: 1,
            schedule: Schedule::Rounds(vec![2, 2]),
            persistence: 0.0,
            hierarchy: false,
            fault: Some("drop:1->0#1;delay:1->0#2+100;crash:0@3".parse().unwrap()),
        };
        let layout = c.layout().unwrap();
        assert_eq!(cross_rank_ships(&layout), vec![(1, 0, 1)]);
        let fitted = c.fitted_fault().unwrap();
        assert_eq!(fitted.to_string(), "drop:1->0#1;crash:0@3");
        let shr = c.shrink_candidates();
        let plans: Vec<String> = (shr.iter().take(3))
            .map(|s| s.fault.as_ref().unwrap().to_string())
            .collect();
        assert_eq!(plans, ["crash:0@3", "drop:1->0#1;crash:0@3", "drop:1->0#1"]);
        // one rank makes no cross-rank ship, and has cuts 1..=3 still
        let one = shr.iter().find(|s| s.ranks == 1).expect("a 1-rank shrink");
        assert_eq!(one.fault, Some(FaultPlan::new().crash(0, 3)));
    }

    /// Generated faults reach every kind the fuzz draws: crashes of rank
    /// 0 and at the pre-write cut, and drops and delays past the deadline
    /// of ships the layout makes. Crashes, drops and delays are each at
    /// least a quarter of the faulted cases.
    #[test]
    fn generated_faults_draw_the_whole_grammar() {
        let mut rng = SplitMix64::new(17);
        let (mut rank0, mut pre_write, mut crashes, mut drops, mut delays) = (0, 0, 0, 0, 0);
        for _ in 0..400 {
            let c = Case::generate(&mut rng);
            let Some(plan) = &c.fault else { continue };
            let rounds = c.layout().unwrap().sched.n_rounds() as u32;
            assert_eq!(c.fitted_fault().as_ref(), Some(plan), "{c}");
            match plan.events[..] {
                [FaultEvent::Crash { rank, round }] => {
                    crashes += 1;
                    rank0 += (rank == 0) as u32;
                    pre_write += (round == rounds + 1) as u32;
                }
                [FaultEvent::DropMsg { .. }] => drops += 1,
                [FaultEvent::DelayMsg { delay_ms, .. }] => {
                    assert!(delay_ms >= 2 * FAULT_DEADLINE_MS, "{c}");
                    delays += 1;
                }
                _ => panic!("one crash, drop or delay per generated case: {c}"),
            }
        }
        for (what, n) in [("rank-0 crash", rank0), ("pre-write crash", pre_write)] {
            assert!(n > 0, "no {what}");
        }
        let faulted = crashes + drops + delays;
        for (what, n) in [("crashes", crashes), ("drops", drops), ("delays", delays)] {
            assert!(4 * n >= faulted, "{n} {what} of {faulted} faulted cases");
        }
    }

    #[test]
    fn fault_cases_shrink_away_their_fault_first() {
        let c = Case {
            kind: FieldKind::Plateau(2),
            dims: [6, 6, 6],
            seed: 9,
            ranks: 2,
            blocks: 4,
            decomp: DecompMode::Uniform,
            threads: 2,
            schedule: Schedule::Rounds(vec![2]),
            persistence: 0.05,
            hierarchy: true,
            fault: Some("crash:1@1".parse().unwrap()),
        };
        c.validate().unwrap();
        let shr = c.shrink_candidates();
        assert!(shr[0].fault.is_none(), "fault dropped first");
        assert!(shr.iter().all(|s| s.validate().is_ok()));
    }
}
