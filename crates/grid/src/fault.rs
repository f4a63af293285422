//! Deterministic, seedable fault plans.
//!
//! A [`FaultPlan`] is a finite list of [`FaultEvent`]s fixed before the
//! run starts — faults are *data*, not side effects of a random number
//! generator consulted mid-run, so every experiment is exactly
//! reproducible: the same plan against the same input produces the same
//! crashes, the same dropped messages, and (with recovery working) the
//! same final complex.
//!
//! Plans are built programmatically (tests), parsed from the CLI
//! `--faults` spec ([`FaultPlan::from_str`], which `Display` inverts) or
//! seeded ([`FaultPlan::seeded_crashes`]) for sweep benchmarks, and every
//! run checks its plan against its layout ([`FaultPlan::check`]).

use crate::SplitMix64;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Rank `rank` loses its in-memory state at the boundary of merge
    /// round `round` (1-based; `round = n_rounds + 1` models a crash
    /// after the last merge but before the collective write).
    Crash { rank: usize, round: u32 },
    /// Rank `rank` raises an unwinding panic at the boundary of merge
    /// round `round` (numbered as for `Crash`): a bug, not a lost rank.
    /// The run ends with the panic as its error; no checkpoint recovers
    /// it (DESIGN.md §9).
    Panic { rank: usize, round: u32 },
    /// Silently lose the `nth` (1-based) cross-rank merge ship on the
    /// directed link `from -> to`.
    DropMsg { from: usize, to: usize, nth: u64 },
    /// Hold the `nth` (1-based) merge ship on `from -> to` back by
    /// `delay_ms` milliseconds before handing it off.
    DelayMsg {
        from: usize,
        to: usize,
        nth: u64,
        delay_ms: u64,
    },
    /// Multiply rank `rank`'s compute time by `factor` (≥ 1.0) — a
    /// straggler. Only the BSP sim driver charges this; the threaded
    /// backend runs real compute and cannot slow it honestly.
    SlowRank { rank: usize, factor: f64 },
}

/// What the plan decides about one merge ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Hand it off normally.
    Deliver,
    /// Lose it: the root waits out the deadline and replays the member.
    Drop,
    /// Hold it back for this long before handing it off.
    Delay(Duration),
}

/// A complete, ordered fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn crash(mut self, rank: usize, round: u32) -> Self {
        self.events.push(FaultEvent::Crash { rank, round });
        self
    }

    pub fn panic(mut self, rank: usize, round: u32) -> Self {
        self.events.push(FaultEvent::Panic { rank, round });
        self
    }

    pub fn drop_msg(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.events.push(FaultEvent::DropMsg { from, to, nth });
        self
    }

    pub fn delay_msg(mut self, from: usize, to: usize, nth: u64, delay_ms: u64) -> Self {
        self.events.push(FaultEvent::DelayMsg {
            from,
            to,
            nth,
            delay_ms,
        });
        self
    }

    pub fn slow_rank(mut self, rank: usize, factor: f64) -> Self {
        self.events.push(FaultEvent::SlowRank { rank, factor });
        self
    }

    /// Generate a crash plan where each (rank, round) cell fails
    /// independently with probability `rate`, driven by a SplitMix64
    /// stream from `seed` — same seed, same plan, on every platform.
    /// Rounds are 1-based up to `n_rounds` inclusive.
    pub fn seeded_crashes(seed: u64, n_ranks: usize, n_rounds: u32, rate: f64) -> Self {
        let mut plan = FaultPlan::new();
        let mut rng = SplitMix64::new(seed);
        for round in 1..=n_rounds {
            for rank in 0..n_ranks {
                // uniform in [0, 1) from the top 53 bits
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                if u < rate {
                    plan.events.push(FaultEvent::Crash { rank, round });
                }
            }
        }
        plan
    }

    /// Does the plan crash `rank` at merge round `round`?
    pub fn should_crash(&self, rank: usize, round: u32) -> bool {
        self.events.contains(&FaultEvent::Crash { rank, round })
    }

    /// Does the plan panic `rank` at merge round `round`?
    pub fn should_panic(&self, rank: usize, round: u32) -> bool {
        self.events.contains(&FaultEvent::Panic { rank, round })
    }

    /// Compute-slowdown factor for `rank` (product of all matching
    /// `SlowRank` events; 1.0 when unaffected).
    pub fn slow_factor(&self, rank: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::SlowRank { rank: r, factor } if *r == rank => Some(*factor),
                _ => None,
            })
            .product()
    }

    /// The fate of the `nth` (1-based) cross-rank merge ship on the
    /// directed link `from -> to`: the first drop or delay event naming
    /// it, else [`SendFate::Deliver`].
    pub fn fate(&self, from: usize, to: usize, nth: u64) -> SendFate {
        let link = |f, t, n| (f, t, n) == (from, to, nth);
        for e in &self.events {
            match *e {
                FaultEvent::DropMsg { from, to, nth } if link(from, to, nth) => {
                    return SendFate::Drop
                }
                FaultEvent::DelayMsg {
                    from,
                    to,
                    nth,
                    delay_ms,
                } if link(from, to, nth) => {
                    return SendFate::Delay(Duration::from_millis(delay_ms))
                }
                _ => {}
            }
        }
        SendFate::Deliver
    }

    /// Total number of crash events (any rank, any round).
    pub fn n_crashes(&self) -> usize {
        let crash = |e: &&FaultEvent| matches!(e, FaultEvent::Crash { .. });
        self.events.iter().filter(crash).count()
    }

    /// Does every event fit a run of `ranks` ranks and `rounds` merge
    /// rounds: every rank below `ranks`, every cut in `1..=rounds + 1`
    /// (the last is the pre-write cut)? The error names the first clause
    /// that does not fit.
    pub fn check(&self, ranks: usize, rounds: u32) -> Result<(), String> {
        use FaultEvent::*;
        let n = rounds + 1; // cuts 1..=n, the last before the write
        for e in &self.events {
            let (named, cut) = match *e {
                Crash { rank, round } | Panic { rank, round } => ([rank, rank], Some(round)),
                DropMsg { from, to, .. } | DelayMsg { from, to, .. } => ([from, to], None),
                SlowRank { rank, .. } => ([rank, rank], None),
            };
            let why = match (named.iter().find(|&&r| r >= ranks), cut) {
                (Some(r), _) => format!("rank {r} of a {ranks}-rank run"),
                (_, Some(k)) if k == 0 || k > n => format!("cut {k} of a run with cuts 1..={n}"),
                _ => continue,
            };
            return Err(format!("fault clause \"{e}\" names {why}"));
        }
        Ok(())
    }
}

/// One clause of the spec [`FaultPlan::from_str`] reads.
impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FaultEvent::*;
        match *self {
            Crash { rank, round } => write!(f, "crash:{rank}@{round}"),
            Panic { rank, round } => write!(f, "panic:{rank}@{round}"),
            DropMsg { from, to, nth } => write!(f, "drop:{from}->{to}#{nth}"),
            DelayMsg {
                from,
                to,
                nth,
                delay_ms: ms,
            } => write!(f, "delay:{from}->{to}#{nth}+{ms}"),
            SlowRank { rank, factor } => write!(f, "slow:{rank}*{factor}"),
        }
    }
}

/// The spec [`FaultPlan::from_str`] reads back into this plan.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let clauses: Vec<String> = self.events.iter().map(FaultEvent::to_string).collect();
        f.write_str(&clauses.join(";"))
    }
}

/// Error from parsing a `--faults` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// The offending `;`-separated clause.
    pub clause: String,
    pub what: &'static str,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.what)
    }
}

impl std::error::Error for PlanParseError {}

fn parse_num<T: FromStr>(s: &str, clause: &str, what: &'static str) -> Result<T, PlanParseError> {
    s.trim().parse().map_err(|_| PlanParseError {
        clause: clause.to_string(),
        what,
    })
}

/// Parse the CLI fault spec: `;`-separated clauses, each one of
///
/// * `crash:R@K` — crash rank R at merge round K
/// * `panic:R@K` — panic on rank R at merge round K
/// * `drop:F->T#N` — drop the Nth merge ship from rank F to rank T
/// * `delay:F->T#N+MS` — hold that ship back MS milliseconds
/// * `slow:R*F` — multiply rank R's compute time by F
///
/// e.g. `--faults 'crash:2@1;drop:0->3#7'`.
impl FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::new();
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let bad = |what| PlanParseError {
                clause: clause.to_string(),
                what,
            };
            let (kind, rest) = clause
                .split_once(':')
                .ok_or(bad("missing `kind:` prefix"))?;
            match kind.trim() {
                "crash" => {
                    let (r, k) = rest.split_once('@').ok_or(bad("expected `crash:R@K`"))?;
                    plan = plan.crash(
                        parse_num(r, clause, "bad rank")?,
                        parse_num(k, clause, "bad round")?,
                    );
                }
                "panic" => {
                    let (r, k) = rest.split_once('@').ok_or(bad("expected `panic:R@K`"))?;
                    plan = plan.panic(
                        parse_num(r, clause, "bad rank")?,
                        parse_num(k, clause, "bad round")?,
                    );
                }
                "drop" => {
                    let (link, n) = rest.split_once('#').ok_or(bad("expected `drop:F->T#N`"))?;
                    let (f, t) = link.split_once("->").ok_or(bad("expected `F->T` link"))?;
                    plan = plan.drop_msg(
                        parse_num(f, clause, "bad source rank")?,
                        parse_num(t, clause, "bad destination rank")?,
                        parse_num(n, clause, "bad message ordinal")?,
                    );
                }
                "delay" => {
                    let (link, tail) = rest
                        .split_once('#')
                        .ok_or(bad("expected `delay:F->T#N+MS`"))?;
                    let (f, t) = link.split_once("->").ok_or(bad("expected `F->T` link"))?;
                    let (n, ms) = tail.split_once('+').ok_or(bad("expected `N+MS` tail"))?;
                    plan = plan.delay_msg(
                        parse_num(f, clause, "bad source rank")?,
                        parse_num(t, clause, "bad destination rank")?,
                        parse_num(n, clause, "bad message ordinal")?,
                        parse_num(ms, clause, "bad delay (ms)")?,
                    );
                }
                "slow" => {
                    let (r, f) = rest.split_once('*').ok_or(bad("expected `slow:R*F`"))?;
                    let factor: f64 = parse_num(f, clause, "bad slowdown factor")?;
                    if factor < 1.0 || factor.is_nan() {
                        return Err(bad("slowdown factor must be >= 1"));
                    }
                    plan = plan.slow_rank(parse_num(r, clause, "bad rank")?, factor);
                }
                _ => return Err(bad("unknown kind (crash|panic|drop|delay|slow)")),
            }
        }
        Ok(plan)
    }
}
