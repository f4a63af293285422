//! Persistence-based simplification (paper §III-C, §IV-E).
//!
//! Repeatedly cancel the lowest-persistence pair of critical points
//! connected by an arc. A cancellation removes the two nodes and every
//! arc touching them, then reconnects their neighbourhoods: for every
//! other arc `x→l` into the lower node and every other arc `u→y` out of
//! the upper node, a new arc `x→y` is created whose geometry splices the
//! three old paths. The paper's parallel restriction applies: **arcs with
//! a boundary endpoint are never cancelled** (§IV-E), keeping shared
//! faces intact for gluing.
//!
//! A cancellation is legal only when the two nodes are connected by
//! exactly one arc — a doubled arc would turn into a closed V-path upon
//! reversal.
//!
//! The cancellation *ordering* is pluggable ([`CancelOrder`]): the
//! classic persistence `|f(u) − f(l)|` difference, or manifold size
//! (`count`, in the style of topopy's orderings), which cancels only
//! pairs that kill an extremum. [`simplify_with`] can
//! log every cancellation as a [`CancelRecord`]; a logged sequence can
//! then be re-executed positionally by [`replay_cancellation`] — both
//! paths share `execute_cancellation` verbatim, which is what makes
//! hierarchy replay bit-identical to a direct simplification run.
//!
//! **Cost.** A cancellation costs what the neighbourhood it rewrites
//! costs. Before the splice, the multiplicity of every pair `(x, y)` of
//! a distinct upper neighbour `x` and lower neighbour `y` goes into one
//! reusable `|x| · |y|` table, counted from whichever side's incidence
//! lists are shorter in total, each list walked once; the parallel-arc
//! cap is then read off the table: `min(Σ_x deg x, Σ_y deg y) +
//! |above| · |below|` steps, not a `multiplicity(x, y)` scan per pair.
//! The legality test stops at the second connecting arc, on the shorter
//! incidence list. Degrees count tombstones, which the loop sweeps out
//! every 512 cancellations.
//!
//! **Queue.** Only arcs the pass can still cancel are queued. Never
//! pushed: an arc with a boundary endpoint (flags are fixed for a pass),
//! an arc whose key is above the threshold (keys never shrink), and a
//! splice arc that is the second or later parallel arc of its pair (a
//! doubled pair stays doubled while both ends live). Dropping them
//! changes no pop the loop would have acted on, so the sequence, the
//! created arcs and their ids are those of the unfiltered queue; the
//! pass ends when the queue is empty.

use crate::skeleton::{ArcId, Cancellation, MsComplex, NodeId};
use msp_grid::field::OrderedF32;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Simplification configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimplifyParams {
    /// Cancel pairs with persistence **at most** this (absolute value).
    pub threshold: f32,
    /// Skip a cancellation if it would create more than this many arcs
    /// (valence explosion guard); `None` = unlimited.
    pub max_new_arcs: Option<u64>,
    /// Cap on *stored* parallel arcs between one node pair. Any value of
    /// at least 2 is provably neutral to the cancellation sequence:
    /// legality only distinguishes multiplicity 1 from 2-or-more, true
    /// multiplicity never decreases while both endpoints live, and pair
    /// existence is preserved — so capping only bounds memory and output
    /// size on degenerate (perfectly symmetric) fields, where
    /// composite-arc counts would otherwise grow combinatorially. The
    /// same invariant (stored multiplicity never falls either) is why the
    /// loop queues only the first arc a splice creates for a pair. `None`
    /// stores every composite arc, as the paper's data structure \[14\]
    /// does. `Some(1)` is *not* neutral: a pair that should be doubled is
    /// stored, and cancelled, as single.
    pub max_parallel_arcs: Option<u32>,
}

impl SimplifyParams {
    pub fn up_to(threshold: f32) -> Self {
        SimplifyParams {
            threshold,
            max_new_arcs: None,
            max_parallel_arcs: Some(2),
        }
    }
}

/// Counters from one simplification pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    pub cancellations: u64,
    pub arcs_removed: u64,
    pub arcs_created: u64,
    pub skipped_valence: u64,
    /// Composite arcs not stored because the pair hit `max_parallel_arcs`.
    pub capped_parallel: u64,
}

/// A configuration or data defect that makes persistence ordering
/// meaningless. Detected up front, before any cancellation, so a
/// returned error leaves the complex untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimplifyError {
    /// `threshold` is NaN: every `persistence > threshold` comparison is
    /// false, so the loop would cancel *everything* regardless of
    /// persistence. (`+inf` remains a legal "simplify fully" request.)
    NanThreshold,
    /// A live node carries a non-finite function value; persistences
    /// involving it are NaN/inf and would corrupt the heap order.
    NonFiniteValue { addr: u64, value: f32 },
}

impl fmt::Display for SimplifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimplifyError::NanThreshold => write!(f, "simplification threshold is NaN"),
            SimplifyError::NonFiniteValue { addr, value } => {
                write!(f, "node at address {addr} has non-finite value {value}")
            }
        }
    }
}

impl std::error::Error for SimplifyError {}

/// Forward target of a cancelled extremum whose saddle had no surviving
/// sibling extremum (matches `msp_segment::DRAIN_ADDR`).
pub const FORWARD_DRAIN: u64 = u64::MAX;

/// The key that decides which legal pair is cancelled next.
pub enum CancelOrder {
    /// Classic persistence `|f(u) − f(l)|`.
    Difference,
    /// Manifold size: the region size (vertex/voxel count from the
    /// segmentation label tables) of the extremum the cancellation would
    /// remove, so that smaller features are absorbed into neighbouring
    /// larger ones first (topopy's `count`). A saddle–saddle pair removes
    /// no extremum and has no size: it is never cancelled, and a `Count`
    /// pass is a pure sequence of extremum merges. The map is updated in
    /// place as cancellations merge regions — the forward target absorbs
    /// the dead extremum's size — so a key can only ever grow, which
    /// keeps the lazily-reinserted heap order sound.
    Count(HashMap<u64, u64>),
}

/// One cancellation as logged by [`simplify_with`] — everything a
/// positional replay needs to repeat it on the same base complex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CancelRecord {
    /// Global address of the upper (index d) node.
    pub upper_addr: u64,
    /// Global address of the lower (index d−1) node.
    pub lower_addr: u64,
    /// `|f(u) − f(l)|`, regardless of ordering.
    pub persistence: f32,
    /// The ordering key the pair was cancelled at (equals `persistence`
    /// under [`CancelOrder::Difference`]).
    pub key: f32,
    /// Segmentation forward entry `(dead extremum, survivor)` when the
    /// cancellation killed an extremum.
    pub forward: Option<(u64, u64)>,
}

/// Why a recorded cancellation cannot be re-executed on this complex —
/// the record does not describe a legal cancellation of the current
/// state, i.e. the replay base or prefix does not match the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// No live node at this address.
    UnknownNode { addr: u64 },
    /// The pair is not connected by exactly one live arc.
    BadMultiplicity { upper: u64, lower: u64, n: usize },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownNode { addr } => {
                write!(f, "replay: no live node at address {addr:#x}")
            }
            ReplayError::BadMultiplicity { upper, lower, n } => write!(
                f,
                "replay: pair {upper:#x}/{lower:#x} has multiplicity {n}, want 1"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Run persistence simplification up to `params.threshold`.
pub fn simplify(
    ms: &mut MsComplex,
    params: SimplifyParams,
) -> Result<SimplifyStats, SimplifyError> {
    simplify_forwarding(ms, params, None)
}

/// Like [`simplify`], additionally recording a *forward entry*
/// `(dead_addr, target_addr)` for every extremum the pass cancels:
/// a `(1-saddle, min)` cancellation forwards the dead minimum to the
/// lowest other minimum adjacent to the saddle (ties broken by address),
/// a `(max, 2-saddle)` cancellation forwards the dead maximum to the
/// highest other maximum adjacent to the saddle. A saddle with no other
/// extremum neighbour forwards to [`FORWARD_DRAIN`]. Targets may
/// themselves be cancelled later — consumers resolve chains by path
/// compression. Saddle-saddle cancellations record nothing.
pub fn simplify_forwarding(
    ms: &mut MsComplex,
    params: SimplifyParams,
    forwards: Option<&mut Vec<(u64, u64)>>,
) -> Result<SimplifyStats, SimplifyError> {
    simplify_with(ms, params, &mut CancelOrder::Difference, None, forwards)
}

/// Keyed simplification: cancel legal pairs in increasing `order`-key
/// order while the key is at most `params.threshold` (so for
/// [`CancelOrder::Count`] the threshold is a region size, not a
/// persistence, and saddle–saddle pairs are never cancelled).
/// Optionally logs every executed cancellation to `log` and forward
/// entries to `forwards`. With [`CancelOrder::Difference`], no logging,
/// and no forwarding this is exactly [`simplify`].
pub fn simplify_with(
    ms: &mut MsComplex,
    params: SimplifyParams,
    order: &mut CancelOrder,
    mut log: Option<&mut Vec<CancelRecord>>,
    mut forwards: Option<&mut Vec<(u64, u64)>>,
) -> Result<SimplifyStats, SimplifyError> {
    if params.threshold.is_nan() {
        return Err(SimplifyError::NanThreshold);
    }
    if let Some(bad) = ms.nodes.iter().find(|n| n.alive && !n.value.is_finite()) {
        return Err(SimplifyError::NonFiniteValue {
            addr: bad.addr,
            value: bad.value,
        });
    }
    let mut stats = SimplifyStats::default();
    let mut since_prune = 0u32;
    let mut heap: BinaryHeap<Reverse<(OrderedF32, ArcId)>> = BinaryHeap::new();
    for (i, _) in ms.arcs.iter().enumerate().filter(|(_, a)| a.alive) {
        push_candidate(ms, i as ArcId, order, params.threshold, &mut heap);
    }
    // everything queued is within the threshold, so the pass ends when
    // the heap runs dry
    while let Some(Reverse((k, a))) = heap.pop() {
        if !ms.arcs[a as usize].alive {
            continue;
        }
        let arc = ms.arcs[a as usize];
        let (u, l) = (arc.upper, arc.lower);
        // only keyed pairs are queued, and a pair's key kind is fixed
        let now = order_key(ms, order, u, l).expect("queued pairs are keyed");
        if OrderedF32::new(now) != k {
            // Stale key: a Count size grew since the push. Requeue at the
            // current key (unless that left the threshold behind);
            // everything still in the heap sits at or above `k` and true
            // keys never shrink, so the ordering stays sound. (Difference
            // keys never change, so this branch is unreachable there.)
            debug_assert!(now > k.value());
            if now <= params.threshold {
                heap.push(Reverse((OrderedF32::new(now), a)));
            }
            continue;
        }
        debug_assert!(now <= params.threshold);
        debug_assert!(!ms.nodes[u as usize].boundary && !ms.nodes[l as usize].boundary);
        if ms.arcs_between(u, l).nth(1).is_some() {
            continue; // doubled since it was queued
        }
        // neighbourhood arcs
        let above: Vec<ArcId> = ms.arcs_above(l).filter(|&x| x != a).collect();
        let below: Vec<ArcId> = ms.arcs_below(u).filter(|&x| x != a).collect();
        // arcs from u into l other than `a` cannot exist here (mult == 1),
        // but u may have other *upward* arcs and l other *downward* arcs —
        // those are simply deleted with their node.
        let new_count = above.len() as u64 * below.len() as u64;
        if let Some(cap) = params.max_new_arcs {
            if new_count > cap {
                stats.skipped_valence += 1;
                continue;
            }
        }
        let current = persistence(ms, u, l);
        let (upper_addr, lower_addr) = (ms.nodes[u as usize].addr, ms.nodes[l as usize].addr);
        let ord: &CancelOrder = order;
        let fwd = execute_cancellation(
            ms,
            a,
            &above,
            &below,
            current,
            params.max_parallel_arcs,
            &mut stats,
            |m, id| push_candidate(m, id, ord, params.threshold, &mut heap),
        );
        if let CancelOrder::Count(sizes) = &mut *order {
            if let Some((dead, target)) = fwd {
                let amount = sizes.remove(&dead).unwrap_or(0);
                if target != FORWARD_DRAIN && amount > 0 {
                    *sizes.entry(target).or_insert(0) += amount;
                }
            }
        }
        if let Some(log) = log.as_deref_mut() {
            log.push(CancelRecord {
                upper_addr,
                lower_addr,
                persistence: current,
                key: now,
                forward: fwd,
            });
        }
        if let Some(fw) = forwards.as_deref_mut() {
            if let Some(e) = fwd {
                fw.push(e);
            }
        }
        since_prune += 1;
        if since_prune == 512 {
            ms.prune_dead_adjacency();
            since_prune = 0;
        }
    }
    debug_assert!(ms.splice.slot.iter().all(|&c| c == 0));
    Ok(stats)
}

/// Re-execute one recorded cancellation, identified by the pair's global
/// addresses (node/arc ids are not stable across compaction or the
/// wire). The connecting arc is recovered through the legality invariant
/// — a cancelled pair has multiplicity exactly 1 at execution time — and
/// the cancellation body is `execute_cancellation`, shared with the
/// live loop, so a positional replay of a [`CancelRecord`] log rebuilds
/// the complex bit-identically. Returns the forward entry.
pub fn replay_cancellation(
    ms: &mut MsComplex,
    upper_addr: u64,
    lower_addr: u64,
    max_parallel_arcs: Option<u32>,
    stats: &mut SimplifyStats,
) -> Result<Option<(u64, u64)>, ReplayError> {
    let u = ms
        .node_at(upper_addr)
        .ok_or(ReplayError::UnknownNode { addr: upper_addr })?;
    let l = ms
        .node_at(lower_addr)
        .ok_or(ReplayError::UnknownNode { addr: lower_addr })?;
    let a = {
        let mut connecting = ms.arcs_between(u, l);
        match (connecting.next(), connecting.next()) {
            (Some(a), None) => a,
            (first, _) => {
                return Err(ReplayError::BadMultiplicity {
                    upper: upper_addr,
                    lower: lower_addr,
                    n: first.map_or(0, |_| 2 + connecting.count()),
                })
            }
        }
    };
    let above: Vec<ArcId> = ms.arcs_above(l).filter(|&x| x != a).collect();
    let below: Vec<ArcId> = ms.arcs_below(u).filter(|&x| x != a).collect();
    let current = persistence(ms, u, l);
    Ok(execute_cancellation(
        ms,
        a,
        &above,
        &below,
        current,
        max_parallel_arcs,
        stats,
        |_, _| {},
    ))
}

/// Execute one legal cancellation of arc `a = (u, l)`: create the splice
/// arcs over `above × below` (respecting the parallel-arc cap), delete
/// every arc incident to the pair, kill both nodes, and append the
/// hierarchy record. `on_new_arc` sees each created arc that is the only
/// one between its endpoints (the live loop queues it; replay ignores
/// it). Returns the segmentation forward entry, if the cancellation
/// killed an extremum.
#[allow(clippy::too_many_arguments)]
fn execute_cancellation(
    ms: &mut MsComplex,
    a: ArcId,
    above: &[ArcId],
    below: &[ArcId],
    persistence: f32,
    max_parallel_arcs: Option<u32>,
    stats: &mut SimplifyStats,
    mut on_new_arc: impl FnMut(&MsComplex, ArcId),
) -> Option<(u64, u64)> {
    let arc = ms.arcs[a as usize];
    let (u, l) = (arc.upper, arc.lower);
    let fwd = forward_entry(ms, u, l, above, below);
    // create replacement arcs x -> y, capping each pair's multiplicity;
    // the scratch is moved out so the loop can grow the complex
    let cap = max_parallel_arcs.unwrap_or(u32::MAX);
    let mut n_created = 0u32;
    let mut sp = std::mem::take(&mut ms.splice);
    ms.count_splice_pairs(&mut sp, above, below);
    // room for every arc the splice adds, so no list moves twice
    ms.reserve_incidence(sp.added(cap));
    for &a1 in above {
        let (x, first) = (ms.arcs[a1 as usize].upper, ms.arcs[a1 as usize].geom);
        debug_assert_ne!(x, u);
        for &a2 in below {
            let (y, last) = (ms.arcs[a2 as usize].lower, ms.arcs[a2 as usize].geom);
            debug_assert_ne!(y, l);
            let cell = sp.cell(x, y);
            let parallel = sp.table[cell];
            if parallel >= cap {
                stats.capped_parallel += 1;
                continue;
            }
            let g = ms.add_cancel_geom(first, arc.geom, last);
            let id = ms.add_arc(x, y, g);
            sp.table[cell] = parallel + 1;
            // a pair that is doubled stays doubled while both ends live,
            // so only the first arc of a pair is ever a candidate
            if parallel == 0 {
                on_new_arc(ms, id);
            }
            stats.arcs_created += 1;
            n_created += 1;
        }
    }
    sp.clear();
    ms.splice = sp;
    // delete all arcs incident to u or l, then the nodes
    let doomed: Vec<ArcId> = ms.arcs_of(u).chain(ms.arcs_of(l)).collect();
    let mut n_deleted = 0u32;
    for d in doomed {
        if ms.arcs[d as usize].alive {
            ms.kill_arc(d);
            n_deleted += 1;
        }
    }
    ms.kill_node(u, persistence);
    ms.kill_node(l, persistence);
    stats.arcs_removed += n_deleted as u64;
    stats.cancellations += 1;
    ms.hierarchy.push(Cancellation {
        persistence,
        upper: u,
        lower: l,
        n_deleted_arcs: n_deleted,
        n_created_arcs: n_created,
    });
    fwd
}

/// The segmentation forward entry for one cancellation, if it kills an
/// extremum. `above`/`below` are the saddle's surviving neighbour arcs
/// (the cancelled arc already excluded).
fn forward_entry(
    ms: &MsComplex,
    u: NodeId,
    l: NodeId,
    above: &[ArcId],
    below: &[ArcId],
) -> Option<(u64, u64)> {
    let key = |n: NodeId| {
        (
            OrderedF32::new(ms.nodes[n as usize].value),
            ms.nodes[n as usize].addr,
        )
    };
    if ms.nodes[l as usize].index == 0 {
        // (1-saddle u, min l): the dead minimum's basin drains to the
        // lowest other minimum adjacent to u.
        let target = below
            .iter()
            .map(|&a2| key(ms.arcs[a2 as usize].lower))
            .min()
            .map(|(_, addr)| addr)
            .unwrap_or(FORWARD_DRAIN);
        Some((ms.nodes[l as usize].addr, target))
    } else if ms.nodes[u as usize].index == 3 {
        // (max u, 2-saddle l): the dead maximum's mountain is absorbed
        // by the highest other maximum adjacent to l.
        let target = above
            .iter()
            .map(|&a1| key(ms.arcs[a1 as usize].upper))
            .max()
            .map(|(_, addr)| addr)
            .unwrap_or(FORWARD_DRAIN);
        Some((ms.nodes[u as usize].addr, target))
    } else {
        None
    }
}

fn persistence(ms: &MsComplex, u: NodeId, l: NodeId) -> f32 {
    (ms.nodes[u as usize].value - ms.nodes[l as usize].value).abs()
}

/// The ordering key of the pair `(u, l)` under `order`, or `None` when
/// the ordering never cancels it: a saddle–saddle pair has no manifold
/// size to key on under [`CancelOrder::Count`].
fn order_key(ms: &MsComplex, order: &CancelOrder, u: NodeId, l: NodeId) -> Option<f32> {
    match order {
        CancelOrder::Difference => Some(persistence(ms, u, l)),
        CancelOrder::Count(sizes) => {
            let (un, ln) = (&ms.nodes[u as usize], &ms.nodes[l as usize]);
            let extremum = if ln.index == 0 {
                ln.addr
            } else if un.index == 3 {
                un.addr
            } else {
                return None;
            };
            Some(*sizes.get(&extremum).unwrap_or(&0) as f32)
        }
    }
}

/// Queue arc `a` under its current key — unless this pass can never
/// cancel it: boundary flags are fixed for a pass, a pair the ordering
/// has no key for never gets one, and a key above the threshold stays
/// there (keys never shrink under either ordering).
fn push_candidate(
    ms: &MsComplex,
    a: ArcId,
    order: &CancelOrder,
    threshold: f32,
    heap: &mut BinaryHeap<Reverse<(OrderedF32, ArcId)>>,
) {
    let arc = &ms.arcs[a as usize];
    if ms.nodes[arc.upper as usize].boundary || ms.nodes[arc.lower as usize].boundary {
        return; // boundary nodes are anchors for gluing
    }
    match order_key(ms, order, arc.upper, arc.lower) {
        Some(k) if k <= threshold => heap.push(Reverse((OrderedF32::new(k), a))),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_block_complex;
    use crate::wire;
    use msp_grid::decomp::Decomposition;
    use msp_grid::{Dims, ScalarField};
    use msp_morse::TraceLimits;

    fn serial(f: &ScalarField) -> MsComplex {
        let d = Decomposition::bisect(f.dims(), 1);
        build_block_complex(&f.extract_block(d.block(0)), &d, TraceLimits::default()).0
    }

    /// Morse-index alternating sum is invariant under cancellation.
    fn chi(ms: &MsComplex) -> i64 {
        let c = ms.node_census();
        c[0] as i64 - c[1] as i64 + c[2] as i64 - c[3] as i64
    }

    /// Pseudo-random positive region size per extremum, for `Count`.
    fn synthetic_sizes(ms: &MsComplex) -> HashMap<u64, u64> {
        ms.nodes
            .iter()
            .filter(|n| n.alive && (n.index == 0 || n.index == 3))
            .map(|n| (n.addr, 1 + (n.addr % 97)))
            .collect()
    }

    /// Living arcs a pass to `threshold` could still cancel: no boundary
    /// endpoint, singly connected, keyed at most `threshold` (`order`
    /// holds the sizes as the pass left them). Only the valence guard may
    /// leave any, and each one it leaves it skipped once in that pass.
    fn legal_pairs_left(ms: &MsComplex, order: &CancelOrder, threshold: f32) -> u64 {
        let legal = |a: &&crate::skeleton::Arc| {
            a.alive
                && !ms.nodes[a.upper as usize].boundary
                && !ms.nodes[a.lower as usize].boundary
                && ms.multiplicity(a.upper, a.lower) == 1
                && order_key(ms, order, a.upper, a.lower).is_some_and(|k| k <= threshold)
        };
        ms.arcs.iter().filter(legal).count() as u64
    }

    /// What `two_pass_counts` returns — `[cancellations, arcs_created,
    /// arcs_removed, capped_parallel, skipped_valence]` — one row per
    /// field × ordering × valence guard in the order
    /// `queue_keeps_every_legal_pair_and_the_pinned_counts` loops, named
    /// by them, one entry per `max_parallel_arcs` of `None, Some(1),
    /// Some(2), Some(3)`. Captured by running that test at commit 22d1297
    /// (the parent of the linear-splice engine); the `count` rows were
    /// re-captured once when that ordering stopped cancelling saddle
    /// pairs. Re-capture only when a synthetic generator or an ordering's
    /// definition changes (and then only that ordering's rows), never to
    /// make an engine change pass.
    const PINNED_COUNTS: [(&str, [[u64; 5]; 4]); 8] = [
        (
            "noise difference",
            [
                [229, 1029, 2217, 0, 0],
                [228, 435, 1806, 147, 0],
                [229, 564, 1904, 214, 0],
                [229, 639, 1965, 268, 0],
            ],
        ),
        (
            "noise difference guard",
            [
                [221, 356, 1646, 0, 79],
                [224, 319, 1660, 50, 76],
                [222, 350, 1650, 15, 77],
                [221, 353, 1645, 3, 79],
            ],
        ),
        (
            "noise count",
            [
                [122, 360, 1115, 0, 0],
                [122, 316, 1099, 32, 0],
                [122, 360, 1115, 0, 0],
                [122, 360, 1115, 0, 0],
            ],
        ),
        (
            "noise count guard",
            [
                [113, 211, 932, 0, 149],
                [117, 195, 996, 16, 119],
                [113, 211, 932, 0, 149],
                [113, 211, 932, 0, 149],
            ],
        ),
        (
            "plateau difference",
            [
                [197, 775, 1817, 0, 0],
                [196, 400, 1565, 195, 0],
                [197, 559, 1676, 149, 0],
                [197, 615, 1716, 137, 0],
            ],
        ),
        (
            "plateau difference guard",
            [
                [195, 346, 1477, 0, 65],
                [195, 295, 1447, 31, 47],
                [195, 339, 1473, 7, 65],
                [195, 344, 1476, 2, 65],
            ],
        ),
        (
            "plateau count",
            [
                [96, 290, 849, 0, 0],
                [96, 241, 833, 37, 0],
                [96, 290, 849, 0, 0],
                [96, 290, 849, 0, 0],
            ],
        ),
        (
            "plateau count guard",
            [
                [85, 162, 670, 0, 120],
                [91, 146, 742, 16, 89],
                [85, 162, 670, 0, 120],
                [85, 162, 670, 0, 120],
            ],
        ),
    ];

    /// The counters of a thresholded pass and the pass to infinity that
    /// follows it (the pipeline's simplify, then re-simplify), summed
    /// over the four blocks of `d`; asserts after each pass that nothing
    /// the queue filter dropped was cancellable.
    fn two_pass_counts(
        f: &ScalarField,
        d: &Decomposition,
        sized: bool,
        mid: f32,
        max_new_arcs: Option<u64>,
        max_parallel_arcs: Option<u32>,
    ) -> [u64; 5] {
        let mut total = [0u64; 5];
        for b in d.blocks() {
            let (mut ms, _) = build_block_complex(&f.extract_block(b), d, TraceLimits::default());
            assert!(ms.nodes.iter().any(|n| n.boundary));
            let mut order = if sized {
                CancelOrder::Count(synthetic_sizes(&ms))
            } else {
                CancelOrder::Difference
            };
            for threshold in [mid, f32::INFINITY] {
                let params = SimplifyParams {
                    threshold,
                    max_new_arcs,
                    max_parallel_arcs,
                };
                let st = simplify_with(&mut ms, params, &mut order, None, None).unwrap();
                assert!(
                    legal_pairs_left(&ms, &order, threshold) <= st.skipped_valence,
                    "legal pairs left behind by {params:?}"
                );
                ms.check_integrity().unwrap();
                let st = [
                    st.cancellations,
                    st.arcs_created,
                    st.arcs_removed,
                    st.capped_parallel,
                    st.skipped_valence,
                ];
                for (t, s) in total.iter_mut().zip(st) {
                    *t += s;
                }
            }
        }
        total
    }

    #[test]
    fn queue_keeps_every_legal_pair_and_the_pinned_counts() {
        let dims = Dims::cube(9);
        let d = Decomposition::bisect(dims, 4);
        let fields = [
            (msp_synth::white_noise(dims, 12), 0.3),
            (msp_synth::plateau(dims, 12, 4), 1.0),
        ];
        let mut got = PINNED_COUNTS;
        let mut rows = got.iter_mut();
        for (f, difference_mid) in &fields {
            for (sized, mid) in [(false, *difference_mid), (true, 30.0)] {
                for max_new_arcs in [None, Some(6)] {
                    let (name, row) = rows.next().expect("one pinned row per case");
                    assert_eq!(name.contains("count"), sized, "{name}");
                    assert_eq!(name.contains("guard"), max_new_arcs.is_some(), "{name}");
                    *row = [None, Some(1), Some(2), Some(3)]
                        .map(|cap| two_pass_counts(f, &d, sized, mid, max_new_arcs, cap));
                }
            }
        }
        assert_eq!(got, PINNED_COUNTS, "counted now: {got:?}");
    }

    #[test]
    fn full_simplification_of_noise_leaves_chi() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 2);
        let mut ms = serial(&f);
        let chi_before = chi(&ms);
        let stats = simplify(&mut ms, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        assert!(stats.cancellations > 0);
        assert_eq!(chi(&ms), chi_before);
        ms.check_integrity().unwrap();
        // no boundary, no guard, no threshold: only pairs blocked by the
        // multiplicity rule remain (a doubled arc cannot be cancelled)
        assert_eq!(
            legal_pairs_left(&ms, &CancelOrder::Difference, f32::INFINITY),
            0,
            "a singly-connected pair should have been cancelled"
        );
        // and the complex must have shrunk dramatically
        assert!(ms.n_live_nodes() <= 16, "got {:?}", ms.node_census());
    }

    #[test]
    fn threshold_zero_cancels_only_zero_persistence() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 2);
        let mut ms = serial(&f);
        let live_before = ms.n_live_nodes();
        simplify(&mut ms, SimplifyParams::up_to(0.0)).unwrap();
        // distinct noise values: nothing at persistence exactly 0 unless
        // SoS plateaus — allow few, forbid mass cancellation
        assert!(ms.n_live_nodes() >= live_before / 2);
    }

    #[test]
    fn two_bumps_survive_small_threshold() {
        let dims = Dims::new(17, 9, 9);
        let f = ScalarField::from_fn(dims, |x, y, z| {
            let b = |cx: f32| {
                (-((x as f32 - cx).powi(2) + (y as f32 - 4.0).powi(2) + (z as f32 - 4.0).powi(2))
                    / 6.0)
                    .exp()
            };
            b(4.0) + b(12.0) + 0.001 * msp_synth::basic::hash_unit(9, dims.vertex_index(x, y, z))
        });
        let mut ms = serial(&f);
        simplify(&mut ms, SimplifyParams::up_to(0.05)).unwrap();
        let census = ms.node_census();
        assert_eq!(census[3], 2, "both maxima must survive 5%: {:?}", census);
        // simplifying all the way merges them
        simplify(&mut ms, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        assert_eq!(
            ms.node_census()[3],
            0,
            "maxima die on a box when fully simplified"
        );
    }

    #[test]
    fn cancelled_pairs_ordered_by_persistence() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 44);
        let mut ms = serial(&f);
        simplify(&mut ms, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        // each cancellation's persistence is within threshold and the
        // hierarchy is (weakly) monotone up to re-ordering slack created
        // by newly-created arcs; verify every recorded persistence is
        // >= the minimum of later... the strong property: recorded
        // persistences are exactly |f(u) - f(l)| — checked in the loop —
        // and the FIRST cancellation is the global minimum candidate.
        assert!(!ms.hierarchy.is_empty());
        for c in &ms.hierarchy {
            assert!(c.persistence >= 0.0);
        }
    }

    #[test]
    fn boundary_nodes_never_cancelled() {
        let dims = Dims::new(9, 9, 9);
        let f = msp_synth::white_noise(dims, 12);
        let d = Decomposition::bisect(dims, 4);
        for b in d.blocks() {
            let (mut ms, _) = build_block_complex(&f.extract_block(b), &d, TraceLimits::default());
            let boundary_before: Vec<u64> = ms
                .nodes
                .iter()
                .filter(|n| n.boundary)
                .map(|n| n.addr)
                .collect();
            simplify(&mut ms, SimplifyParams::up_to(f32::INFINITY)).unwrap();
            for addr in boundary_before {
                let id = ms.node_at(addr).expect("boundary node survived");
                assert!(ms.nodes[id as usize].alive);
            }
        }
    }

    #[test]
    fn valence_guard_skips() {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 21);
        let mut ms = serial(&f);
        let stats = simplify(
            &mut ms,
            SimplifyParams {
                threshold: f32::INFINITY,
                max_new_arcs: Some(0),
                max_parallel_arcs: Some(2),
            },
        )
        .unwrap();
        // with a zero cap, only cancellations creating no arcs happen
        assert_eq!(stats.arcs_created, 0);
    }

    #[test]
    fn nan_threshold_and_nan_values_are_typed_errors() {
        let f = msp_synth::white_noise(Dims::new(6, 6, 6), 3);
        let mut ms = serial(&f);
        assert_eq!(
            simplify(&mut ms, SimplifyParams::up_to(f32::NAN)),
            Err(SimplifyError::NanThreshold)
        );
        let victim = ms.nodes.iter().position(|n| n.alive).unwrap();
        let addr = ms.nodes[victim].addr;
        ms.nodes[victim].value = f32::NAN;
        let err = simplify(&mut ms, SimplifyParams::up_to(0.1)).unwrap_err();
        match err {
            SimplifyError::NonFiniteValue { addr: a, value } => {
                assert_eq!(a, addr);
                assert!(value.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn forward_entries_cover_every_cancelled_extremum() {
        use std::collections::HashMap;
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 31);
        let mut ms = serial(&f);
        let mut fw: Vec<(u64, u64)> = Vec::new();
        simplify_forwarding(&mut ms, SimplifyParams::up_to(f32::INFINITY), Some(&mut fw)).unwrap();
        assert!(!fw.is_empty());
        // one entry per cancelled extremum, no extremum forwarded twice
        let dead_extrema = ms
            .hierarchy
            .iter()
            .filter(|c| {
                ms.nodes[c.lower as usize].index == 0 || ms.nodes[c.upper as usize].index == 3
            })
            .count();
        assert_eq!(fw.len(), dead_extrema);
        let map: HashMap<u64, u64> = fw.iter().copied().collect();
        assert_eq!(map.len(), fw.len(), "an extremum was forwarded twice");
        // every chain terminates at a live extremum (or the drain)
        for &(dead, _) in &fw {
            let mut cur = dead;
            let mut hops = 0;
            while let Some(&next) = map.get(&cur) {
                cur = next;
                hops += 1;
                assert!(hops <= fw.len(), "forward cycle at {dead:#x}");
                if cur == FORWARD_DRAIN {
                    break;
                }
            }
            if cur != FORWARD_DRAIN {
                let id = ms.node_at(cur).expect("chain ends at a known node");
                let n = &ms.nodes[id as usize];
                assert!(n.alive, "chain from {dead:#x} ends at dead node");
                assert!(n.index == 0 || n.index == 3);
            }
        }
    }

    #[test]
    fn plain_simplify_unaffected_by_forwarding_path() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 5);
        let mut a = serial(&f);
        let mut b = serial(&f);
        let mut fw = Vec::new();
        let sa = simplify(&mut a, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        let sb = simplify_forwarding(&mut b, SimplifyParams::up_to(f32::INFINITY), Some(&mut fw))
            .unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.hierarchy.len(), b.hierarchy.len());
    }

    #[test]
    fn hierarchy_records_match_stats() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 77);
        let mut ms = serial(&f);
        let stats = simplify(&mut ms, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        assert_eq!(stats.cancellations as usize, ms.hierarchy.len());
        let created: u64 = ms.hierarchy.iter().map(|c| c.n_created_arcs as u64).sum();
        assert_eq!(created, stats.arcs_created);
    }

    #[test]
    fn logged_run_matches_plain_run_and_stats() {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 13);
        let mut a = serial(&f);
        let mut b = serial(&f);
        let mut log = Vec::new();
        let sa = simplify(&mut a, SimplifyParams::up_to(f32::INFINITY)).unwrap();
        let sb = simplify_with(
            &mut b,
            SimplifyParams::up_to(f32::INFINITY),
            &mut CancelOrder::Difference,
            Some(&mut log),
            None,
        )
        .unwrap();
        assert_eq!(sa, sb);
        assert_eq!(log.len() as u64, sb.cancellations);
        // the log's pairs are exactly the hierarchy's pairs, in order,
        // and difference keys equal persistences
        for (r, c) in log.iter().zip(&b.hierarchy) {
            assert_eq!(r.persistence, c.persistence);
            assert_eq!(r.key, c.persistence);
        }
        a.compact();
        b.compact();
        assert_eq!(wire::serialize(&a), wire::serialize(&b));
    }

    /// Positional prefix replay of a logged run is bit-identical to a
    /// direct run stopped at the same threshold.
    #[test]
    fn replayed_prefix_matches_direct_simplify() {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 71);
        let base = serial(&f);
        let mut log = Vec::new();
        let mut full = base.clone();
        simplify_with(
            &mut full,
            SimplifyParams::up_to(f32::INFINITY),
            &mut CancelOrder::Difference,
            Some(&mut log),
            None,
        )
        .unwrap();
        assert!(log.len() > 4);
        for t in [0.0f32, log[log.len() / 2].key, f32::INFINITY] {
            let mut direct = base.clone();
            let mut dfw = Vec::new();
            simplify_forwarding(&mut direct, SimplifyParams::up_to(t), Some(&mut dfw)).unwrap();
            direct.compact();
            let k = log.iter().position(|r| r.key > t).unwrap_or(log.len());
            let mut replayed = base.clone();
            let mut stats = SimplifyStats::default();
            let mut rfw = Vec::new();
            for r in &log[..k] {
                let fwd = replay_cancellation(
                    &mut replayed,
                    r.upper_addr,
                    r.lower_addr,
                    Some(2),
                    &mut stats,
                )
                .unwrap();
                assert_eq!(fwd, r.forward);
                if let Some(e) = fwd {
                    rfw.push(e);
                }
            }
            replayed.compact();
            assert_eq!(
                wire::serialize(&direct),
                wire::serialize(&replayed),
                "threshold {t}"
            );
            assert_eq!(dfw, rfw, "forward entries at threshold {t}");
        }
    }

    /// Count ordering: keys come from (and update) the size map, the
    /// sequence differs from the difference ordering, and a logged count
    /// run replays bit-identically too.
    #[test]
    fn count_order_uses_and_updates_sizes() {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), 23);
        let base = serial(&f);
        let sizes = synthetic_sizes(&base);
        let mut log = Vec::new();
        let mut full = base.clone();
        simplify_with(
            &mut full,
            SimplifyParams::up_to(f32::INFINITY),
            &mut CancelOrder::Count(sizes.clone()),
            Some(&mut log),
            None,
        )
        .unwrap();
        assert!(!log.is_empty());
        // extremum cancellations carry their region size as the key
        assert!(log
            .iter()
            .any(|r| r.forward.is_some() && r.key > 0.0 && r.key != r.persistence));
        // replay the full sequence: bit-identical complex
        let mut replayed = base.clone();
        let mut stats = SimplifyStats::default();
        for r in &log {
            replay_cancellation(
                &mut replayed,
                r.upper_addr,
                r.lower_addr,
                Some(2),
                &mut stats,
            )
            .unwrap();
        }
        full.compact();
        replayed.compact();
        assert_eq!(wire::serialize(&full), wire::serialize(&replayed));
        // and the sequence genuinely differs from the difference ordering
        let mut dlog = Vec::new();
        let mut d = base.clone();
        simplify_with(
            &mut d,
            SimplifyParams::up_to(f32::INFINITY),
            &mut CancelOrder::Difference,
            Some(&mut dlog),
            None,
        )
        .unwrap();
        let pairs = |l: &[CancelRecord]| {
            l.iter()
                .map(|r| (r.upper_addr, r.lower_addr))
                .collect::<Vec<_>>()
        };
        assert_ne!(pairs(&log), pairs(&dlog), "orderings should differ");
    }

    /// Count ordering is a pure extremum-merge sequence: every record
    /// kills an extremum, so it carries a forward entry, and no record
    /// joins two saddles, while a difference run of the same base does
    /// cancel saddle pairs.
    #[test]
    fn count_order_merges_extrema_only() {
        let base = serial(&msp_synth::white_noise(Dims::new(9, 9, 9), 19));
        let saddle_pairs = |order: &mut CancelOrder| {
            let mut log = Vec::new();
            let mut ms = base.clone();
            simplify_with(
                &mut ms,
                SimplifyParams::up_to(f32::INFINITY),
                order,
                Some(&mut log),
                None,
            )
            .unwrap();
            assert!(!log.is_empty());
            let index = |addr| base.nodes[base.node_at(addr).unwrap() as usize].index;
            let saddles = |r: &&CancelRecord| index(r.upper_addr) == 2 && index(r.lower_addr) == 1;
            (log.iter().filter(saddles).count(), log)
        };
        let (n, log) = saddle_pairs(&mut CancelOrder::Count(synthetic_sizes(&base)));
        assert_eq!(n, 0, "a count record joins two saddles");
        assert!(
            log.iter().all(|r| r.forward.is_some()),
            "a count record merges no extremum"
        );
        assert!(saddle_pairs(&mut CancelOrder::Difference).0 > 0);
    }

    #[test]
    fn replay_on_wrong_base_is_a_typed_error() {
        let f = msp_synth::white_noise(Dims::new(8, 8, 8), 2);
        let mut ms = serial(&f);
        let mut stats = SimplifyStats::default();
        // an address that is not a node
        let err = replay_cancellation(&mut ms, u64::MAX - 1, 0, Some(2), &mut stats);
        assert!(matches!(err, Err(ReplayError::UnknownNode { .. })));
    }
}
