//! # msp-segment
//!
//! The full Morse-Smale **segmentation**: per-vertex descending-manifold
//! labels (which minimum's basin a vertex drains to) and per-voxel
//! ascending-manifold labels (which maximum's mountain a voxel climbs
//! to), computed along the already-assigned discrete gradient.
//!
//! The computation is split the same way the paper splits the complex
//! construction (and the same way Will et al. split PL segmentations in
//! "Distributed Path Compression for Piecewise Linear Morse-Smale
//! Segmentations"):
//!
//! 1. a **local stage** ([`label_block`]) that propagates extremum
//!    labels along the owner-restricted gradient inside one block —
//!    because pairings never cross owner sets, every V-path stays inside
//!    its block and the stage needs no communication;
//! 2. a **distributed resolution stage** (in `msp-core::pipeline`) that
//!    pointer-jumps the [`ForwardMap`] of cancelled extrema to a fixed
//!    point across ranks and rewrites each block's extremum tables to
//!    the surviving representatives.
//!
//! The local stage is batched pointer doubling over flat `Vec<u32>`
//! successor arrays (no per-vertex recursion), chunked over
//! `msp_grid::par` slabs: results are placed in input order, so output
//! is bit-identical for every thread count.

pub mod label;
pub mod wire;

pub use label::{label_block, BlockSegmentation};

use std::collections::HashMap;

/// Sentinel address for an ascending path that exits the domain through
/// a boundary face instead of reaching a critical voxel (possible
/// whenever a voxel's paired quad lies on the domain boundary, e.g. on
/// ramp or constant fields whose restricted gradient has no interior
/// maximum).
pub const DRAIN_ADDR: u64 = u64::MAX;

/// Sentinel label-array entry for [`DRAIN_ADDR`].
pub const DRAIN_LABEL: u32 = u32::MAX;

/// Forward entries of cancelled extrema: dead extremum address →
/// representative it merged into (which may itself die later — the
/// distributed resolution stage compresses chains to live roots).
#[derive(Debug, Clone, Default)]
pub struct ForwardMap {
    map: HashMap<u64, u64>,
}

impl ForwardMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `dead → target`. Every extremum is cancelled at most once
    /// globally, so a duplicate insert indicates a protocol bug.
    pub fn insert(&mut self, dead: u64, target: u64) {
        debug_assert!(
            !self.map.contains_key(&dead),
            "extremum {dead:#x} forwarded twice"
        );
        self.map.insert(dead, target);
    }

    pub fn get(&self, addr: u64) -> Option<u64> {
        self.map.get(&addr).copied()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries in deterministic (sorted-by-key) order — the only way the
    /// map's contents may enter a wire message.
    pub fn sorted_entries(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.map.iter().map(|(&k, &t)| (k, t)).collect();
        v.sort_unstable();
        v
    }

    /// One synchronized pointer-jump pass over the owned entries:
    /// `lookup` must answer "what does address `t` currently forward
    /// to?" against the *pre-pass* global state (`None` = live). Returns
    /// the number of entries that advanced.
    pub fn jump_pass(&mut self, lookup: &HashMap<u64, u64>) -> u64 {
        let mut changed = 0;
        for target in self.map.values_mut() {
            if *target == DRAIN_ADDR {
                continue;
            }
            if let Some(&next) = lookup.get(target) {
                *target = next;
                changed += 1;
            }
        }
        changed
    }

    /// Fully resolve `addr` against this (already-compressed) map.
    pub fn resolve(&self, addr: u64) -> u64 {
        self.get(addr).unwrap_or(addr)
    }
}

/// The rank that owns (resolves forwards and serves table lookups for)
/// an extremum address.
///
/// The naive map `addr % n_ranks` is structurally biased: descending
/// labels are **vertex** addresses (always even on the refined grid) and
/// ascending labels are **voxel** addresses (always odd), so with an
/// even rank count the naive map routes every minimum to an even rank
/// and every maximum to an odd one. It also bakes in the assumption
/// that addresses — and the block ids folded into them — are dense and
/// contiguous, which irregular block trees break. Mixing the address
/// through a splitmix64 finalizer first spreads any structured address
/// set (parity-skewed, strided, or sparse) evenly over the ranks
/// ([`mix_address`](msp_grid::coord::mix_address)).
///
/// Every participant in the resolution protocol must use this one
/// function: the fixed point itself is partition-independent, but rounds
/// are synchronized, so routing must agree across ranks and drivers.
pub fn owner_rank(addr: u64, n_ranks: u64) -> u64 {
    debug_assert!(n_ranks >= 1);
    msp_grid::coord::mix_address(addr) % n_ranks
}

/// Upper bound on the number of pointer-jump rounds needed to reach the
/// fixed point, plus the one extra round that observes it: chains can be
/// no longer than the global forward-entry count, and synchronized
/// jumping doubles the compressed distance each round.
pub fn jump_round_bound(forwards: u64) -> u64 {
    let f = forwards.max(2);
    (64 - (f - 1).leading_zeros()) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_map_jump_compresses_chains() {
        // chain a -> b -> c -> d (live)
        let mut m = ForwardMap::new();
        m.insert(1, 2);
        m.insert(2, 3);
        m.insert(3, 4);
        let mut rounds = 0;
        loop {
            rounds += 1;
            let lookup: HashMap<u64, u64> = m.sorted_entries().into_iter().collect();
            if m.jump_pass(&lookup) == 0 {
                break;
            }
        }
        assert_eq!(m.resolve(1), 4);
        assert_eq!(m.resolve(2), 4);
        assert_eq!(m.resolve(3), 4);
        assert_eq!(m.resolve(9), 9, "unknown addresses are live");
        assert!(rounds as u64 <= jump_round_bound(3), "{rounds} rounds");
    }

    #[test]
    fn drain_targets_are_absorbing() {
        let mut m = ForwardMap::new();
        m.insert(7, DRAIN_ADDR);
        let lookup: HashMap<u64, u64> = m.sorted_entries().into_iter().collect();
        assert_eq!(m.jump_pass(&lookup), 0);
        assert_eq!(m.resolve(7), DRAIN_ADDR);
    }

    #[test]
    fn owner_rank_spreads_structured_address_sets() {
        // regression: the naive `addr % n_ranks` map sends all-even
        // (vertex/minima) addresses to even ranks only when n_ranks is
        // even, and collapses strided id patterns onto few ranks. The
        // hashed map must hit every rank with a reasonable share for
        // each structured set.
        let sets: Vec<Vec<u64>> = vec![
            (0..4096u64).map(|i| i * 2).collect(),     // all even (minima)
            (0..4096u64).map(|i| i * 2 + 1).collect(), // all odd (maxima)
            (0..4096u64).map(|i| i * 6).collect(),     // strided
            (0..4096u64).map(|i| (i << 40) | 0x5).collect(), // sparse block-id-style
        ];
        for n_ranks in [2u64, 3, 4, 6, 8] {
            for (si, set) in sets.iter().enumerate() {
                let mut hist = vec![0u64; n_ranks as usize];
                for &a in set {
                    hist[owner_rank(a, n_ranks) as usize] += 1;
                }
                let expect = set.len() as u64 / n_ranks;
                for (r, &h) in hist.iter().enumerate() {
                    assert!(
                        h > expect / 2 && h < expect * 2,
                        "set {si}, {n_ranks} ranks: rank {r} got {h} of ~{expect}"
                    );
                }
            }
        }
        // demonstrate the bias being fixed: naive mod-2 on even addrs
        let evens: Vec<u64> = (0..128u64).map(|i| i * 2).collect();
        assert!(evens.iter().all(|a| a % 2 == 0), "naive map: one rank idle");
        assert!(evens.iter().any(|&a| owner_rank(a, 2) == 1));
    }

    #[test]
    fn owner_rank_is_deterministic_and_in_range() {
        for n in 1..9u64 {
            for a in [0u64, 1, 7, u64::MAX, DRAIN_ADDR, 1 << 63] {
                let r = owner_rank(a, n);
                assert!(r < n);
                assert_eq!(r, owner_rank(a, n));
            }
        }
    }

    #[test]
    fn round_bound_shape() {
        assert_eq!(jump_round_bound(0), 2);
        assert_eq!(jump_round_bound(1), 2);
        assert_eq!(jump_round_bound(2), 2);
        assert_eq!(jump_round_bound(4), 3);
        assert_eq!(jump_round_bound(5), 4);
        assert_eq!(jump_round_bound(1024), 11);
    }
}
