//! # msp-hierarchy
//!
//! The compute-once / query-many layer: run simplification **once** at
//! persistence 0 with full logging, keep the ordered cancellation
//! sequence as a [`SlotHierarchy`], and materialize *any* threshold later
//! by replaying a prefix — no recompute of the parallel pipeline.
//!
//! Two orderings are recorded (in the style of topopy's simplification
//! hierarchies):
//!
//! * [`Ordering::Difference`] — classic persistence `|f(u) − f(l)|`;
//! * [`Ordering::Count`] — manifold size: the cancelled extremum's
//!   region size (vertex/voxel counts from the `msp-segment` label
//!   tables), merged sizes accumulating onto the surviving extremum.
//!   As in topopy, smaller features are absorbed into neighbouring
//!   larger ones first, and nothing else happens: a saddle–saddle pair
//!   has no size and is never cancelled, so every `count` record merges
//!   an extremum and carries its forward entry.
//!
//! **Replay is positional, not filtered.** A threshold-`t` simplification
//! executes identically to the threshold-∞ recording run up to the first
//! processed heap pop whose key exceeds `t` (the same queue less the
//! entries a pass to `t` can never cancel, same state, same code), so
//! [`SlotHierarchy::materialize`] replays records `0..k` where
//! `k` is the position of the *first* record with `key > t` — later
//! records may carry smaller keys (arcs created by a cancellation can
//! form lower-key pairs) and must **not** be replayed. Both the recorder
//! and the replayer run `msp_complex`'s shared cancellation body, which
//! is what makes the materialized complex (and its segmentation forward
//! entries) bit-identical to a direct `simplify` run at `t`.
//!
//! Positional replay is also incremental: prefix `k` extends any prefix
//! `k0 ≤ k`, so [`SlotHierarchy::extend`] continues from an already
//! materialized (compacted) complex and replays only records `k0..k`.
//! [`SlotHierarchy::materialize_k`] from the base is the `k0 = 0` case
//! of the same function body.
//!
//! A materialization is a clone of its starting complex, so it shares
//! whatever geometry that complex froze ([`MsComplex::freeze_geometry`]):
//! from a frozen base (as `msc serve` loads them) it owns only the splice
//! records its replay created, and its wire bytes are those of the same
//! complex holding all of its geometry.
//!
//! The on-disk artifact is the versioned `MSH1` format ([`wire`]); the
//! pipeline writes one payload per output slot via the collective write,
//! so `<out>.msh` is byte-identical across ranks/threads/schedules.

pub mod wire;

use msp_complex::{
    replay_cancellation, simplify_with, wire as cwire, CancelOrder, CancelRecord, MsComplex,
    ReplayError, SimplifyError, SimplifyParams, SimplifyStats,
};
use msp_segment::{BlockSegmentation, DRAIN_ADDR, DRAIN_LABEL};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Which recorded cancellation sequence to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// Persistence `|f(u) − f(l)|`; thresholds are function-value deltas.
    Difference,
    /// Manifold size; thresholds are region vertex/voxel counts. Only
    /// extremum merges are recorded (saddle–saddle pairs have no size).
    Count,
}

impl Ordering {
    pub const ALL: [Ordering; 2] = [Ordering::Difference, Ordering::Count];

    pub fn key(self) -> &'static str {
        match self {
            Ordering::Difference => "difference",
            Ordering::Count => "count",
        }
    }
}

impl fmt::Display for Ordering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

impl FromStr for Ordering {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "difference" => Ok(Ordering::Difference),
            "count" => Ok(Ordering::Count),
            other => Err(format!(
                "unknown ordering {other:?} (want difference|count)"
            )),
        }
    }
}

/// The simplification knobs a replay must repeat exactly — recorded into
/// the artifact so materialization cannot silently diverge from the run
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayParams {
    /// Valence guard used while recording (`SimplifyParams::max_new_arcs`).
    /// The [`Default`] here is `None`, which is *not* what the pipeline
    /// records with: it passes its own `PipelineParams::max_new_arcs`,
    /// `Some(4096)` by default, and an unguarded recording of the same
    /// complex is a different (longer) sequence.
    pub max_new_arcs: Option<u64>,
    /// Parallel-arc cap (`SimplifyParams::max_parallel_arcs`).
    pub max_parallel_arcs: Option<u32>,
}

impl Default for ReplayParams {
    fn default() -> Self {
        ReplayParams {
            max_new_arcs: None,
            max_parallel_arcs: Some(2),
        }
    }
}

/// The recorded cancellation sequences for one output complex ("slot").
#[derive(Debug, Clone, PartialEq)]
pub struct SlotHierarchy {
    pub params: ReplayParams,
    /// Difference-ordered sequence (always present).
    pub difference: Vec<CancelRecord>,
    /// Count-ordered sequence, present when the recording run had
    /// segmentation region sizes available.
    pub count: Option<Vec<CancelRecord>>,
}

/// A materialized threshold: the simplified complex plus everything the
/// segmentation needs to follow it.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The compacted complex, bit-identical to a direct `simplify` run;
    /// it shares the frozen geometry of the complex it was replayed on.
    pub complex: MsComplex,
    /// Forward entries `(dead extremum, survivor)` of the replayed
    /// prefix, in cancellation order.
    pub forwards: Vec<(u64, u64)>,
    pub stats: SimplifyStats,
    /// Number of records replayed.
    pub applied: usize,
}

impl Materialized {
    /// Estimated resident heap footprint in bytes of what this entry
    /// owns (shared frozen geometry excluded) — the unit the serve
    /// cache's byte gauges (and the future evict-by-bytes budget) count.
    pub fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<Materialized>()
            + self.forwards.capacity() * std::mem::size_of::<(u64, u64)>()) as u64
            + self.complex.mem_bytes()
    }
}

/// Errors from materialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HierarchyError {
    /// The artifact has no sequence for this ordering (count was not
    /// recorded because the run had no segmentation).
    MissingOrdering(Ordering),
    /// `materialize_k` beyond the recorded sequence.
    PrefixOutOfRange { k: usize, len: usize },
    /// `extend` towards a prefix shorter than the one it starts from —
    /// replay only ever moves forward.
    NotAnExtension { from: usize, k: usize },
    /// NaN threshold — no prefix is defined.
    NanThreshold,
    /// A record failed to re-execute: the base complex does not match
    /// the one the hierarchy was recorded from.
    Replay { index: usize, source: ReplayError },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::MissingOrdering(o) => {
                write!(f, "hierarchy has no {o} sequence")
            }
            HierarchyError::PrefixOutOfRange { k, len } => {
                write!(f, "prefix length {k} out of range (sequence has {len})")
            }
            HierarchyError::NotAnExtension { from, k } => {
                write!(f, "prefix {k} does not extend materialized prefix {from}")
            }
            HierarchyError::NanThreshold => write!(f, "materialization threshold is NaN"),
            HierarchyError::Replay { index, source } => {
                write!(f, "record {index} does not apply to this base: {source}")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Record the full hierarchy of `base`: simplify a clone to persistence
/// ∞ under each ordering, logging every cancellation. `sizes` (extremum
/// address → global region size) enables the count ordering. The base
/// complex itself is untouched.
pub fn record(
    base: &MsComplex,
    params: ReplayParams,
    sizes: Option<HashMap<u64, u64>>,
) -> Result<SlotHierarchy, SimplifyError> {
    Ok(SlotHierarchy {
        params,
        difference: record_sequence(base, params, CancelOrder::Difference)?,
        count: (sizes.map(|s| record_sequence(base, params, CancelOrder::Count(s)))).transpose()?,
    })
}

/// One ordering's sequence of [`record`]: the log of simplifying a clone
/// of `base` to persistence ∞ under `order`.
pub fn record_sequence(
    base: &MsComplex,
    params: ReplayParams,
    mut order: CancelOrder,
) -> Result<Vec<CancelRecord>, SimplifyError> {
    let sp = SimplifyParams {
        threshold: f32::INFINITY,
        max_new_arcs: params.max_new_arcs,
        max_parallel_arcs: params.max_parallel_arcs,
    };
    let mut log = Vec::new();
    simplify_with(&mut base.clone(), sp, &mut order, Some(&mut log), None)?;
    Ok(log)
}

impl SlotHierarchy {
    /// The recorded sequence for an ordering, if present.
    pub fn records(&self, ordering: Ordering) -> Option<&[CancelRecord]> {
        match ordering {
            Ordering::Difference => Some(&self.difference),
            Ordering::Count => self.count.as_deref(),
        }
    }

    /// Orderings this hierarchy can materialize.
    pub fn orderings(&self) -> Vec<Ordering> {
        Ordering::ALL
            .into_iter()
            .filter(|&o| self.records(o).is_some())
            .collect()
    }

    /// Replay conformance against `base`, the complex this hierarchy was
    /// recorded from: materializing ∞ and the median record's key of
    /// every ordering must reproduce a direct simplification of `base`
    /// bit for bit (wire bytes and forward entries). `sizes` are the
    /// region sizes the count ordering was recorded with. Returns one
    /// note per divergence; empty means conformant.
    pub fn check_replay(&self, base: &MsComplex, sizes: Option<&HashMap<u64, u64>>) -> Vec<String> {
        let mut notes = Vec::new();
        for ordering in self.orderings() {
            let recs = self.records(ordering).expect("listed ordering");
            let mut thresholds = vec![f32::INFINITY];
            if !recs.is_empty() {
                thresholds.push(recs[recs.len() / 2].key);
            }
            for t in thresholds {
                let got = match self.materialize(base, ordering, t) {
                    Ok(m) => m,
                    Err(e) => {
                        notes.push(format!("hierarchy {ordering} materialize({t}): {e}"));
                        continue;
                    }
                };
                let mut want = base.clone();
                let mut order = match ordering {
                    Ordering::Difference => CancelOrder::Difference,
                    Ordering::Count => CancelOrder::Count(sizes.cloned().unwrap_or_default()),
                };
                let sp = SimplifyParams {
                    threshold: t,
                    max_new_arcs: self.params.max_new_arcs,
                    max_parallel_arcs: self.params.max_parallel_arcs,
                };
                let mut forwards = Vec::new();
                if let Err(e) = simplify_with(&mut want, sp, &mut order, None, Some(&mut forwards))
                {
                    notes.push(format!("hierarchy {ordering} direct simplify({t}): {e}"));
                    continue;
                }
                want.compact();
                if cwire::serialize(&got.complex) != cwire::serialize(&want)
                    || got.forwards != forwards
                {
                    notes.push(format!(
                        "hierarchy {ordering} materialize({t}) diverges from a direct \
                         simplify run ({} record(s) replayed)",
                        got.applied
                    ));
                }
            }
        }
        notes
    }

    /// Estimated resident heap footprint in bytes (capacity-based, for
    /// the serve layer's byte gauges).
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        let rec = size_of::<CancelRecord>();
        (size_of::<SlotHierarchy>()
            + self.difference.capacity() * rec
            + self.count.as_ref().map_or(0, |c| c.capacity() * rec)) as u64
    }

    /// Length of the replay prefix for `threshold`: the position of the
    /// first record with `key > threshold` (positional stop — see the
    /// crate docs for why filtering by key would be wrong).
    pub fn prefix_len(&self, ordering: Ordering, threshold: f32) -> Result<usize, HierarchyError> {
        if threshold.is_nan() {
            return Err(HierarchyError::NanThreshold);
        }
        let recs = self
            .records(ordering)
            .ok_or(HierarchyError::MissingOrdering(ordering))?;
        Ok(recs
            .iter()
            .position(|r| r.key > threshold)
            .unwrap_or(recs.len()))
    }

    /// Materialize the simplification at `threshold` by prefix replay on
    /// `base` (which must be the complex the hierarchy was recorded
    /// from, or its wire round-trip).
    pub fn materialize(
        &self,
        base: &MsComplex,
        ordering: Ordering,
        threshold: f32,
    ) -> Result<Materialized, HierarchyError> {
        let k = self.prefix_len(ordering, threshold)?;
        self.materialize_k(base, ordering, k)
    }

    /// Materialize by replaying exactly the first `k` records: the
    /// extension of the empty prefix (`base` itself, nothing applied).
    pub fn materialize_k(
        &self,
        base: &MsComplex,
        ordering: Ordering,
        k: usize,
    ) -> Result<Materialized, HierarchyError> {
        self.extend_prefix(base, &[], SimplifyStats::default(), 0, ordering, k)
    }

    /// Materialize prefix `k` from an already materialized shorter (or
    /// equal) prefix of the same base and ordering: replay only records
    /// `from.applied..k` on a clone of its compacted complex. Replay is
    /// positional, so prefix `k` is by construction an extension of any
    /// prefix `k0 ≤ k`, and compaction preserves the relative order of
    /// nodes, arcs and adjacency — the result is bit-identical (complex
    /// wire bytes, forwards, stats) to [`Self::materialize_k`] from the
    /// base.
    pub fn extend(
        &self,
        from: &Materialized,
        ordering: Ordering,
        k: usize,
    ) -> Result<Materialized, HierarchyError> {
        self.extend_prefix(
            &from.complex,
            &from.forwards,
            from.stats,
            from.applied,
            ordering,
            k,
        )
    }

    /// The one materialization body: `complex`/`forwards`/`stats` are
    /// the state after records `0..k0`; replay `k0..k` and compact.
    fn extend_prefix(
        &self,
        complex: &MsComplex,
        forwards: &[(u64, u64)],
        mut stats: SimplifyStats,
        k0: usize,
        ordering: Ordering,
        k: usize,
    ) -> Result<Materialized, HierarchyError> {
        let recs = self
            .records(ordering)
            .ok_or(HierarchyError::MissingOrdering(ordering))?;
        if k > recs.len() {
            return Err(HierarchyError::PrefixOutOfRange { k, len: recs.len() });
        }
        if k0 > k {
            return Err(HierarchyError::NotAnExtension { from: k0, k });
        }
        let mut ms = complex.clone();
        let mut forwards = forwards.to_vec();
        for (i, r) in recs.iter().enumerate().take(k).skip(k0) {
            let fwd = replay_cancellation(
                &mut ms,
                r.upper_addr,
                r.lower_addr,
                self.params.max_parallel_arcs,
                &mut stats,
            )
            .map_err(|source| HierarchyError::Replay { index: i, source })?;
            debug_assert_eq!(fwd, r.forward, "record {i} diverged on replay");
            if let Some(e) = fwd {
                forwards.push(e);
            }
            // same cadence as the live loop; no observable effect, just
            // keeps incidence scans at live degree on long prefixes
            if (i + 1) % 512 == 0 {
                ms.prune_dead_adjacency();
            }
        }
        ms.compact();
        Ok(Materialized {
            complex: ms,
            forwards,
            stats,
            applied: k,
        })
    }
}

/// Path-compress a forward-entry sequence: every dead extremum maps to
/// its live root (or [`DRAIN_ADDR`]). The serial equivalent of the
/// pipeline's distributed pointer jumping, for single-process replay.
pub fn compress_forwards(forwards: &[(u64, u64)]) -> HashMap<u64, u64> {
    let map: HashMap<u64, u64> = forwards.iter().copied().collect();
    let mut resolved: HashMap<u64, u64> = HashMap::with_capacity(map.len());
    for &dead in map.keys() {
        let mut cur = dead;
        let mut hops = 0usize;
        while let Some(&next) = map.get(&cur) {
            cur = next;
            hops += 1;
            assert!(hops <= map.len(), "forward cycle at {dead:#x}");
            if cur == DRAIN_ADDR {
                break;
            }
        }
        resolved.insert(dead, cur);
    }
    resolved
}

/// Rewrite a block's extremum tables through a compressed forward map —
/// the serial equivalent of the pipeline's table rewrite after
/// resolution. Label arrays are untouched: labels index the tables.
pub fn remap_tables(seg: &mut BlockSegmentation, resolved: &HashMap<u64, u64>) {
    for addr in seg.mins.iter_mut().chain(seg.maxs.iter_mut()) {
        if let Some(&t) = resolved.get(addr) {
            *addr = t;
        }
    }
}

/// Per-extremum region sizes from label arrays: how many vertices drain
/// to each minimum and how many voxels climb to each maximum. These are
/// *local* counts — the pipeline sums them across ranks before recording
/// the count ordering. Each block's labels are tallied per table index
/// first, so the map sees one update per region, not one per voxel.
pub fn region_sizes<'a>(
    segs: impl IntoIterator<Item = &'a BlockSegmentation>,
) -> HashMap<u64, u64> {
    let mut sizes: HashMap<u64, u64> = HashMap::new();
    let mut tally: Vec<u64> = Vec::new();
    for seg in segs {
        for (labels, table) in [(&seg.min_label, &seg.mins), (&seg.max_label, &seg.maxs)] {
            tally.clear();
            tally.resize(table.len(), 0);
            for &l in labels.iter().filter(|&&l| l != DRAIN_LABEL) {
                tally[l as usize] += 1;
            }
            for (&addr, &n) in table.iter().zip(&tally).filter(|(_, &n)| n > 0) {
                *sizes.entry(addr).or_insert(0) += n;
            }
        }
    }
    sizes.remove(&DRAIN_ADDR);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_complex::build::build_block_complex;
    use msp_complex::simplify_forwarding;
    use msp_grid::{Decomposition, Dims, ScalarField};
    use msp_morse::TraceLimits;

    fn base_complex(seed: u64) -> MsComplex {
        let f = msp_synth::white_noise(Dims::new(9, 9, 9), seed);
        serial(&f)
    }

    fn serial(f: &ScalarField) -> MsComplex {
        let d = Decomposition::bisect(f.dims(), 1);
        let (mut ms, _) =
            build_block_complex(&f.extract_block(d.block(0)), &d, TraceLimits::default());
        ms.compact();
        ms
    }

    fn synthetic_sizes(base: &MsComplex) -> HashMap<u64, u64> {
        base.nodes
            .iter()
            .filter(|n| n.alive && (n.index == 0 || n.index == 3))
            .map(|n| (n.addr, 1 + (n.addr % 53)))
            .collect()
    }

    #[test]
    fn materialize_matches_direct_simplify_bitwise() {
        let base = base_complex(11);
        let h = record(&base, ReplayParams::default(), None).unwrap();
        assert!(h.difference.len() > 4);
        let mid = h.difference[h.difference.len() / 2].key;
        for t in [0.0f32, mid, f32::INFINITY] {
            let got = h.materialize(&base, Ordering::Difference, t).unwrap();
            let mut want = base.clone();
            let mut wfw = Vec::new();
            simplify_forwarding(&mut want, SimplifyParams::up_to(t), Some(&mut wfw)).unwrap();
            want.compact();
            assert_eq!(
                cwire::serialize(&got.complex),
                cwire::serialize(&want),
                "threshold {t}"
            );
            assert_eq!(got.forwards, wfw, "threshold {t}");
        }
    }

    #[test]
    fn extension_across_the_prune_cadence_equals_from_scratch() {
        // long enough that prefixes sit on both sides of a 512-record
        // adjacency prune, which an extension skips or shifts
        let base = serial(&msp_synth::white_noise(Dims::cube(15), 3));
        let h = record(&base, ReplayParams::default(), None).unwrap();
        let n = h.difference.len();
        assert!(n > 600, "only {n} records");
        let mut extended = h.materialize_k(&base, Ordering::Difference, 0).unwrap();
        for k in [0, 300, 511, 512, 513, n] {
            extended = h.extend(&extended, Ordering::Difference, k).unwrap();
            let scratch = h.materialize_k(&base, Ordering::Difference, k).unwrap();
            assert_eq!(
                cwire::serialize(&extended.complex),
                cwire::serialize(&scratch.complex),
                "prefix {k}"
            );
            assert_eq!(extended.forwards, scratch.forwards, "prefix {k}");
            assert_eq!(extended.stats, scratch.stats, "prefix {k}");
            assert_eq!(extended.applied, k);
        }
        // replay only moves forward
        assert_eq!(
            h.extend(&extended, Ordering::Difference, n - 1)
                .unwrap_err(),
            HierarchyError::NotAnExtension { from: n, k: n - 1 }
        );
    }

    #[test]
    fn materialize_from_wire_round_tripped_base_is_identical() {
        // serving loads the base from the .msc artifact, not from the
        // in-memory pipeline output — the replay must not care
        let base = base_complex(29);
        let loaded = cwire::deserialize(&cwire::serialize(&base)).unwrap();
        let h = record(&base, ReplayParams::default(), None).unwrap();
        let t = h.difference[h.difference.len() / 3].key;
        let a = h.materialize(&base, Ordering::Difference, t).unwrap();
        let b = h.materialize(&loaded, Ordering::Difference, t).unwrap();
        assert_eq!(cwire::serialize(&a.complex), cwire::serialize(&b.complex));
        assert_eq!(a.forwards, b.forwards);
    }

    #[test]
    fn materialize_from_a_frozen_base_equals_an_unfrozen_round_trip() {
        // serving freezes the loaded base so every materialization shares
        // its geometry; the replay and the written bytes must not notice
        let base = base_complex(41);
        let h = record(&base, ReplayParams::default(), Some(synthetic_sizes(&base))).unwrap();
        let loaded = cwire::deserialize(&cwire::serialize(&base)).unwrap();
        let mut frozen = loaded.clone();
        frozen.freeze_geometry();
        assert_eq!(cwire::serialize(&frozen), cwire::serialize(&loaded));
        for ordering in Ordering::ALL {
            let recs = h.records(ordering).unwrap();
            let mut extended = h.materialize_k(&frozen, ordering, 0).unwrap();
            for t in [0.0, recs[recs.len() / 2].key, f32::INFINITY] {
                let b = h.materialize(&loaded, ordering, t).unwrap();
                let k = h.prefix_len(ordering, t).unwrap();
                extended = h.extend(&extended, ordering, k).unwrap();
                for a in [
                    h.materialize(&frozen, ordering, t).unwrap(),
                    extended.clone(),
                ] {
                    let (ms, want) = (&a.complex, &b.complex);
                    assert!(ms.shares_geometry_with(&frozen), "{ordering} at {t}");
                    ms.check_integrity().unwrap();
                    assert_eq!(
                        cwire::serialize(ms),
                        cwire::serialize(want),
                        "{ordering} at {t}"
                    );
                    assert_eq!(a.forwards, b.forwards, "{ordering} at {t}");
                    assert_eq!(a.stats, b.stats, "{ordering} at {t}");
                    assert_eq!(ms.arcs.len(), want.arcs.len());
                    for (x, y) in ms.arcs.iter().zip(&want.arcs) {
                        assert_eq!(ms.flatten_geom(x.geom), want.flatten_geom(y.geom));
                    }
                }
            }
        }
    }

    #[test]
    fn count_ordering_records_and_replays() {
        let base = base_complex(37);
        let sizes = synthetic_sizes(&base);
        let h = record(&base, ReplayParams::default(), Some(sizes.clone())).unwrap();
        let recs = h.records(Ordering::Count).unwrap();
        assert!(!recs.is_empty());
        // count keys are region sizes, not persistences
        assert!(recs
            .iter()
            .any(|r| r.forward.is_some() && r.key != r.persistence));
        // materializing at a mid count threshold == direct keyed run
        let mid = recs[recs.len() / 2].key;
        let got = h.materialize(&base, Ordering::Count, mid).unwrap();
        let mut want = base.clone();
        simplify_with(
            &mut want,
            SimplifyParams {
                threshold: mid,
                max_new_arcs: None,
                max_parallel_arcs: Some(2),
            },
            &mut CancelOrder::Count(sizes),
            None,
            None,
        )
        .unwrap();
        want.compact();
        assert_eq!(cwire::serialize(&got.complex), cwire::serialize(&want));
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of the `MSH1` bytes `record` writes for each pinned field,
    /// one payload per ordering holding that ordering's sequence alone
    /// (`(field, difference, count)`), each without the valence guard
    /// and with `max_new_arcs: Some(16)`. Every other hierarchy test
    /// compares the engine with itself, so these are what notices a
    /// change of tie-breaking, splice order or queue content. Re-capture
    /// them only when a synthetic generator or an ordering's definition
    /// changes, never to make an engine change pass. Split per ordering
    /// at commit 3ad6f04, whose combined pins were those captured at
    /// 22d1297 (the parent of the linear-splice engine); the `count`
    /// pins were re-captured once when that ordering stopped cancelling
    /// saddle pairs and moved to its new wire tag.
    const PINNED_MSH: [(&str, [u64; 2], [u64; 2]); 3] = [
        (
            "noise",
            [0x5146_f436_fad2_af8d, 0xa4c8_f454_97e5_5c2e],
            [0x82b9_7547_b744_134c, 0xdbda_5e87_2ddf_468f],
        ),
        (
            "plateau",
            [0x343c_3203_f754_f774, 0x879d_69a1_b764_2ac6],
            [0x2dbf_89d8_5a56_c066, 0xdb70_5c92_4e23_6847],
        ),
        (
            "sinusoid",
            [0x1a6f_2177_fa4b_9048, 0x6db1_8ecb_89d2_f25e],
            [0xdec8_94c2_50de_25ce, 0x1552_b7a8_52dd_9666],
        ),
    ];

    #[test]
    fn recorded_sequences_match_the_pinned_bytes() {
        let fields = [
            msp_synth::white_noise(Dims::cube(9), 17),
            msp_synth::plateau(Dims::cube(9), 17, 4),
            msp_synth::sinusoid(17, 2),
        ];
        let mut got = PINNED_MSH;
        for (f, (name, difference, count)) in fields.iter().zip(&mut got) {
            let base = serial(f);
            let sizes = synthetic_sizes(&base);
            for (i, max_new_arcs) in [None, Some(16)].into_iter().enumerate() {
                let params = ReplayParams {
                    max_new_arcs,
                    ..ReplayParams::default()
                };
                let h = record(&base, params, Some(sizes.clone())).unwrap();
                assert!(!h.difference.is_empty() && h.count.is_some(), "{name}");
                let only = |difference: Vec<CancelRecord>, count| {
                    fnv1a64(&wire::serialize(&SlotHierarchy {
                        params,
                        difference,
                        count,
                    }))
                };
                difference[i] = only(h.difference, None);
                count[i] = only(Vec::new(), h.count);
            }
        }
        assert_eq!(got, PINNED_MSH, "recorded now: {got:#018x?}");
    }

    #[test]
    fn prefix_len_is_positional_not_filtered() {
        let h = SlotHierarchy {
            params: ReplayParams::default(),
            // non-monotone keys: a later record with a smaller key must
            // not extend the prefix
            difference: [0.1f32, 0.3, 0.2, 0.5]
                .iter()
                .enumerate()
                .map(|(i, &k)| CancelRecord {
                    upper_addr: 10 + i as u64,
                    lower_addr: 20 + i as u64,
                    persistence: k,
                    key: k,
                    forward: None,
                })
                .collect(),
            count: None,
        };
        assert_eq!(h.prefix_len(Ordering::Difference, 0.25).unwrap(), 1);
        assert_eq!(h.prefix_len(Ordering::Difference, 0.05).unwrap(), 0);
        assert_eq!(
            h.prefix_len(Ordering::Difference, f32::INFINITY).unwrap(),
            4
        );
        assert_eq!(
            h.prefix_len(Ordering::Difference, f32::NAN),
            Err(HierarchyError::NanThreshold)
        );
        assert_eq!(
            h.prefix_len(Ordering::Count, 1.0),
            Err(HierarchyError::MissingOrdering(Ordering::Count))
        );
    }

    #[test]
    fn replay_on_mismatched_base_is_typed_error() {
        let base = base_complex(11);
        let other = base_complex(5150);
        let h = record(&base, ReplayParams::default(), None).unwrap();
        let err = h
            .materialize(&other, Ordering::Difference, f32::INFINITY)
            .unwrap_err();
        assert!(matches!(err, HierarchyError::Replay { .. }), "{err}");
    }

    #[test]
    fn region_sizes_equal_a_per_voxel_tally() {
        let f = msp_synth::white_noise(Dims::cube(9), 7);
        let d = Decomposition::bisect(f.dims(), 4);
        let refined = f.dims().refined();
        let segs: Vec<BlockSegmentation> = (d.blocks().iter())
            .map(|b| {
                let g = msp_morse::assign_gradient(&f.extract_block(b), &d);
                msp_segment::label_block(b, &refined, &g, 1)
            })
            .collect();
        let mut want: HashMap<u64, u64> = HashMap::new();
        for seg in &segs {
            for (labels, table) in [(&seg.min_label, &seg.mins), (&seg.max_label, &seg.maxs)] {
                for &l in labels.iter().filter(|&&l| l != DRAIN_LABEL) {
                    *want.entry(table[l as usize]).or_insert(0) += 1;
                }
            }
        }
        want.remove(&DRAIN_ADDR);
        assert!(want.len() > 4);
        assert_eq!(region_sizes(&segs), want);
    }

    #[test]
    fn compress_and_remap_follow_chains() {
        let forwards = vec![(1u64, 2u64), (2, 3), (7, DRAIN_ADDR)];
        let resolved = compress_forwards(&forwards);
        assert_eq!(resolved[&1], 3);
        assert_eq!(resolved[&2], 3);
        assert_eq!(resolved[&7], DRAIN_ADDR);
    }

    #[test]
    fn ordering_round_trips_through_strings() {
        for o in Ordering::ALL {
            assert_eq!(o.key().parse::<Ordering>().unwrap(), o);
        }
        assert!("probability".parse::<Ordering>().is_err());
    }
}
