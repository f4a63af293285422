//! The fixed phase taxonomy, matching Algorithm 1 of the paper.
//!
//! Every span a [`Recorder`](crate::Recorder) opens is keyed by one of
//! these phases; stable string keys make reports comparable across runs
//! and across code versions. `MergeRound(k)` is parameterized by the
//! zero-based merge round so Table-I-style per-round breakdowns fall out
//! of the same machinery.

/// One phase of the pipeline. The derived `Ord` follows pipeline order
/// (read → gradient → trace → simplify → merge rounds → checkpoint →
/// ship → glue → resimplify → write → total), which is the order phases
/// appear in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Collective read of the scalar blocks (§IV-B).
    Read,
    /// Discrete gradient assignment (§IV-C).
    Gradient,
    /// V-path tracing and complex construction (§IV-D).
    Trace,
    /// Per-block segmentation labeling (`--segment`): extremum label
    /// propagation along the local gradient.
    Segment,
    /// Initial local persistence simplification (§IV-E).
    Simplify,
    /// One radix-k merge round (§IV-F); zero-based round index.
    MergeRound(u16),
    /// Saving a consistent cut to the checkpoint store (`--checkpoint`):
    /// serializing every living slot and the modeled save; nested inside
    /// each merge round, and once more before the write.
    Checkpoint,
    /// Encoding a member for a root on another rank (§IV-F2): the
    /// sender's `wire::serialize`, where the checkpoint cut does not hold
    /// its bytes already; nested inside a merge round.
    Ship,
    /// Gluing incoming complexes onto a root (§IV-F3); nested inside a
    /// merge round.
    Glue,
    /// Re-simplification of newly interior nodes after a glue; nested
    /// inside a merge round.
    Resimplify,
    /// Distributed segmentation resolution (`--segment`): pointer-jump
    /// rounds over the forward map plus the final table rewrite.
    SegResolve,
    /// Cancellation-hierarchy recording (`--hierarchy`): global
    /// region-size aggregation plus logged full-simplification runs per
    /// output slot.
    Hierarchy,
    /// The global region-size aggregation the `count` ordering keys on;
    /// nested inside `Hierarchy`.
    HierarchySizes,
    /// Recording the `difference` sequences; nested inside `Hierarchy`.
    HierarchyDifference,
    /// Recording the `count` sequences; nested inside `Hierarchy`.
    HierarchyCount,
    /// Collective write of output blocks (§IV-G).
    Write,
    /// Invariant checking of the output complexes (`--check`); off by
    /// default.
    Check,
    /// Whole-pipeline wall time of the rank.
    Total,
}

impl Phase {
    /// Stable string key used in encoded reports and JSON output.
    pub fn key(self) -> String {
        match self {
            Phase::Read => "read".to_string(),
            Phase::Gradient => "gradient".to_string(),
            Phase::Trace => "trace".to_string(),
            Phase::Simplify => "simplify".to_string(),
            Phase::Segment => "segment".to_string(),
            Phase::MergeRound(k) => format!("merge_round[{k}]"),
            Phase::Checkpoint => "checkpoint".to_string(),
            Phase::Ship => "ship".to_string(),
            Phase::Glue => "glue".to_string(),
            Phase::Resimplify => "resimplify".to_string(),
            Phase::SegResolve => "seg_resolve".to_string(),
            Phase::Hierarchy => "hierarchy".to_string(),
            Phase::HierarchySizes => "hierarchy_sizes".to_string(),
            Phase::HierarchyDifference => "hierarchy_difference".to_string(),
            Phase::HierarchyCount => "hierarchy_count".to_string(),
            Phase::Write => "write".to_string(),
            Phase::Check => "check".to_string(),
            Phase::Total => "total".to_string(),
        }
    }

    /// Inverse of [`Phase::key`]. Unknown keys return `None` (reports
    /// from newer writers stay readable: unknown phases sort last).
    pub fn parse(key: &str) -> Option<Phase> {
        match key {
            "read" => Some(Phase::Read),
            "gradient" => Some(Phase::Gradient),
            "trace" => Some(Phase::Trace),
            "simplify" => Some(Phase::Simplify),
            "segment" => Some(Phase::Segment),
            "checkpoint" => Some(Phase::Checkpoint),
            "ship" => Some(Phase::Ship),
            "glue" => Some(Phase::Glue),
            "resimplify" => Some(Phase::Resimplify),
            "seg_resolve" => Some(Phase::SegResolve),
            "hierarchy" => Some(Phase::Hierarchy),
            "hierarchy_sizes" => Some(Phase::HierarchySizes),
            "hierarchy_difference" => Some(Phase::HierarchyDifference),
            "hierarchy_count" => Some(Phase::HierarchyCount),
            "write" => Some(Phase::Write),
            "check" => Some(Phase::Check),
            "total" => Some(Phase::Total),
            _ => {
                let inner = key.strip_prefix("merge_round[")?.strip_suffix(']')?;
                inner.parse::<u16>().ok().map(Phase::MergeRound)
            }
        }
    }
}

/// Sort phase keys into taxonomy order; keys that do not parse sort
/// last, alphabetically.
pub fn sort_phase_keys(keys: &mut [String]) {
    keys.sort_by(|a, b| match (Phase::parse(a), Phase::parse(b)) {
        (Some(pa), Some(pb)) => pa.cmp(&pb),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.cmp(b),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        let all = [
            Phase::Read,
            Phase::Gradient,
            Phase::Trace,
            Phase::Segment,
            Phase::Simplify,
            Phase::MergeRound(0),
            Phase::MergeRound(13),
            Phase::Checkpoint,
            Phase::Ship,
            Phase::Glue,
            Phase::Resimplify,
            Phase::SegResolve,
            Phase::Hierarchy,
            Phase::HierarchySizes,
            Phase::HierarchyDifference,
            Phase::HierarchyCount,
            Phase::Write,
            Phase::Check,
            Phase::Total,
        ];
        for p in all {
            assert_eq!(Phase::parse(&p.key()), Some(p), "{}", p.key());
        }
        assert_eq!(Phase::parse("merge_round[]"), None);
        assert_eq!(Phase::parse("merge_round[x]"), None);
        assert_eq!(Phase::parse("bogus"), None);
    }

    #[test]
    fn taxonomy_order() {
        let mut keys: Vec<String> = vec![
            "write".into(),
            "merge_round[2]".into(),
            "zeta_custom".into(),
            "read".into(),
            "merge_round[0]".into(),
            "total".into(),
            "gradient".into(),
        ];
        sort_phase_keys(&mut keys);
        assert_eq!(
            keys,
            vec![
                "read".to_string(),
                "gradient".into(),
                "merge_round[0]".into(),
                "merge_round[2]".into(),
                "write".into(),
                "total".into(),
                "zeta_custom".into(),
            ]
        );
    }
}
