//! Monotonically-accumulating counters.
//!
//! The fixed set mirrors what the paper's evaluation reasons about:
//! local-stage work (cells paired, critical cells, arcs traced),
//! simplification work (cancellations), and merge-stage communication
//! (nodes/arcs shipped, serialized payload bytes, and raw transport
//! bytes/messages as counted by the comm layer) — plus the
//! fault-tolerance taxonomy (checkpoint volume, detection retries,
//! replayed rounds, recovery wall time and injected crashes) so
//! recovery cost is first-class in every run report.

/// One counter of the fixed taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Cells paired by the discrete gradient (both ends of each vector).
    CellsPaired,
    /// Critical cells found (= nodes of the block complexes).
    CriticalCells,
    /// Arcs produced by V-path tracing.
    ArcsTraced,
    /// Cancellations performed by all simplification passes.
    Cancellations,
    /// Live nodes serialized into merge messages.
    NodesShipped,
    /// Live arcs serialized into merge messages.
    ArcsShipped,
    /// Serialized wire-payload bytes shipped during merge rounds
    /// (application-level; excludes collective/control traffic).
    ShipBytes,
    /// Live nodes of the members a root glued, handed over or shipped:
    /// the glue's work, which the block placement moves between ranks
    /// but never changes in total.
    GluedNodes,
    /// Live arcs of the members a root glued, handed over or shipped.
    GluedArcs,
    /// Bytes handed to the transport by this rank (all messages).
    BytesSent,
    /// Bytes delivered by the transport to this rank.
    BytesRecv,
    /// Messages sent by this rank.
    MsgsSent,
    /// Messages received by this rank.
    MsgsRecv,
    /// Serialized checkpoint bytes written to stable storage.
    CheckpointBytes,
    /// Receive deadlines that expired and fell back to recovery.
    Retries,
    /// Merge rounds (re-)executed from checkpointed state.
    RoundsReplayed,
    /// Milliseconds spent detecting dead peers and recovering state.
    RecoveryMs,
    /// Injected rank crashes this rank suffered.
    Crashes,
    /// Output complexes run through the invariant checker (`--check`).
    ChecksRun,
    /// Structural invariant violations (integrity, index steps, geometry
    /// endpoints) found by the checker.
    CheckStructural,
    /// Euler-characteristic violations found by the checker.
    CheckEuler,
    /// Boundary-flag / boundary-preservation violations found by the
    /// checker.
    CheckBoundary,
    /// Invalid-V-path violations (arc geometry not a gradient path)
    /// found by the checker.
    CheckVpath,
    /// Segmentation invariant violations (malformed label tables, labels
    /// that change along a V-path, representatives that are not live
    /// critical cells) found by the checker.
    CheckSegment,
    /// Forward entries recorded for cancelled extrema (`--segment`).
    SegForwards,
    /// Pointer-jump rounds run to reach the segmentation fixed point.
    SegRounds,
    /// Bytes exchanged by the segmentation resolution protocol (pair
    /// routing, jump queries/replies, table resolution).
    SegBoundaryBytes,
    /// Representative rewrites: pointer advances during jumping plus
    /// extremum-table entries that changed in the final resolution.
    SegRelabels,
    /// Cancellation records written into the `.msh` hierarchy artifact
    /// (`--hierarchy`), summed over orderings.
    HierarchyRecords,
    /// Hierarchy replay-conformance violations found by the checker:
    /// `materialize(t)` differing from a direct `simplify(t)` run.
    CheckHierarchy,
    /// Queries answered by `msc serve` (all classes).
    ServeQueries,
    /// Serve-cache hits (answer reused from the LRU materialization
    /// cache).
    ServeHits,
    /// Serve-cache misses (a materialization had to run).
    ServeMisses,
    /// Requests that piggybacked on an identical in-flight
    /// materialization instead of recomputing or waiting on the cache.
    ServeCoalesced,
    /// Malformed or unanswerable serve requests.
    ServeErrors,
    /// Estimated cost of the blocks assigned to this rank (feature-
    /// weight integral for adaptive runs, vertex count for other
    /// irregular modes, block count for uniform runs). The
    /// cross-rank min/mean/max/imbalance aggregation of this counter is
    /// the load-balance report the `balance_sweep` bench reads.
    AssignCost,
}

/// All counters, in report order.
pub const ALL_COUNTERS: [Counter; 36] = [
    Counter::CellsPaired,
    Counter::CriticalCells,
    Counter::ArcsTraced,
    Counter::Cancellations,
    Counter::NodesShipped,
    Counter::ArcsShipped,
    Counter::ShipBytes,
    Counter::GluedNodes,
    Counter::GluedArcs,
    Counter::BytesSent,
    Counter::BytesRecv,
    Counter::MsgsSent,
    Counter::MsgsRecv,
    Counter::CheckpointBytes,
    Counter::Retries,
    Counter::RoundsReplayed,
    Counter::RecoveryMs,
    Counter::Crashes,
    Counter::ChecksRun,
    Counter::CheckStructural,
    Counter::CheckEuler,
    Counter::CheckBoundary,
    Counter::CheckVpath,
    Counter::CheckSegment,
    Counter::SegForwards,
    Counter::SegRounds,
    Counter::SegBoundaryBytes,
    Counter::SegRelabels,
    Counter::HierarchyRecords,
    Counter::CheckHierarchy,
    Counter::ServeQueries,
    Counter::ServeHits,
    Counter::ServeMisses,
    Counter::ServeCoalesced,
    Counter::ServeErrors,
    Counter::AssignCost,
];

impl Counter {
    pub const COUNT: usize = ALL_COUNTERS.len();

    /// Stable string key used in encoded reports and JSON output.
    pub fn key(self) -> &'static str {
        match self {
            Counter::CellsPaired => "cells_paired",
            Counter::CriticalCells => "critical_cells",
            Counter::ArcsTraced => "arcs_traced",
            Counter::Cancellations => "cancellations",
            Counter::NodesShipped => "nodes_shipped",
            Counter::ArcsShipped => "arcs_shipped",
            Counter::ShipBytes => "ship_bytes",
            Counter::GluedNodes => "glued_nodes",
            Counter::GluedArcs => "glued_arcs",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesRecv => "bytes_recv",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsRecv => "msgs_recv",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::Retries => "retries",
            Counter::RoundsReplayed => "rounds_replayed",
            Counter::RecoveryMs => "recovery_ms",
            Counter::Crashes => "crashes",
            Counter::ChecksRun => "checks_run",
            Counter::CheckStructural => "check_structural",
            Counter::CheckEuler => "check_euler",
            Counter::CheckBoundary => "check_boundary",
            Counter::CheckVpath => "check_vpath",
            Counter::CheckSegment => "check_segment",
            Counter::SegForwards => "seg_forwards",
            Counter::SegRounds => "seg_rounds",
            Counter::SegBoundaryBytes => "seg_boundary_bytes",
            Counter::SegRelabels => "seg_relabels",
            Counter::HierarchyRecords => "hierarchy_records",
            Counter::CheckHierarchy => "check_hierarchy",
            Counter::ServeQueries => "serve_queries",
            Counter::ServeHits => "serve_hits",
            Counter::ServeMisses => "serve_misses",
            Counter::ServeCoalesced => "serve_coalesced",
            Counter::ServeErrors => "serve_errors",
            Counter::AssignCost => "assign_cost",
        }
    }

    /// Dense index into a `[u64; Counter::COUNT]` accumulator array.
    pub fn index(self) -> usize {
        ALL_COUNTERS
            .iter()
            .position(|c| *c == self)
            .expect("counter present in ALL_COUNTERS")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_unique_and_indices_dense() {
        let keys: HashSet<&str> = ALL_COUNTERS.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), Counter::COUNT);
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
