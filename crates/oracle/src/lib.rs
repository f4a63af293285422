//! # msp-oracle
//!
//! Independent correctness oracle for the Morse-Smale pipeline.
//!
//! Every other test in the workspace asserts *self*-consistency
//! (parallel-vs-serial byte equality, wire round-trips, recovery
//! bit-exactness); this crate independently checks that what the
//! pipeline computes *is* a Morse-Smale complex per the paper's
//! definition, in three layers:
//!
//! * [`reference`](mod@reference) — a naive, obviously-correct re-implementation of the
//!   lower-star gradient and of brute-force V-path enumeration. No slab
//!   splitting, no scratch reuse, no arenas, no interior fast path:
//!   counts are recomputed from scratch every step, cells are compared
//!   by their full simulation-of-simplicity keys, owner sets always come
//!   from the decomposition. Deliberately slow, deliberately simple —
//!   the production `msp-morse` path is diffed against it bit for bit.
//! * [`invariant`] — a checker over any [`msp_complex::MsComplex`]:
//!   structural integrity, Euler characteristic, boundary-flag
//!   correctness, boundary-node preservation under simplification,
//!   V-path validity of every traced arc geometry, and glue idempotency.
//! * [`segcheck`] — a naive step-at-a-time reference segmentation (no
//!   code shared with `msp-segment`) plus invariants over the resolved
//!   labeled volumes: V-path label constancy and representative
//!   liveness in the covering complex.
//! * [`case`] + [`mutate`] — deterministic fuzz-case generation /
//!   shrinking / replay (driven by the workspace `oracle_fuzz` binary)
//!   and gradient mutation for checker self-tests. A case is laid out by
//!   the pipeline's own validator (`msp_grid::Layout::new`), so a case
//!   that validates is one the pipeline runs.
//!
//! The crate depends only on `msp-grid`/`msp-morse`/`msp-complex`/
//! `msp-synth`; the pipeline (`msp-core`) depends on *it* to implement
//! `--check`, and the fuzz driver lives in the workspace root.

pub mod case;
pub mod invariant;
pub mod mutate;
pub mod reference;
pub mod segcheck;

pub use case::{Case, FieldKind, Schedule};
pub use invariant::{
    check_complex, check_glue_idempotent, check_semantic, check_structural, fingerprint,
    CheckOptions, Fingerprint, InvariantReport,
};
pub use mutate::drop_pairing;
pub use reference::{
    arcs_of_complex, arcs_of_store, diff_arcs, diff_gradient, reference_arcs, reference_gradient,
    RefArc,
};
pub use segcheck::{
    check_segmentation_block, check_segmentation_tables, diff_segmentation, reference_segmentation,
    RefSegmentation, SegView, SEG_DRAIN_ADDR, SEG_DRAIN_LABEL,
};
