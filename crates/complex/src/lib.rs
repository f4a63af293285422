//! # msp-complex
//!
//! The Morse-Smale complex 1-skeleton: storage, construction from a
//! discrete gradient, persistence-based simplification, gluing of
//! block complexes, and a compact wire/file serialization.
//!
//! Follows the data-structure design of the paper (§IV-D, \[11\]):
//! nodes, arcs and geometry records are constant-sized elements stored in
//! flat arrays, optimized for efficient simplification; the geometry of
//! arcs created by cancellations *references* the geometry objects that
//! were merged instead of copying them (§IV-E).
//!
//! Module map:
//! * [`skeleton`] — [`MsComplex`] storage: nodes, arcs, geometry DAG,
//!   adjacency, address index;
//! * [`build`] — building a block-local complex from a scalar block
//!   (gradient assignment + V-path tracing);
//! * [`simplify`](mod@simplify) — lowest-persistence-first cancellation with the
//!   boundary-node restriction and a cancellation hierarchy;
//! * [`glue`] — merging complexes at shared-boundary nodes (§IV-F3);
//! * [`wire`] — serialization used for inter-process messages and the
//!   block-structured output file;
//! * [`query`] — census, filters and graph statistics over the living
//!   complex.

pub mod build;
pub mod export;
pub mod glue;
pub mod query;
pub mod simplify;
pub mod skeleton;
pub mod wire;

pub use build::{build_block_complex, complex_from_gradient, complex_from_gradient_mt, BuildStats};
pub use glue::{GlueError, GlueStats};
pub use simplify::{
    replay_cancellation, simplify, simplify_forwarding, simplify_with, CancelOrder, CancelRecord,
    ReplayError, SimplifyError, SimplifyParams, SimplifyStats, FORWARD_DRAIN,
};
pub use skeleton::{ArcId, GeomId, MsComplex, NodeId};
