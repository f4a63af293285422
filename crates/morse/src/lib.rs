//! # msp-morse
//!
//! Discrete-Morse-theory substrate: computing a discrete gradient vector
//! field on a block of a structured grid and tracing its V-paths.
//!
//! The paper (§IV-C) computes the gradient with the approach of Gyulassy
//! et al. \[10\], pairing cells in the direction of steepest descent with
//! simulation of simplicity, and **restricts pairing on shared block
//! faces** so that neighbouring blocks produce identical boundary
//! gradients — the property that later lets Morse-Smale complexes be
//! glued. This crate provides:
//!
//! * [`gradient::GradientField`] — the paper's one-byte-per-cell refined
//!   grid encoding of pairing direction, criticality and assignment;
//! * [`lower_star::assign_gradient`] — the gradient: per-vertex
//!   lower-star homotopy expansion, stratified by the owner sets of the
//!   decomposition (the boundary restriction), swept over z-slabs;
//! * `flat` (internal) — the structure-of-arrays kernel behind it: the
//!   lower star as a 27-bit set, membership and pairing eligibility for
//!   all its cells at once, rank-set in-star keys, zero allocations per
//!   vertex;
//! * [`kernel`] — the one-variant [`Kernel`] argument the `*_kernel`
//!   entry points still take, and the [`KernelStats`] fed into
//!   telemetry;
//! * [`trace`] — V-path tracing from critical cells, producing the arcs
//!   and geometric embeddings that the MS complex is built from;
//! * [`validate`] — structural validity checks (pairing legality,
//!   acyclicity, Euler characteristic, cross-block boundary equality)
//!   used heavily by the test suites.

mod flat;
pub mod gradient;
pub mod kernel;
pub mod lower_star;
mod pool;
pub mod trace;
pub mod validate;

pub use gradient::GradientField;
pub use kernel::{active_kernel, Kernel, KernelStats};
pub use lower_star::{assign_gradient, assign_gradient_kernel, assign_gradient_par};
pub use trace::{
    trace_all_arcs, trace_all_arcs_kernel, trace_arcs_from, ArcRec, ArcStore, TraceLimits,
    TraceStats, TracedArc,
};
