//! # msp-core
//!
//! The paper's primary contribution: a two-stage, data-parallel algorithm
//! for constructing the 1-skeleton of the Morse-Smale complex of a scalar
//! field on a distributed-memory machine (Gyulassy, Pascucci, Peterka,
//! Ross — *The Parallel Computation of Morse-Smale Complexes*, IPDPS
//! 2012).
//!
//! The algorithm is written once, as the bulk-synchronous stage list of
//! `stages.rs`, and run by two machines:
//!
//! * [`pipeline::run_parallel`] — the threaded backend: one OS thread and
//!   one message-passing endpoint (`msp_vmpi::comm`) per rank, measured
//!   phases; use for runs at workstation scale and to validate
//!   correctness end-to-end, including the collective output files.
//! * [`simdriver::simulate`] — virtual ranks in one process with measured
//!   compute and modeled communication/I-O, scaling to tens of thousands
//!   of ranks on one machine: use to regenerate the paper's scaling
//!   figures and merge-strategy tables.
//!
//! [`MergePlan`] encodes the configurable radix-k merge schedule and the
//! paper's radix-8-first planning heuristic; it and the run layout
//! (decomposition mode, assignment, merge schedule) live in `msp-grid`
//! beside the decomposition, and are re-exported here under their old
//! paths (`plan`, `sched`).

pub mod pipeline;
pub mod serve;
pub mod simdriver;
mod stages;

pub use msp_grid::layout as sched;
pub use msp_grid::{
    feature_weights, full_merge_plan, plan, Assignment, DecompMode, MergePlan, MergeSchedule,
};
pub use pipeline::{
    check_persistence, msh_output_path, parse_persistence, run_parallel, seg_output_path,
    CheckVerdict, FaultConfig, Input, PipelineError, PipelineParams, RunResult,
};
pub use serve::{
    dataset_names, load_dataset, serve_session, serve_tcp, Dataset, ServeConfig, ServeError,
    ServerCore,
};
pub use simdriver::{simulate, RoundReport, SimParams, SimReport};
