//! # msp-core
//!
//! The paper's primary contribution: a two-stage, data-parallel algorithm
//! for constructing the 1-skeleton of the Morse-Smale complex of a scalar
//! field on a distributed-memory machine (Gyulassy, Pascucci, Peterka,
//! Ross — *The Parallel Computation of Morse-Smale Complexes*, IPDPS
//! 2012).
//!
//! Two execution paths share all the algorithmic code:
//!
//! * [`pipeline::run_parallel`] — real parallel execution on the
//!   threaded message-passing backend (`msp_vmpi::comm`): use for runs at
//!   workstation scale and to validate correctness end-to-end, including
//!   the collective output file.
//! * [`simdriver::simulate`] — virtual-rank execution with measured
//!   compute and modeled communication/I-O, scaling to tens of thousands
//!   of ranks on one machine: use to regenerate the paper's scaling
//!   figures and merge-strategy tables.
//!
//! [`plan::MergePlan`] encodes the configurable radix-k merge schedule
//! and the paper's radix-8-first planning heuristic.

pub mod pipeline;
pub mod plan;
pub mod sched;
pub mod serve;
pub mod simdriver;

pub use pipeline::{
    check_persistence, msh_output_path, parse_persistence, run_parallel, seg_output_path,
    FaultConfig, Input, PipelineError, PipelineParams, RunResult,
};
pub use plan::MergePlan;
pub use sched::{feature_weights, full_merge_plan, Assignment, DecompMode, MergeSchedule};
pub use serve::{
    load_dataset, serve_lines, serve_tcp, Dataset, ServeConfig, ServeError, ServerCore,
};
pub use simdriver::{simulate, RoundReport, SimParams, SimReport};
