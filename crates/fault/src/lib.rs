//! # msp-fault
//!
//! Fault tolerance for the parallel MS-complex pipeline (DESIGN.md §9).
//!
//! The paper's target machine is a 32k-node Blue Gene/P, where rank
//! failure mid-run is an operational reality. The algorithm's
//! bulk-synchronous shape — local compute, then radix-k merge rounds,
//! then a collective write — makes every round boundary a natural
//! consistent cut, and this crate packages the three pieces needed to
//! exploit that:
//!
//! * [`plan`] — a deterministic, seedable [`FaultPlan`] (from
//!   `msp_grid`): crash rank *r* at round *k*, drop/delay the *n*-th
//!   merge ship on a link, slow a rank by a factor. Plans parse from a
//!   compact CLI spec (`crash:2@1;drop:0->3#7`); the stage list asks
//!   them what to do ([`FaultPlan::fate`] for each ship).
//! * [`checkpoint`] — a versioned, CRC-protected [`Checkpoint`] of one
//!   rank's state at a round boundary: merge-plan cursor, resolved
//!   persistence threshold, and every living complex in the compact
//!   `msp-complex::wire` encoding.
//! * [`store`] — a [`CheckpointStore`] shared across ranks, standing in
//!   for stable storage, from which survivors reload a dead peer's
//!   state to replay the affected round.
//!
//! The recovery protocol itself lives in `msp-core`'s stage list, which
//! both the threaded and the simulated backend run; this crate only
//! provides the deterministic inputs and durable state it needs.

pub mod checkpoint;
pub mod crc32;
pub mod plan;
pub mod store;

pub use checkpoint::{encode_slots, Checkpoint, CheckpointError, CheckpointView};
pub use plan::{FaultEvent, FaultPlan, PlanParseError, SendFate};
pub use store::CheckpointStore;
