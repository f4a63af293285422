//! # msp-vmpi
//!
//! A virtual message-passing substrate standing in for MPI on the
//! IBM Blue Gene/P (see DESIGN.md §2 for the substitution rationale).
//!
//! Three layers:
//!
//! * [`comm`] — a **threaded backend**: one OS thread per rank, typed
//!   point-to-point messages with `(source, tag)` matching, and the
//!   collectives the pipeline needs (barrier, gather, broadcast,
//!   all-reduce). Data movement is real: payloads are serialized bytes
//!   travelling through channels. Every operation is fallible
//!   (`Result<_, CommError>`, optional receive deadlines, and a receive
//!   from a rank that has returned fails at once) — the substrate the
//!   fault-tolerant pipeline builds on. Suitable for
//!   rank counts that fit a workstation (tests use ≤ 64, examples ≤ 256).
//! * [`fileio`] — collective file operations mirroring MPI-IO usage in
//!   the paper (§IV-B, §IV-G): subarray-view reads and a collective
//!   block write that appends a footer index, including "null" writes by
//!   ranks with no output blocks.
//! * [`netmodel`] — a 3D-torus + LogGP-style performance model with
//!   BG/P-flavoured constants, and a parallel-filesystem model. The
//!   simulation driver in `msp-core` combines *measured* per-rank compute
//!   times with these *modeled* communication/I-O times to reproduce the
//!   shape of the paper's scaling figures at virtual rank counts far
//!   beyond the host machine.

pub mod comm;
pub mod fileio;
pub mod netmodel;
pub mod pairmsg;

pub use comm::{CommError, CommStats, Rank, Universe};
pub use netmodel::{IoParams, NetParams, Torus};
