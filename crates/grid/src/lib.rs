//! # msp-grid
//!
//! Structured-grid substrate for the parallel Morse-Smale pipeline.
//!
//! The scalar field lives at the vertices of a regular 3D grid. Discrete
//! Morse theory operates on the induced *cubical complex*: vertices,
//! edges, quads and voxels. Following the paper (Gyulassy et al.,
//! IPDPS 2012, §IV-C), the complex is addressed through a **refined
//! grid** of dimensions `(2·Nx−1, 2·Ny−1, 2·Nz−1)`: the cell at refined
//! coordinate `(i, j, k)` has dimension `i%2 + j%2 + k%2`, so vertices sit
//! at all-even coordinates, voxels at all-odd coordinates, and edges/quads
//! in between. The linearised refined coordinate is the **global address**
//! of a cell — the key used to glue Morse-Smale complexes computed on
//! neighbouring blocks.
//!
//! The other half of this crate is the **domain decomposition**: the
//! recursive longest-axis bisection of the vertex grid into blocks that
//! share one vertex layer with each neighbour (§IV-A), together with the
//! *owner set* query that underlies the paper's boundary-restricted
//! gradient pairing rule ("for a cell on the boundary of two or more
//! blocks, only consider for pairing other cells also on the boundary of
//! those same blocks").
//!
//! Beside it sit the merge plan (`plan`, the radix-k rounds of §IV-F),
//! the fault plan (`fault`) and the run layout (`layout`): decomposition
//! mode, block-to-rank assignment and merge schedule, built and
//! validated in one place, [`Layout::new`].

pub mod coord;
pub mod decomp;
pub mod dims;
pub mod fault;
pub mod field;
pub mod layout;
pub mod offsets;
pub mod par;
pub mod plan;
pub mod rawio;
pub mod topology;

pub use coord::{RCoord, SplitMix64};
pub use decomp::{BlockBox, Decomposition, OwnerSet};
pub use dims::{Dims, RefinedDims};
pub use fault::{FaultEvent, FaultPlan, PlanParseError, SendFate};
pub use field::{BlockField, ScalarField};
pub use layout::{
    feature_weights, full_merge_plan, Assignment, DecompMode, Layout, LayoutError, MergeSchedule,
};
pub use plan::MergePlan;
pub use topology::{CellIter, FaceDir};
