//! # msp-synth
//!
//! Synthetic scalar-field generators. These stand in for the datasets of
//! the paper's evaluation (see DESIGN.md §2 for the substitution
//! rationale):
//!
//! * [`sinusoid`](mod@sinusoid) — the size × complexity family of §VI-B (Figs 5, 6):
//!   a product-of-sines field whose *complexity* parameter is the number
//!   of ±1 extrema of the sine along one side of the volume.
//! * [`hydrogen`](mod@hydrogen) — an analytic stand-in for the hydrogen-atom
//!   probability-density field of Fig 4: aligned maxima lobes, a toroidal
//!   ridge, and a large constant-value exterior plateau (byte-quantized,
//!   as the original).
//! * [`jet`](mod@jet) — a turbulent-jet mixture-fraction analogue for the JET
//!   strong-scaling study (Fig 9): minima-rich shear-layer turbulence.
//! * [`rayleigh_taylor`](mod@rayleigh_taylor) — a mixing-front density analogue for the
//!   Rayleigh-Taylor strong-scaling study (Fig 10).
//! * [`porous`](mod@porous) — a periodic-surface signed-distance analogue of the
//!   porous-material field of Fig 1, for filament extraction.
//! * [`basic`] — ramps, constants, Gaussian-bump mixtures and white noise
//!   used throughout the test suites.
//!
//! All generators are deterministic: random fields take an explicit seed
//! and derive per-mode parameters from a seeded ChaCha stream, so repeated
//! generation (including per-block regeneration of shared layers) is
//! bitwise reproducible.

pub mod basic;
pub mod hydrogen;
pub mod jet;
pub mod porous;
pub mod rayleigh_taylor;
pub mod sinusoid;

pub use basic::{constant, gaussian_bumps, plateau, ramp, white_noise};
pub use hydrogen::hydrogen;
pub use jet::jet;
pub use porous::porous;
pub use rayleigh_taylor::rayleigh_taylor;
pub use sinusoid::{sinusoid, sinusoid_dims};
