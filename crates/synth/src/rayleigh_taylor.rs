//! Rayleigh-Taylor mixing-front density analogue (Fig 10 dataset).
//!
//! The original is the density field of a 1152³ Rayleigh-Taylor
//! instability simulation: a heavy fluid over a light one, with rising
//! bubbles and falling spikes along a turbulent interface. "The
//! 1-skeleton of the MS complex can detect when isolated bits of one
//! fluid penetrate the other." The analogue: a vertical density ramp
//! crossed by a multi-scale perturbed interface, with density
//! fluctuations (entrained blobs) confined to the mixing layer.

use msp_grid::{Dims, ScalarField};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::f32::consts::PI;

struct Wave {
    kx: f32,
    ky: f32,
    phase: f32,
    amp: f32,
}

/// Generate the RT-like density field on an `n³` grid.
///
/// `waves` controls how many interface perturbation modes are summed
/// (multi-scale, amplitudes ∝ 1/k); `seed` fixes all randomness.
pub fn rayleigh_taylor(n: u32, waves: usize, seed: u64) -> ScalarField {
    rayleigh_taylor_dims(Dims::cube(n), waves, seed)
}

/// Anisotropic-grid variant of [`rayleigh_taylor`].
pub fn rayleigh_taylor_dims(dims: Dims, waves: usize, seed: u64) -> ScalarField {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let interface: Vec<Wave> = (0..waves)
        .map(|i| {
            // multi-scale: early modes long-wavelength, later ones short
            let kmag = 1.5f32 + (i as f32 / waves.max(1) as f32) * 14.0;
            let dir = rng.gen_range(0.0..2.0 * PI);
            Wave {
                kx: kmag * dir.cos(),
                ky: kmag * dir.sin(),
                phase: rng.gen_range(0.0..2.0 * PI),
                amp: rng.gen_range(0.5..1.0) / kmag,
            }
        })
        .collect();
    // small-scale blobs inside the mixing layer
    let blobs: Vec<Wave> = (0..waves * 2)
        .map(|_| {
            let kmag = rng.gen_range(6.0..28.0);
            let dir = rng.gen_range(0.0..2.0 * PI);
            Wave {
                kx: kmag * dir.cos(),
                ky: kmag * dir.sin(),
                phase: rng.gen_range(0.0..2.0 * PI),
                amp: rng.gen_range(0.3..1.0) / kmag.sqrt(),
            }
        })
        .collect();
    let blob_kz: Vec<f32> = (0..blobs.len()).map(|_| rng.gen_range(4.0..20.0)).collect();
    let layer_halfwidth = 0.16f32;

    ScalarField::from_fn(dims, |x, y, z| {
        let u = x as f32 / (dims.nx - 1).max(1) as f32;
        let v = y as f32 / (dims.ny - 1).max(1) as f32;
        let w = z as f32 / (dims.nz - 1).max(1) as f32;
        // interface height perturbation around mid-plane
        let mut h = 0.0f32;
        for wv in &interface {
            h += wv.amp * (2.0 * PI * (wv.kx * u + wv.ky * v) + wv.phase).sin();
        }
        let zi = 0.5 + 0.05 * h; // perturbed interface height
                                 // heavy fluid (density 2) above, light (1) below, tanh transition
        let mut rho = 1.5 + 0.5 * ((w - zi) / 0.03).tanh();
        // mixing-layer fluctuations: entrained pockets of the other fluid
        let layer = (-(w - 0.5).powi(2) / (2.0 * layer_halfwidth.powi(2))).exp();
        let mut fluct = 0.0f32;
        for (b, kz) in blobs.iter().zip(&blob_kz) {
            fluct += b.amp * (2.0 * PI * (b.kx * u + b.ky * v + kz * w) + b.phase).sin();
        }
        rho += 0.25 * layer * fluct;
        rho
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = rayleigh_taylor(24, 16, 5);
        let b = rayleigh_taylor(24, 16, 5);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn heavy_above_light_below() {
        let f = rayleigh_taylor(48, 24, 9);
        let bottom: f32 = (0..48).map(|x| f.value(x, 24, 2)).sum::<f32>() / 48.0;
        let top: f32 = (0..48).map(|x| f.value(x, 24, 45)).sum::<f32>() / 48.0;
        assert!(bottom < 1.2, "bottom should be light fluid, got {bottom}");
        assert!(top > 1.8, "top should be heavy fluid, got {top}");
    }

    #[test]
    fn mixing_layer_has_structure() {
        let f = rayleigh_taylor(64, 32, 13);
        // variance at mid-plane should exceed variance near the bottom
        let var = |z: u32| {
            let vals: Vec<f32> = (0..64)
                .flat_map(|x| (0..64).map(move |y| (x, y)))
                .map(|(x, y)| f.value(x, y, z))
                .collect();
            let m = vals.iter().sum::<f32>() / vals.len() as f32;
            vals.iter().map(|v| (v - m).powi(2)).sum::<f32>() / vals.len() as f32
        };
        assert!(var(32) > 10.0 * var(3), "mid-plane should be turbulent");
    }
}
