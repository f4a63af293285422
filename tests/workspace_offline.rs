//! The workspace builds from this repository alone, and the in-repo
//! generator behind every seeded synthetic field keeps its output.

use morse_smale_parallel::grid::{Dims, ScalarField};
use morse_smale_parallel::synth;

/// A registry or git package shows up in the lock file as a `source`
/// line; every package here is a path inside the repository.
#[test]
fn lock_file_names_no_external_source() {
    let lock = include_str!("../Cargo.lock");
    let external: Vec<&str> = lock.lines().filter(|l| l.contains("source = ")).collect();
    assert!(external.is_empty(), "external packages: {external:?}");
}

/// FNV-1a-64 over the field's little-endian sample bytes.
fn fnv1a(f: &ScalarField) -> u64 {
    f.data()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `scripts/offline_stubs/rand_chacha.rs` (a SplitMix64) is the generator
/// behind the `.case` corpus, the `results/` artifacts and the benchmark
/// inputs. These constants change only when a generator is changed on
/// purpose — and then those artifacts change with them.
#[test]
fn seeded_generators_keep_their_bytes() {
    let bumps = synth::gaussian_bumps(Dims::cube(9), 3, 0.15, 6);
    let jet = synth::jet(Dims::new(12, 14, 8), 160, 2012);
    let rt = synth::rayleigh_taylor(9, 4, 7);
    assert_eq!(fnv1a(&bumps), 0xa310_0c86_00a6_7d55, "gaussian_bumps");
    assert_eq!(fnv1a(&jet), 0xc0b7_f3c6_c074_c620, "jet");
    assert_eq!(fnv1a(&rt), 0x4d24_9b77_bc10_bcea, "rayleigh_taylor");
}
