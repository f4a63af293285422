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

/// The lock file holds the workspace members and the four in-repo
/// dependency packages, nothing else.
#[test]
fn lock_file_packages_are_the_members_and_four_in_repo_packages() {
    let names = |toml: &str| -> Vec<String> {
        let names = toml.lines().filter_map(|l| l.strip_prefix("name = \""));
        names.map(|n| n.trim_end_matches('"').to_string()).collect()
    };
    let mut got = names(include_str!("../Cargo.lock"));
    // a manifest's first name is its package's
    let mut want = vec![names(include_str!("../Cargo.toml")).remove(0)];
    for member in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/crates")).unwrap() {
        let manifest = member.unwrap().path().join("Cargo.toml");
        want.push(names(&std::fs::read_to_string(manifest).unwrap()).remove(0));
    }
    want.extend(["bytes", "crossbeam", "rand", "rand_chacha"].map(String::from));
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
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
