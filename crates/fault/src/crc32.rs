//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8 —
//! no dependency, deterministic everywhere.
//!
//! The bytewise table method makes every byte wait on the previous
//! byte's lookup. Slice-by-8 folds eight input bytes per step through
//! eight compile-time tables (`TABLES[k]` advances a byte through `k`
//! further zero bytes), so the eight lookups of a step are independent
//! and the loop runs about four times faster on the checkpoint path
//! (DESIGN.md §9, "Cost model"). The values are the bytewise method's;
//! the tests hold the two equal at every length and alignment.

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn checksum(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-at-a-time table method slice-by-8 must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // canonical check value for "123456789"
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = checksum(b"hello, torus");
        assert_ne!(base, checksum(b"hello, torut"));
        assert_ne!(base, checksum(b"hello, toru"));
    }

    #[test]
    fn slice_by_8_equals_bytewise() {
        // 64 KiB of splitmix64 bytes
        let mut rng = msp_grid::SplitMix64::new(0x5EED);
        let bytes: Vec<u8> = (0..8192)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        assert_eq!(checksum(&bytes), bytewise(&bytes));
        // every length through eight whole words, at every alignment
        for start in 0..8 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(checksum(s), bytewise(s), "start {start} len {len}");
            }
        }
    }
}
