//! Versioned merge-round checkpoints.
//!
//! The pipeline's bulk-synchronous shape makes every merge-round
//! boundary a consistent cut: all sends of round *k* are matched before
//! anyone starts round *k + 1*. A [`Checkpoint`] captures one rank's
//! state at such a cut — its merge-plan cursor plus every living complex
//! it holds, each in the compact `msp-complex::wire` encoding (which
//! already carries boundary flags and member blocks). Replaying a lost
//! round from a checkpoint therefore reproduces the fault-free result
//! bit for bit.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   "MSK1"
//! version u16        (= 1)
//! rank    u32
//! round   u32        merge-plan cursor: rounds completed when saved
//! thresh  f32        persistence threshold the run resolved
//! n_slots u32
//! slot[i] block u32, len u32, wire bytes (MSC3 payload)
//! crc     u32        CRC-32 (IEEE) over everything above
//! ```
//!
//! The version stays 1 across wire format changes: this layout is
//! unchanged, and each slot payload names its own format in its magic.

use crate::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use msp_complex::wire::{self, WireError};
use msp_complex::MsComplex;

const MAGIC: &[u8; 4] = b"MSK1";
const VERSION: u16 = 1;

/// One rank's recoverable state at a merge-round boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub rank: u32,
    /// Merge rounds completed when this was taken (0 = after local
    /// compute, before any merging).
    pub round: u32,
    /// Global persistence threshold (resolved before merging starts;
    /// recovery must simplify with the same value).
    pub threshold: f32,
    /// `(block id, complex)` for every living complex this rank holds.
    pub slots: Vec<(u32, MsComplex)>,
}

/// Errors from [`Checkpoint::decode`].
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    BadMagic,
    /// Version in the header we do not understand.
    BadVersion(u16),
    /// CRC mismatch: the payload was corrupted at rest or in flight.
    BadCrc {
        expected: u32,
        found: u32,
    },
    Truncated,
    /// A slot's embedded complex failed wire decoding.
    Wire(WireError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad magic (not an MSK1 checkpoint)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadCrc { expected, found } => {
                write!(
                    f,
                    "checkpoint CRC mismatch (expected {expected:#010x}, found {found:#010x})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Wire(e) => write!(f, "checkpoint slot payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

impl Checkpoint {
    /// Serialize to the versioned, CRC-protected format. Complexes must
    /// be compacted (the wire layer requires it).
    pub fn encode(&self) -> Bytes {
        let body: usize = self
            .slots
            .iter()
            .map(|(_, c)| 8 + wire::estimate_size(c))
            .sum();
        let mut buf = BytesMut::with_capacity(4 + 2 + 4 + 4 + 4 + 4 + body + 4);
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(self.rank);
        buf.put_u32_le(self.round);
        buf.put_f32_le(self.threshold);
        buf.put_u32_le(self.slots.len() as u32);
        for (block, complex) in &self.slots {
            let payload = wire::serialize(complex);
            buf.put_u32_le(*block);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(&payload);
        }
        let crc = crc32::checksum(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Decode and fully validate (magic, version, CRC, every embedded
    /// complex).
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if data.len() < 4 + 2 + 4 + 4 + 4 + 4 + 4 {
            return Err(CheckpointError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let found = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let expected = crc32::checksum(body);
        if expected != found {
            return Err(CheckpointError::BadCrc { expected, found });
        }
        let mut buf = &body[4..];
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let rank = buf.get_u32_le();
        let round = buf.get_u32_le();
        let threshold = buf.get_f32_le();
        let n_slots = buf.get_u32_le() as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            if buf.remaining() < 8 {
                return Err(CheckpointError::Truncated);
            }
            let block = buf.get_u32_le();
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(CheckpointError::Truncated);
            }
            let complex = wire::deserialize(&buf[..len])?;
            buf.advance(len);
            slots.push((block, complex));
        }
        if buf.remaining() > 0 {
            return Err(CheckpointError::Wire(WireError::Corrupt(
                "trailing bytes after last slot",
            )));
        }
        Ok(Checkpoint {
            rank,
            round,
            threshold,
            slots,
        })
    }

    /// The complex checkpointed for `block`, if present.
    pub fn slot(&self, block: u32) -> Option<&MsComplex> {
        self.slots.iter().find(|(b, _)| *b == block).map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_grid::dims::RefinedDims;

    fn sample_complex(blocks: Vec<u32>, n_nodes: u32) -> MsComplex {
        let refined = RefinedDims {
            rx: 17,
            ry: 17,
            rz: 9,
        };
        let mut ms = MsComplex::new(refined, blocks);
        for i in 0..n_nodes {
            ms.add_node(u64::from(i) * 3, (i % 4) as u8, i as f32 * 0.5, i % 5 == 0);
        }
        // a few arcs between consecutive-index nodes, with leaf geometry
        for i in 1..n_nodes {
            let (a, b) = (i, i - 1);
            let (ia, ib) = (ms.nodes[a as usize].index, ms.nodes[b as usize].index);
            if ia == ib + 1 {
                let g = ms.add_leaf_geom(&[u64::from(a) * 3, u64::from(b) * 3]);
                ms.add_arc(a, b, g);
            }
        }
        ms
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            rank: 3,
            round: 2,
            threshold: 0.125,
            slots: vec![
                (0, sample_complex(vec![0, 1], 8)),
                (5, sample_complex(vec![5], 3)),
                (9, sample_complex(vec![9], 0)),
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.rank, ck.rank);
        assert_eq!(back.round, ck.round);
        assert_eq!(back.threshold, ck.threshold);
        assert_eq!(back.slots.len(), ck.slots.len());
        for ((b0, c0), (b1, c1)) in ck.slots.iter().zip(&back.slots) {
            assert_eq!(b0, b1);
            // wire encoding is canonical for compact complexes: byte
            // equality of re-serialization proves structural equality
            assert_eq!(wire::serialize(c0), wire::serialize(c1));
        }
        assert_eq!(back.slot(5).unwrap().nodes.len(), 3);
        assert!(back.slot(7).is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample_checkpoint().encode();
        // flip one bit somewhere in the middle
        let mut bad = bytes.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(CheckpointError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncation_and_magic_are_detected() {
        let bytes = sample_checkpoint().encode();
        assert_eq!(
            Checkpoint::decode(&bytes[..10]).err(),
            Some(CheckpointError::Truncated)
        );
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(
            Checkpoint::decode(&bad).err(),
            Some(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let bytes = sample_checkpoint().encode();
        let mut bad = bytes.to_vec();
        bad[4] = 99; // version field, little-endian low byte
        let n = bad.len();
        // re-seal the CRC so only the version is at fault
        let crc = crc32::checksum(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bad).err(),
            Some(CheckpointError::BadVersion(99))
        );
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint {
            rank: 0,
            round: 0,
            threshold: 0.0,
            slots: vec![],
        };
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.slots.len(), 0);
        assert_eq!(back.round, 0);
    }
}
