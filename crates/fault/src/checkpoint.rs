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
//! ## Encoding: one serialization per slot
//!
//! A cut costs one serialization of each living slot and one CRC pass,
//! nothing more. [`encode_slots`] writes the header, serializes each
//! complex straight into the MSK1 buffer behind its `(block, len)` prefix
//! (`wire::serialize_into`: no clone, no temporary payload, no sizing
//! pass) and appends the CRC. It hands back, beside the checkpoint, each
//! slot's MSC3 payload as a view into that buffer: the bytes the merge
//! round ships and the write stores, so no slot is serialized twice and
//! none is copied. [`Checkpoint::encode`] is the same encoder.
//!
//! Decoding goes through [`CheckpointView`], which checks magic, CRC,
//! version and the slot table once and decodes no slot; a root replaying
//! one lost member glues that member's slot bytes straight in
//! (`glue_from_wire`) and decodes nothing.
//!
//! ## Why the version stays 1
//!
//! The layout above is the one version 1 has always had: the encoders
//! are new ways of producing the same bytes (pinned below by
//! `encoded_bytes_match_the_pinned_hash`), and a wire format change
//! needs no checkpoint version because each slot payload names its own
//! format in its magic.

use crate::crc32;
use bytes::{BufMut, Bytes};
use msp_complex::wire::{self, WireError};
use msp_complex::MsComplex;
use msp_telemetry::{Reader, Truncated};

const MAGIC: &[u8; 4] = b"MSK1";
const VERSION: u16 = 1;
/// Magic, version, rank, round, threshold and slot count.
const HEADER_BYTES: usize = 4 + 2 + 4 + 4 + 4 + 4;
/// A slot's block id and payload length.
const SLOT_BYTES: usize = 8;
const CRC_BYTES: usize = 4;

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

/// Errors from [`Checkpoint::decode`] and [`CheckpointView::parse`].
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
    /// The buffer ends early, or declares more slots or payload bytes
    /// than it holds (checked before allocating for them).
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

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        CheckpointError::Truncated
    }
}

/// The MSK1 bytes of `rank`'s cut at merge cursor `round`, holding
/// `slots` (`(block id, complex)`, stored in the order given), and each
/// slot's MSC3 payload as a view into them, in the same order. A complex
/// may hold tombstones: its payload is the bytes of its compaction.
pub fn encode_slots<'a>(
    rank: u32,
    round: u32,
    threshold: f32,
    slots: impl ExactSizeIterator<Item = (u32, &'a MsComplex)>,
) -> (Bytes, Vec<Bytes>) {
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(rank);
    buf.put_u32_le(round);
    buf.put_f32_le(threshold);
    buf.put_u32_le(slots.len() as u32);
    let mut spans = Vec::with_capacity(slots.len());
    for (block, complex) in slots {
        buf.put_u32_le(block);
        let len_at = buf.len();
        buf.put_u32_le(0);
        wire::serialize_into(complex, &mut buf);
        let span = len_at + 4..buf.len();
        let len = u32::try_from(span.len()).expect("an MSK1 slot holds under 4 GiB");
        buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        spans.push(span);
    }
    let crc = crc32::checksum(&buf);
    buf.put_u32_le(crc);
    let encoded = Bytes::from(buf);
    let payloads = spans.into_iter().map(|s| encoded.slice(s)).collect();
    (encoded, payloads)
}

impl Checkpoint {
    /// Serialize to the versioned, CRC-protected format ([`encode_slots`]).
    pub fn encode(&self) -> Bytes {
        let slots = self.slots.iter().map(|(b, c)| (*b, c));
        encode_slots(self.rank, self.round, self.threshold, slots).0
    }

    /// Decode and fully validate (magic, version, CRC, every embedded
    /// complex).
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let view = CheckpointView::parse(data)?;
        Ok(Checkpoint {
            rank: view.rank,
            round: view.round,
            threshold: view.threshold,
            slots: view.decode(|_| true)?,
        })
    }
}

/// A checkpoint whose magic, CRC, version and slot table are checked but
/// whose slots are still MSC3 payloads, decoded only on request.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    pub rank: u32,
    pub round: u32,
    pub threshold: f32,
    /// `(block id, MSC3 payload)` per slot, in stored order.
    pub slots: Vec<(u32, &'a [u8])>,
}

impl<'a> CheckpointView<'a> {
    /// Check `data` in the order magic → CRC → version → slot table →
    /// trailing bytes. Every declared count and length is checked
    /// against the bytes that remain before anything is allocated.
    pub fn parse(data: &'a [u8]) -> Result<CheckpointView<'a>, CheckpointError> {
        if data.len() < HEADER_BYTES + CRC_BYTES {
            return Err(CheckpointError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, crc_bytes) = data.split_at(data.len() - CRC_BYTES);
        let found = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let expected = crc32::checksum(body);
        if expected != found {
            return Err(CheckpointError::BadCrc { expected, found });
        }
        let mut r = Reader::new(&body[4..]);
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let rank = r.u32()?;
        let round = r.u32()?;
        let threshold = r.f32()?;
        let n_slots = r.count(SLOT_BYTES)?;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let block = r.u32()?;
            let len = r.u32()?;
            slots.push((block, r.take(len as usize)?));
        }
        if !r.is_empty() {
            return Err(CheckpointError::Wire(WireError::Corrupt(
                "trailing bytes after last slot",
            )));
        }
        Ok(CheckpointView {
            rank,
            round,
            threshold,
            slots,
        })
    }

    /// The MSC3 payload checkpointed for `block`, if present.
    pub fn slot(&self, block: u32) -> Option<&'a [u8]> {
        self.slots
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, p)| *p)
    }

    /// Decode the slots whose block `keep` accepts, in stored order.
    pub fn decode(
        &self,
        keep: impl Fn(u32) -> bool,
    ) -> Result<Vec<(u32, MsComplex)>, CheckpointError> {
        let kept = self.slots.iter().filter(|(block, _)| keep(*block));
        kept.map(|&(block, payload)| Ok((block, wire::deserialize(payload)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_complex::build_block_complex;
    use msp_complex::simplify::{simplify, SimplifyParams};
    use msp_grid::decomp::Decomposition;
    use msp_grid::dims::RefinedDims;
    use msp_grid::Dims;

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

    /// Rank 1's cut at cursor 2 holding blocks 0 and 1 of
    /// `bisect(dims, 8)` over noise of side `n`, each traced and
    /// simplified locally at 1 % of the value range, as the pipeline's
    /// local stage leaves them.
    fn real_checkpoint(n: u32) -> Checkpoint {
        let field = msp_synth::white_noise(Dims::cube(n), 1);
        let (lo, hi) = field.min_max();
        let threshold = 0.01 * (hi - lo);
        let d = Decomposition::bisect(field.dims(), 8);
        let slots = (0..2)
            .map(|b| {
                let bf = field.extract_block(d.block(b));
                let (mut ms, _) = build_block_complex(&bf, &d, Default::default());
                simplify(&mut ms, SimplifyParams::up_to(threshold)).unwrap();
                ms.compact();
                (b, ms)
            })
            .collect();
        Checkpoint {
            rank: 1,
            round: 2,
            threshold,
            slots,
        }
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a-64 of `real_checkpoint(17).encode()`. It moves only when
    /// the MSK1 layout or the MSC3 wire format changes on purpose (or the
    /// local stage changes the complexes); a new encoder must not move it.
    const PINNED_MSK1: u64 = 0xc9c3_28dd_af1a_6a46;

    #[test]
    fn encoded_bytes_match_the_pinned_hash() {
        let got = fnv1a64(&real_checkpoint(17).encode());
        assert_eq!(got, PINNED_MSK1, "encoded now: {got:#018x}");
    }

    #[test]
    fn slot_views_are_the_wire_payloads() {
        let ck = real_checkpoint(9);
        let slots = ck.slots.iter().map(|(b, c)| (*b, c));
        let (encoded, payloads) = encode_slots(ck.rank, ck.round, ck.threshold, slots);
        assert_eq!(encoded, ck.encode());
        let view = CheckpointView::parse(&encoded).unwrap();
        for ((b, c), (p, (vb, vp))) in ck.slots.iter().zip(payloads.iter().zip(&view.slots)) {
            assert_eq!(*p, wire::serialize(c));
            assert_eq!((b, &p[..]), (vb, *vp));
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
        assert_eq!(back.slots[1].1.nodes.len(), 3);
    }

    #[test]
    fn view_hands_out_one_slot_undecoded() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        let view = CheckpointView::parse(&bytes).unwrap();
        assert_eq!((view.rank, view.round), (3, 2));
        assert_eq!(view.slots.len(), 3);
        let payload = view.slot(5).unwrap();
        assert_eq!(payload, &wire::serialize(&ck.slots[1].1)[..]);
        assert!(view.slot(7).is_none());
        let five = view.decode(|b| b == 5).unwrap();
        assert_eq!(five.len(), 1);
        assert_eq!(wire::serialize(&five[0].1), wire::serialize(&ck.slots[1].1));
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

    /// Overwrite the CRC so only the edited field is at fault.
    fn reseal(bad: &mut [u8]) {
        let n = bad.len();
        let crc = crc32::checksum(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn future_version_is_rejected() {
        let bytes = sample_checkpoint().encode();
        let mut bad = bytes.to_vec();
        bad[4] = 99; // version field, little-endian low byte
        reseal(&mut bad);
        assert_eq!(
            Checkpoint::decode(&bad).err(),
            Some(CheckpointError::BadVersion(99))
        );
    }

    #[test]
    fn huge_slot_count_is_refused_before_allocating() {
        let mut bad = sample_checkpoint().encode().to_vec();
        bad[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        assert_eq!(
            Checkpoint::decode(&bad).err(),
            Some(CheckpointError::Truncated)
        );
    }

    #[test]
    fn hostile_checkpoints_never_panic() {
        let ck = real_checkpoint(7);
        assert_eq!(ck.slots.len(), 2);
        let bytes = ck.encode().to_vec();
        assert!(Checkpoint::decode(&bytes).is_ok());
        for cut in 0..bytes.len() {
            // a prefix long enough to hold a header and a CRC fails the CRC
            match Checkpoint::decode(&bytes[..cut]).unwrap_err() {
                CheckpointError::Truncated => assert!(cut < HEADER_BYTES + CRC_BYTES),
                CheckpointError::BadCrc { .. } => assert!(cut >= HEADER_BYTES + CRC_BYTES),
                e => panic!("prefix {cut}: {e}"),
            }
        }
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                assert!(Checkpoint::decode(&flipped).is_err(), "byte {at} bit {bit}");
                flipped[at] ^= 1 << bit;
            }
        }
        // the same flips with the CRC re-sealed, over the header and the
        // first slot's prefix: the slot table itself must hold
        for at in 0..HEADER_BYTES + SLOT_BYTES {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[at] ^= 1 << bit;
                reseal(&mut b);
                let _ = Checkpoint::decode(&b);
            }
        }
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
