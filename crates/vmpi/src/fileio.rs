//! Collective file operations (paper §IV-B, §IV-G).
//!
//! *Reads* use subarray views: a list of `(offset, length)` byte runs per
//! rank — the access pattern an MPI subarray datatype + file view
//! produces. *Writes* are collective: every rank contributes zero or more
//! payload blocks ("processes with no output blocks participate … by
//! issuing a null write"), offsets are assigned by an exscan at rank 0,
//! each rank writes its payloads at its offsets, and rank 0 appends a
//! **footer** indexing every block — "a binary collection of all of the
//! output blocks, followed by a footer that provides an index".

use crate::comm::{CommError, Rank};
use crate::pairmsg::{decode_pairs, decode_u64s, encode_pairs, encode_u64s};
use bytes::{BufMut, Bytes};
use msp_telemetry::Reader;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const FOOTER_MAGIC: &[u8; 4] = b"MSPF";
/// A footer entry's offset, length and writer.
const ENTRY_BYTES: usize = 20;

/// A collective write is only as reliable as its participants: a comm
/// failure mid-collective is an I/O failure from the caller's view.
fn comm_err(e: CommError) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, format!("collective write: {e}"))
}

fn invalid_data(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

const TAG_SIZES: u32 = 9001;
const TAG_OFFSETS: u32 = 9002;

/// One footer entry: where a block payload lives in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FooterEntry {
    pub offset: u64,
    pub len: u64,
    /// Rank that wrote the block (provenance; mirrors the paper's file
    /// format documentation pointer \[23\]).
    pub writer: u32,
}

/// Read a rank's subarray view: the concatenation of the given byte runs.
/// A run past the end of the file is refused before anything is
/// allocated.
pub fn read_runs(path: &Path, runs: &[(u64, u64)]) -> io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let size = f.metadata()?.len();
    let total = runs
        .iter()
        .try_fold(0u64, |total, &(off, len)| {
            off.checked_add(len).filter(|&end| end <= size)?;
            total.checked_add(len)
        })
        .ok_or_else(|| invalid_data("byte run past the end of the file"))?;
    let mut out = Vec::with_capacity(total as usize);
    let mut buf = Vec::new();
    for &(off, len) in runs {
        f.seek(SeekFrom::Start(off))?;
        buf.resize(len as usize, 0);
        f.read_exact(&mut buf)?;
        out.extend_from_slice(&buf);
    }
    Ok(out)
}

/// Collectively write this rank's payload blocks (possibly none) and the
/// footer. Every rank must call this; returns the footer on every rank.
/// Payloads are placed in the file in ascending **key** order across all
/// ranks (keys must be globally unique — e.g. block ids), and the
/// footer's third field records the key. Because neither placement nor
/// footer depends on which rank contributed which payload, the same
/// payload/key sets produce a **byte-identical file for every rank
/// count** — the determinism contract of the `.seg` labeled volume.
pub fn collective_write_blocks_keyed(
    rank: &Rank,
    path: &Path,
    payloads: &[Bytes],
    keys: &[u64],
) -> io::Result<Vec<FooterEntry>> {
    debug_assert_eq!(payloads.len(), keys.len());
    // 1. announce keys and sizes
    let sizes: Vec<(u64, u64)> = (keys.iter().zip(payloads))
        .map(|(&key, p)| (key, p.len() as u64))
        .collect();
    let gathered = rank
        .gather(0, TAG_SIZES, encode_pairs(&sizes))
        .map_err(comm_err)?;

    // 2. rank 0 assigns offsets and builds the footer
    let footer: Vec<FooterEntry>;
    let my_offsets: Vec<u64>;
    if let Some(all) = gathered {
        // (sort key, writer rank, writer-local index, len)
        let mut blocks: Vec<(u64, usize, usize, u64)> = Vec::new();
        for (r, msg) in all.iter().enumerate() {
            let sizes = decode_pairs(msg).map_err(invalid_data)?;
            for (i, (key, len)) in sizes.into_iter().enumerate() {
                blocks.push((key, r, i, len));
            }
        }
        // interleave ranks into global key order
        blocks.sort();
        let mut entries = Vec::with_capacity(blocks.len());
        let mut per_rank_offsets: Vec<Vec<(usize, u64)>> = vec![Vec::new(); rank.size()];
        let mut cursor = 0u64;
        for &(key, r, i, len) in &blocks {
            per_rank_offsets[r].push((i, cursor));
            entries.push(FooterEntry {
                offset: cursor,
                len,
                writer: key as u32,
            });
            cursor += len;
        }
        // offsets travel in each rank's local payload order
        let mut per_rank_offsets: Vec<Vec<u64>> = per_rank_offsets
            .into_iter()
            .map(|mut v| {
                v.sort();
                v.into_iter().map(|(_, o)| o).collect()
            })
            .collect();
        // create/truncate the file before anyone writes
        File::create(path)?;
        // broadcast the full footer, then send each rank its offsets
        rank.broadcast(0, TAG_OFFSETS + 1, Some(encode_footer_entries(&entries)))
            .map_err(comm_err)?;
        for (r, offs) in per_rank_offsets.iter().enumerate().skip(1) {
            rank.send(r, TAG_OFFSETS, encode_u64s(offs))
                .map_err(comm_err)?;
        }
        my_offsets = per_rank_offsets.swap_remove(0);
        footer = entries;
    } else {
        let fb = rank.broadcast(0, TAG_OFFSETS + 1, None).map_err(comm_err)?;
        footer = decode_footer_entries(&fb)?;
        let m = rank.recv(0, TAG_OFFSETS).map_err(comm_err)?;
        my_offsets = decode_u64s(&m).map_err(invalid_data)?;
    }

    // ensure the file exists before concurrent writers open it
    rank.barrier().map_err(comm_err)?;

    // 3. each rank writes its payloads at its offsets
    if !payloads.is_empty() {
        let mut f = OpenOptions::new().write(true).open(path)?;
        for (p, &off) in payloads.iter().zip(&my_offsets) {
            f.seek(SeekFrom::Start(off))?;
            f.write_all(p)?;
        }
        f.flush()?;
    }
    rank.barrier().map_err(comm_err)?;

    // 4. rank 0 appends the footer
    if rank.rank() == 0 {
        let mut f = OpenOptions::new().write(true).open(path)?;
        f.seek(SeekFrom::End(0))?;
        let body = encode_footer_entries(&footer);
        f.write_all(&body)?;
        f.write_all(&(body.len() as u64).to_le_bytes())?;
        f.write_all(FOOTER_MAGIC)?;
        f.flush()?;
    }
    rank.barrier().map_err(comm_err)?;
    Ok(footer)
}

fn encode_footer_entries(entries: &[FooterEntry]) -> Bytes {
    let mut b = Vec::with_capacity(4 + entries.len() * ENTRY_BYTES);
    b.put_u32_le(entries.len() as u32);
    for e in entries {
        b.put_u64_le(e.offset);
        b.put_u64_le(e.len);
        b.put_u32_le(e.writer);
    }
    Bytes::from(b)
}

fn decode_footer_entries(body: &[u8]) -> io::Result<Vec<FooterEntry>> {
    let mut r = Reader::new(body);
    let n = r.count(ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(FooterEntry {
            offset: r.u64()?,
            len: r.u64()?,
            writer: r.u32()?,
        });
    }
    if !r.is_empty() {
        return Err(invalid_data("trailing bytes in the footer"));
    }
    Ok(entries)
}

/// Read the footer of a collectively-written file. Its length, entry
/// count and every entry's byte run are checked against the file before
/// anything is allocated for them, so no entry it returns reaches past
/// the payloads.
pub fn read_footer(path: &Path) -> io::Result<Vec<FooterEntry>> {
    let mut f = File::open(path)?;
    let size = f.metadata()?.len();
    let tail_at = size
        .checked_sub(12)
        .ok_or_else(|| invalid_data("file too small"))?;
    f.seek(SeekFrom::Start(tail_at))?;
    let mut tail = [0u8; 12];
    f.read_exact(&mut tail)?;
    if &tail[8..12] != FOOTER_MAGIC {
        return Err(invalid_data("bad footer magic"));
    }
    let body_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
    // the payloads end where the footer body starts
    let payload_end = tail_at
        .checked_sub(body_len)
        .ok_or_else(|| invalid_data("bad footer length"))?;
    f.seek(SeekFrom::Start(payload_end))?;
    let mut body = vec![0u8; body_len as usize];
    f.read_exact(&mut body)?;
    let entries =
        decode_footer_entries(&body).map_err(|e| invalid_data(format!("bad footer: {e}")))?;
    let past_end = |e: &FooterEntry| {
        e.offset
            .checked_add(e.len)
            .is_none_or(|end| end > payload_end)
    };
    if entries.iter().any(past_end) {
        return Err(invalid_data("footer entry past the payloads"));
    }
    Ok(entries)
}

/// Read one block payload by footer entry.
pub fn read_block_payload(path: &Path, entry: &FooterEntry) -> io::Result<Vec<u8>> {
    read_runs(path, &[(entry.offset, entry.len)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("msp_vmpi_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn collective_write_and_footer() {
        let path = tmp("cw.bin");
        let footers = Universe::run(4, |r| {
            // rank i writes i payloads (rank 0 issues a null write), each
            // filled with its key
            let keys: Vec<u64> = (0..r.rank()).map(|k| (r.rank() * 16 + k) as u64).collect();
            let payloads: Vec<Bytes> = (0..r.rank())
                .map(|k| Bytes::from(vec![keys[k] as u8; 10 * (k + 1)]))
                .collect();
            collective_write_blocks_keyed(r, &path, &payloads, &keys).unwrap()
        });
        // all ranks see identical footers
        for f in &footers[1..] {
            assert_eq!(f, &footers[0]);
        }
        let footer = read_footer(&path).unwrap();
        assert_eq!(footer, footers[0]);
        assert_eq!(footer.len(), 6); // block counts 0+1+2+3

        // payload contents round trip
        for e in &footer {
            let data = read_block_payload(&path, e).unwrap();
            assert_eq!(data.len() as u64, e.len);
            assert!(data.iter().all(|&b| b == data[0]));
            assert_eq!(data[0], e.writer as u8);
        }
        // entries are contiguous from offset 0
        let mut cursor = 0;
        for e in &footer {
            assert_eq!(e.offset, cursor);
            cursor += e.len;
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keyed_write_is_rank_count_invariant() {
        // 6 payloads with block-cyclic keys: the 3-rank collective write
        // must produce the same bytes as a 1-rank write of the full set.
        let payloads: Vec<Bytes> = (0u8..6)
            .map(|k| Bytes::from(vec![k; 5 + k as usize]))
            .collect();
        let keys: Vec<u64> = (0..6).collect();

        let p1 = tmp("keyed1.bin");
        let (sp, sk, q1) = (payloads.clone(), keys.clone(), p1.clone());
        Universe::run(1, move |r| {
            collective_write_blocks_keyed(r, &q1, &sp, &sk).unwrap();
        });

        let p3 = tmp("keyed3.bin");
        let (sp, sk, q3) = (payloads.clone(), keys.clone(), p3.clone());
        let footers = Universe::run(3, move |r| {
            // rank r contributes keys r, r+3 (ascending local order)
            let mine: Vec<usize> = vec![r.rank(), r.rank() + 3];
            let pl: Vec<Bytes> = mine.iter().map(|&i| sp[i].clone()).collect();
            let ks: Vec<u64> = mine.iter().map(|&i| sk[i]).collect();
            collective_write_blocks_keyed(r, &q3, &pl, &ks).unwrap()
        });

        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p3).unwrap();
        assert_eq!(a, b, "keyed collective write must not depend on ranks");

        // footer is in key order and records keys, and payloads land at
        // their key-sorted offsets
        let footer = read_footer(&p3).unwrap();
        assert_eq!(footer, footers[0]);
        for (i, e) in footer.iter().enumerate() {
            assert_eq!(e.writer, i as u32);
            let data = read_block_payload(&p3, e).unwrap();
            assert_eq!(data, payloads[i].as_ref());
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p3).ok();
    }

    #[test]
    fn empty_write_produces_valid_footer() {
        let path = tmp("empty.bin");
        Universe::run(3, |r| {
            collective_write_blocks_keyed(r, &path, &[], &[]).unwrap();
        });
        let footer = read_footer(&path).unwrap();
        assert!(footer.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_runs_concatenates() {
        let path = tmp("runs.bin");
        std::fs::write(&path, (0u8..100).collect::<Vec<u8>>()).unwrap();
        let out = read_runs(&path, &[(10, 5), (50, 3), (0, 2)]).unwrap();
        assert_eq!(out, vec![10, 11, 12, 13, 14, 50, 51, 52, 0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_rejects_garbage() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"this is not a valid msp file at all!").unwrap();
        assert!(read_footer(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Eight payload bytes, then `body` under a tail that claims
    /// `body_len` bytes of footer.
    fn crafted(body: &[u8], body_len: u64) -> Vec<u8> {
        let mut file = b"payload!".to_vec();
        file.extend_from_slice(body);
        file.extend_from_slice(&body_len.to_le_bytes());
        file.extend_from_slice(FOOTER_MAGIC);
        file
    }

    #[test]
    fn hostile_footers_are_invalid_data() {
        let entry = |offset: u64, len: u64| {
            encode_footer_entries(&[FooterEntry {
                offset,
                len,
                writer: 0,
            }])
            .to_vec()
        };
        let files = [
            (
                "5 entries in a 4-byte body",
                crafted(&5u32.to_le_bytes(), 4),
            ),
            ("empty body", crafted(&[], 0)),
            ("body_len 2^64-5", crafted(&[], u64::MAX - 4)),
            ("entry len 2^40", crafted(&entry(0, 1 << 40), 24)),
            ("count 0xFFFFFFFF", crafted(&u32::MAX.to_le_bytes(), 4)),
            ("entry past the payloads", crafted(&entry(4, 5), 24)),
            ("entry end overflows", crafted(&entry(u64::MAX, 2), 24)),
        ];
        let path = tmp("hostile_footer.bin");
        for (what, file) in files {
            std::fs::write(&path, file).unwrap();
            let err = read_footer(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // the last payload byte is still inside
        std::fs::write(&path, crafted(&entry(4, 4), 24)).unwrap();
        let footer = read_footer(&path).unwrap();
        assert_eq!(read_block_payload(&path, &footer[0]).unwrap(), b"oad!");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn runs_past_the_file_are_refused() {
        let path = tmp("short_runs.bin");
        std::fs::write(&path, [7u8; 16]).unwrap();
        for runs in [[(0, 17)], [(16, 1)], [(u64::MAX, 2)], [(1 << 40, 0)]] {
            let err = read_runs(&path, &runs).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{runs:?}");
        }
        assert_eq!(read_runs(&path, &[(16, 0), (8, 8)]).unwrap(), [7; 8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_footer_bodies_never_panic() {
        let entries = [(0, 10), (10, 5), (15, 1 << 33)].map(|(offset, len)| FooterEntry {
            offset,
            len,
            writer: offset as u32,
        });
        let bytes = encode_footer_entries(&entries).to_vec();
        assert_eq!(decode_footer_entries(&bytes).unwrap(), entries);
        for cut in 0..bytes.len() {
            let err = decode_footer_entries(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_footer_entries(&long).is_err(), "trailing byte");
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                // an edit either errs or decodes to entries that encode
                // back to exactly the edited bytes
                if let Ok(e) = decode_footer_entries(&flipped) {
                    assert_eq!(
                        encode_footer_entries(&e)[..],
                        flipped[..],
                        "byte {at} bit {bit}"
                    );
                }
                flipped[at] ^= 1 << bit;
            }
        }
    }
}
