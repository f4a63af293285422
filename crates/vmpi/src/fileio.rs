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
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const FOOTER_MAGIC: &[u8; 4] = b"MSPF";

/// A collective write is only as reliable as its participants: a comm
/// failure mid-collective is an I/O failure from the caller's view.
fn comm_err(e: CommError) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, format!("collective write: {e}"))
}
const TAG_SIZES: u32 = 9001;
const TAG_OFFSETS: u32 = 9002;

/// One footer entry: where a block payload lives in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FooterEntry {
    pub offset: u64,
    pub len: u64,
    /// Rank that wrote the block (provenance; mirrors the paper's file
    /// format documentation pointer [23]).
    pub writer: u32,
}

/// Read a rank's subarray view: the concatenation of the given byte runs.
pub fn read_runs(path: &Path, runs: &[(u64, u64)]) -> io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let total: u64 = runs.iter().map(|r| r.1).sum();
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
    let mut size_msg = BytesMut::with_capacity(4 + payloads.len() * 16);
    size_msg.put_u32_le(payloads.len() as u32);
    for (p, &key) in payloads.iter().zip(keys) {
        size_msg.put_u64_le(key);
        size_msg.put_u64_le(p.len() as u64);
    }
    let gathered = rank
        .gather(0, TAG_SIZES, size_msg.freeze())
        .map_err(comm_err)?;

    // 2. rank 0 assigns offsets and builds the footer
    let footer: Vec<FooterEntry>;
    let my_offsets: Vec<u64>;
    if let Some(all) = gathered {
        // (sort key, writer rank, writer-local index, len)
        let mut blocks: Vec<(u64, usize, usize, u64)> = Vec::new();
        for (r, msg) in all.iter().enumerate() {
            let mut b = &msg[..];
            let n = b.get_u32_le() as usize;
            for i in 0..n {
                let key = b.get_u64_le();
                let len = b.get_u64_le();
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
            let mut m = BytesMut::with_capacity(4 + offs.len() * 8);
            m.put_u32_le(offs.len() as u32);
            for &o in offs {
                m.put_u64_le(o);
            }
            rank.send(r, TAG_OFFSETS, m.freeze()).map_err(comm_err)?;
        }
        my_offsets = per_rank_offsets.swap_remove(0);
        footer = entries;
    } else {
        let fb = rank.broadcast(0, TAG_OFFSETS + 1, None).map_err(comm_err)?;
        footer = decode_footer_entries(&fb);
        let m = rank.recv(0, TAG_OFFSETS).map_err(comm_err)?;
        let mut b = &m[..];
        let n = b.get_u32_le() as usize;
        my_offsets = (0..n).map(|_| b.get_u64_le()).collect();
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
    let mut b = BytesMut::with_capacity(4 + entries.len() * 20);
    b.put_u32_le(entries.len() as u32);
    for e in entries {
        b.put_u64_le(e.offset);
        b.put_u64_le(e.len);
        b.put_u32_le(e.writer);
    }
    b.freeze()
}

fn decode_footer_entries(mut b: &[u8]) -> Vec<FooterEntry> {
    let n = b.get_u32_le() as usize;
    (0..n)
        .map(|_| FooterEntry {
            offset: b.get_u64_le(),
            len: b.get_u64_le(),
            writer: b.get_u32_le(),
        })
        .collect()
}

/// Read the footer of a collectively-written file.
pub fn read_footer(path: &Path) -> io::Result<Vec<FooterEntry>> {
    let mut f = File::open(path)?;
    let size = f.metadata()?.len();
    if size < 12 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "file too small"));
    }
    f.seek(SeekFrom::Start(size - 12))?;
    let mut tail = [0u8; 12];
    f.read_exact(&mut tail)?;
    if &tail[8..12] != FOOTER_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad footer magic",
        ));
    }
    let body_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
    if body_len + 12 > size {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad footer length",
        ));
    }
    f.seek(SeekFrom::Start(size - 12 - body_len))?;
    let mut body = vec![0u8; body_len as usize];
    f.read_exact(&mut body)?;
    Ok(decode_footer_entries(&body))
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
}
