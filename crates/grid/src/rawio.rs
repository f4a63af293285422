//! Raw volume files and subarray access patterns.
//!
//! Datasets are flat binary files of vertex values in x-fastest order,
//! little-endian, in one of the three element types the paper supports
//! (§IV-B): unsigned byte, `f32`, `f64`. A block reads its sub-box
//! through a *subarray view*, the access pattern an MPI subarray datatype
//! describes: one contiguous x-row per `(y, z)` of the box. The rows of
//! one z-plane lie one domain row apart, so [`read_block`] reads each
//! plane's span, from its first row's start to its last row's end, in
//! one call, and decodes the rows out of it.

use crate::decomp::BlockBox;
use crate::dims::Dims;
use crate::field::{BlockField, ScalarField};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Element type of a raw volume file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeDType {
    U8,
    F32,
    F64,
}

impl VolumeDType {
    pub fn size_bytes(&self) -> u64 {
        match self {
            VolumeDType::U8 => 1,
            VolumeDType::F32 => 4,
            VolumeDType::F64 => 8,
        }
    }
}

/// Write a full scalar field as a raw volume file.
pub fn write_raw(path: &Path, field: &ScalarField, dtype: VolumeDType) -> io::Result<()> {
    let mut f = File::create(path)?;
    let mut buf = Vec::with_capacity(field.data().len() * dtype.size_bytes() as usize);
    for &v in field.data() {
        match dtype {
            VolumeDType::U8 => buf.push(v.clamp(0.0, 255.0) as u8),
            VolumeDType::F32 => buf.extend_from_slice(&v.to_le_bytes()),
            VolumeDType::F64 => buf.extend_from_slice(&(v as f64).to_le_bytes()),
        }
    }
    f.write_all(&buf)
}

/// Open a raw volume and check that it holds `dims` samples of `dtype`
/// before anything is allocated for them: a short file or overflowing
/// dims are `InvalidData` naming both sizes.
fn open_checked(path: &Path, dims: Dims, dtype: VolumeDType) -> io::Result<File> {
    let f = File::open(path)?;
    let have = f.metadata()?.len();
    let need = [dims.ny as u64, dims.nz as u64, dtype.size_bytes()]
        .into_iter()
        .try_fold(dims.nx as u64, u64::checked_mul);
    if need.is_some_and(|n| n <= have) {
        return Ok(f);
    }
    let need = need.map_or("more than 2^64".into(), |n| n.to_string());
    let (x, y, z) = (dims.nx, dims.ny, dims.nz);
    let msg = format!(
        "{}: {have} bytes, but {x}x{y}x{z} {dtype:?} need {need}",
        path.display()
    );
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

/// Read a full raw volume file into a scalar field.
pub fn read_raw(path: &Path, dims: Dims, dtype: VolumeDType) -> io::Result<ScalarField> {
    let mut f = open_checked(path, dims, dtype)?;
    let n = dims.n_verts() as usize;
    let mut buf = vec![0u8; n * dtype.size_bytes() as usize];
    f.read_exact(&mut buf)?;
    let mut data = Vec::with_capacity(n);
    decode_into(&buf, dtype, &mut data);
    Ok(ScalarField::new(dims, data))
}

/// Append the values the little-endian bytes `buf` hold to `out`.
fn decode_into(buf: &[u8], dtype: VolumeDType, out: &mut Vec<f32>) {
    match dtype {
        VolumeDType::U8 => out.extend(buf.iter().map(|&b| b as f32)),
        VolumeDType::F32 => out.extend(
            buf.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        ),
        VolumeDType::F64 => {
            out.extend(buf.chunks_exact(8).map(|c| {
                f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]) as f32
            }))
        }
    }
}

/// Read one block's values from a raw volume file through its subarray
/// view: one read per z-plane of the span from the plane's first row to
/// its last, whose rows decode straight into the block's values. The
/// scratch is one plane span, never the whole block's.
pub fn read_block(
    path: &Path,
    domain: Dims,
    block: &BlockBox,
    dtype: VolumeDType,
) -> io::Result<BlockField> {
    let mut f = open_checked(path, domain, dtype)?;
    let es = dtype.size_bytes();
    let bd = block.dims();
    let row = bd.nx as usize * es as usize;
    let pitch = domain.nx as usize * es as usize;
    let mut plane = vec![0u8; (bd.ny as usize - 1) * pitch + row];
    let mut data = Vec::with_capacity(block.n_verts() as usize);
    for z in block.lo[2]..=block.hi[2] {
        f.seek(SeekFrom::Start(
            domain.vertex_index(block.lo[0], block.lo[1], z) * es,
        ))?;
        f.read_exact(&mut plane)?;
        for r in plane.chunks(pitch) {
            decode_into(&r[..row], dtype, &mut data);
        }
    }
    Ok(BlockField::new(*block, domain, data))
}

/// Total bytes a block reads (used by the I/O performance model).
pub fn block_bytes(block: &BlockBox, dtype: VolumeDType) -> u64 {
    block.n_verts() * dtype.size_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomposition;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("msp_grid_test_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn raw_round_trip_f32() {
        let dims = Dims::new(5, 4, 3);
        let f = ScalarField::from_fn(dims, |x, y, z| x as f32 * 0.5 - y as f32 + z as f32 * 2.0);
        let p = tempfile("rt_f32.raw");
        write_raw(&p, &f, VolumeDType::F32).unwrap();
        let g = read_raw(&p, dims, VolumeDType::F32).unwrap();
        assert_eq!(f.data(), g.data());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn raw_round_trip_u8_quantizes() {
        let dims = Dims::new(3, 3, 3);
        let f = ScalarField::from_fn(dims, |x, _, _| x as f32 * 100.0 + 300.0); // clamps at 255
        let p = tempfile("rt_u8.raw");
        write_raw(&p, &f, VolumeDType::U8).unwrap();
        let g = read_raw(&p, dims, VolumeDType::U8).unwrap();
        assert!(g.data().iter().all(|&v| (0.0..=255.0).contains(&v)));
        assert_eq!(g.value(0, 0, 0), 255.0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn raw_round_trip_f64() {
        let dims = Dims::new(4, 2, 2);
        let f = ScalarField::from_fn(dims, |x, y, z| (x + y + z) as f32 * 0.125);
        let p = tempfile("rt_f64.raw");
        write_raw(&p, &f, VolumeDType::F64).unwrap();
        let g = read_raw(&p, dims, VolumeDType::F64).unwrap();
        assert_eq!(f.data(), g.data());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn block_read_matches_extraction() {
        // every dtype on regular and irregular trees; every decomposition
        // has a block whose last row ends at the file's last byte
        let dims = Dims::new(9, 7, 5);
        let f = ScalarField::from_fn(dims, |x, y, z| ((x * 31 + y * 17 + z * 3) % 251) as f32);
        let weights: Vec<u64> = (0..dims.n_verts()).map(|i| i * i % 17).collect();
        let decomps = [
            Decomposition::bisect(dims, 4),
            Decomposition::random_tree(dims, 5, 3),
            Decomposition::adaptive(dims, 6, &weights),
        ];
        let corner = [dims.nx - 1, dims.ny - 1, dims.nz - 1];
        for dtype in [VolumeDType::U8, VolumeDType::F32, VolumeDType::F64] {
            let p = tempfile(&format!("block_read_{dtype:?}.raw"));
            write_raw(&p, &f, dtype).unwrap();
            for d in &decomps {
                assert!(d.blocks().iter().any(|b| b.hi == corner));
                for b in d.blocks() {
                    let via_file = read_block(&p, dims, b, dtype).unwrap();
                    let via_mem = f.extract_block(b);
                    assert_eq!(via_file.data(), via_mem.data(), "{dtype:?} block {b:?}");
                }
            }
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn short_files_and_overflowing_dims_are_invalid_data() {
        let dims = Dims::new(4, 4, 4);
        let p = tempfile("short.raw");
        write_raw(
            &p,
            &ScalarField::from_fn(dims, |_, _, _| 1.0),
            VolumeDType::U8,
        )
        .unwrap();
        let block = Decomposition::bisect(Dims::new(40, 40, 40), 2).blocks()[0];
        for (dims, need) in [
            (Dims::new(4, 4, 5), "need 320"),
            (Dims::new(4000, 4000, 4000), "need 256000000000"),
            (
                Dims::new(u32::MAX, u32::MAX, u32::MAX),
                "need more than 2^64",
            ),
        ] {
            for err in [
                read_raw(&p, dims, VolumeDType::F32).unwrap_err(),
                read_block(&p, dims, &block, VolumeDType::F32).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let msg = err.to_string();
                assert!(msg.contains("64 bytes") && msg.contains(need), "{msg}");
            }
        }
        assert_eq!(read_raw(&p, dims, VolumeDType::U8).unwrap().data()[0], 1.0);
        std::fs::remove_file(&p).ok();
    }
}
