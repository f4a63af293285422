//! Visualization and analysis exports of the 1-skeleton.
//!
//! The paper's pipeline ends in interactive visualization (Fig 1); this
//! module writes the living complex in two portable forms:
//!
//! * **legacy VTK polydata** (`.vtk`, ASCII) — nodes as points, arcs as
//!   polylines through their V-path cell centres, with point data
//!   (Morse index, scalar value) and cell data (persistence of the arc's
//!   endpoints) so standard viewers (ParaView, VisIt) colour features
//!   directly;
//! * **CSV node table** — one row per living node for notebook analysis.
//!
//! Refined coordinates map to physical space as `coordinate / 2` (cell
//! centres land on half-integers).

use crate::skeleton::MsComplex;
use std::io::{self, Write};
use std::path::Path;

/// Write the living 1-skeleton as legacy ASCII VTK polydata.
pub fn write_vtk(ms: &MsComplex, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write_vtk_to(ms, &mut w)
}

/// [`write_vtk`] into any writer (unit-testable).
pub fn write_vtk_to(ms: &MsComplex, w: &mut impl Write) -> io::Result<()> {
    let refined = ms.refined;
    // collect points: every distinct cell address used by nodes or arc
    // geometry becomes a point
    let mut addrs: Vec<u64> = ms
        .nodes
        .iter()
        .filter(|n| n.alive)
        .map(|n| n.addr)
        .collect();
    let live_arcs: Vec<usize> = ms
        .arcs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.alive)
        .map(|(i, _)| i)
        .collect();
    let arc_paths: Vec<Vec<u64>> = live_arcs
        .iter()
        .map(|&i| ms.flatten_geom(ms.arcs[i].geom))
        .collect();
    for p in &arc_paths {
        addrs.extend_from_slice(p);
    }
    addrs.sort_unstable();
    addrs.dedup();
    let point_of = |addr: u64| addrs.binary_search(&addr).unwrap();

    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "morse-smale 1-skeleton")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET POLYDATA")?;
    writeln!(w, "POINTS {} float", addrs.len())?;
    for &a in &addrs {
        let (i, j, k) = refined.coord(a);
        writeln!(
            w,
            "{} {} {}",
            i as f32 / 2.0,
            j as f32 / 2.0,
            k as f32 / 2.0
        )?;
    }
    // vertices for the critical points
    let live_nodes: Vec<usize> = ms
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.alive)
        .map(|(i, _)| i)
        .collect();
    writeln!(w, "VERTICES {} {}", live_nodes.len(), 2 * live_nodes.len())?;
    for &i in &live_nodes {
        writeln!(w, "1 {}", point_of(ms.nodes[i].addr))?;
    }
    // polylines for the arcs
    let total: usize = arc_paths.iter().map(|p| p.len() + 1).sum();
    writeln!(w, "LINES {} {}", arc_paths.len(), total)?;
    for p in &arc_paths {
        write!(w, "{}", p.len())?;
        for &a in p {
            write!(w, " {}", point_of(a))?;
        }
        writeln!(w)?;
    }
    // point data: Morse index (-1 for plain path points) and value
    writeln!(w, "POINT_DATA {}", addrs.len())?;
    writeln!(w, "SCALARS morse_index int 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    let mut index_of = vec![-1i32; addrs.len()];
    for &i in &live_nodes {
        index_of[point_of(ms.nodes[i].addr)] = ms.nodes[i].index as i32;
    }
    for v in &index_of {
        writeln!(w, "{v}")?;
    }
    // cell data: persistence of each arc (|f(upper) − f(lower)|); the
    // node VERTICES cells come first and carry 0
    writeln!(w, "CELL_DATA {}", live_nodes.len() + arc_paths.len())?;
    writeln!(w, "SCALARS arc_persistence float 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for _ in &live_nodes {
        writeln!(w, "0")?;
    }
    for &i in &live_arcs {
        let a = &ms.arcs[i];
        let p = (ms.nodes[a.upper as usize].value - ms.nodes[a.lower as usize].value).abs();
        writeln!(w, "{p}")?;
    }
    w.flush()
}

/// Which slice of the Morse-Smale segmentation a [`LabeledVolume`]
/// materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Descending manifolds: one region per minimum, labels on vertices.
    Descending,
    /// Ascending manifolds: one region per maximum, labels on voxels.
    Ascending,
    /// Full MS cells (basin ∩ mountain intersections), labels on voxels.
    Combined,
}

impl SegKind {
    pub fn key(self) -> &'static str {
        match self {
            SegKind::Descending => "descending",
            SegKind::Ascending => "ascending",
            SegKind::Combined => "combined",
        }
    }
}

/// A block's segmentation flattened to one label per grid point, ready
/// for export: vertex-grid labels for [`SegKind::Descending`],
/// voxel-grid labels for [`SegKind::Ascending`] and
/// [`SegKind::Combined`]. Labels are `i64` with `-1` for the drain
/// (ascending paths that exit the domain).
///
/// Built from the plain label slices of `msp-segment`'s block
/// segmentation — this crate stays independent of that one, so the
/// constructors take slices, not the struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledVolume {
    pub kind: SegKind,
    /// Grid dims the labels live on (x-fastest order).
    pub dims: [u32; 3],
    /// Block origin in vertex coordinates of the full dataset.
    pub origin: [u32; 3],
    pub labels: Vec<i64>,
}

/// Sentinel label in exported volumes for the drain region.
pub const DRAIN_REGION: i64 = -1;
const DRAIN_LABEL_U32: u32 = u32::MAX;

impl LabeledVolume {
    /// Descending (minimum-basin) regions: `min_label` has one entry per
    /// vertex of a `vdims` grid.
    pub fn descending(vdims: [u32; 3], origin: [u32; 3], min_label: &[u32]) -> LabeledVolume {
        assert_eq!(min_label.len(), grid_len(vdims));
        LabeledVolume {
            kind: SegKind::Descending,
            dims: vdims,
            origin,
            labels: min_label.iter().map(|&l| widen(l)).collect(),
        }
    }

    /// Ascending (maximum-mountain) regions: `max_label` has one entry
    /// per voxel of a `vdims` vertex grid.
    pub fn ascending(vdims: [u32; 3], origin: [u32; 3], max_label: &[u32]) -> LabeledVolume {
        let cdims = voxel_dims(vdims);
        assert_eq!(max_label.len(), grid_len(cdims));
        LabeledVolume {
            kind: SegKind::Ascending,
            dims: cdims,
            origin,
            labels: max_label.iter().map(|&l| widen(l)).collect(),
        }
    }

    /// Combined MS cells at voxel resolution: each voxel is keyed by the
    /// pair (its ascending region, the descending region of its base
    /// corner vertex), enumerated as `ascending * n_mins + descending`.
    /// A drained voxel keys to [`DRAIN_REGION`].
    pub fn combined(
        vdims: [u32; 3],
        origin: [u32; 3],
        min_label: &[u32],
        max_label: &[u32],
        n_mins: u32,
    ) -> LabeledVolume {
        assert_eq!(min_label.len(), grid_len(vdims));
        let cdims = voxel_dims(vdims);
        assert_eq!(max_label.len(), grid_len(cdims));
        let (nx, ny) = (vdims[0] as usize, vdims[1] as usize);
        let (cx, cy, cz) = (cdims[0] as usize, cdims[1] as usize, cdims[2] as usize);
        let mut labels = Vec::with_capacity(max_label.len());
        for z in 0..cz {
            for y in 0..cy {
                for x in 0..cx {
                    let m = max_label[x + cx * (y + cy * z)];
                    let d = min_label[x + nx * (y + ny * z)];
                    labels.push(if m == DRAIN_LABEL_U32 || d == DRAIN_LABEL_U32 {
                        DRAIN_REGION
                    } else {
                        m as i64 * n_mins as i64 + d as i64
                    });
                }
            }
        }
        LabeledVolume {
            kind: SegKind::Combined,
            dims: cdims,
            origin,
            labels,
        }
    }
}

fn grid_len(d: [u32; 3]) -> usize {
    d.iter().map(|&v| v as usize).product()
}

fn voxel_dims(vdims: [u32; 3]) -> [u32; 3] {
    [
        vdims[0].saturating_sub(1),
        vdims[1].saturating_sub(1),
        vdims[2].saturating_sub(1),
    ]
}

fn widen(l: u32) -> i64 {
    if l == DRAIN_LABEL_U32 {
        DRAIN_REGION
    } else {
        l as i64
    }
}

/// Write a labeled volume as legacy ASCII VTK structured points (the
/// natural dataset type for a dense label grid; viewers threshold or
/// colour by the `region` array directly).
pub fn write_labels_vtk(v: &LabeledVolume, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write_labels_vtk_to(v, &mut w)
}

/// [`write_labels_vtk`] into any writer (unit-testable).
pub fn write_labels_vtk_to(v: &LabeledVolume, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "morse-smale segmentation ({})", v.kind.key())?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_POINTS")?;
    writeln!(w, "DIMENSIONS {} {} {}", v.dims[0], v.dims[1], v.dims[2])?;
    writeln!(w, "ORIGIN {} {} {}", v.origin[0], v.origin[1], v.origin[2])?;
    writeln!(w, "SPACING 1 1 1")?;
    writeln!(w, "POINT_DATA {}", v.labels.len())?;
    writeln!(w, "SCALARS region int 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for l in &v.labels {
        writeln!(w, "{l}")?;
    }
    w.flush()
}

/// Write a labeled volume as a CSV table: `x,y,z,region` with
/// coordinates in the full dataset's vertex grid.
pub fn write_labels_csv(v: &LabeledVolume, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write_labels_csv_to(v, &mut w)
}

/// [`write_labels_csv`] into any writer.
pub fn write_labels_csv_to(v: &LabeledVolume, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "x,y,z,region")?;
    let (nx, ny, nz) = (v.dims[0], v.dims[1], v.dims[2]);
    let mut i = 0;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                writeln!(
                    w,
                    "{},{},{},{}",
                    v.origin[0] + x,
                    v.origin[1] + y,
                    v.origin[2] + z,
                    v.labels[i]
                )?;
                i += 1;
            }
        }
    }
    w.flush()
}

/// Write the living nodes as a CSV table:
/// `node,index,value,x,y,z,boundary`.
pub fn write_nodes_csv(ms: &MsComplex, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write_nodes_csv_to(ms, &mut w)
}

/// [`write_nodes_csv`] into any writer.
pub fn write_nodes_csv_to(ms: &MsComplex, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "node,index,value,x,y,z,boundary")?;
    for (i, n) in ms.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
        let (x, y, z) = ms.refined.coord(n.addr);
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            i,
            n.index,
            n.value,
            x as f32 / 2.0,
            y as f32 / 2.0,
            z as f32 / 2.0,
            n.boundary as u8
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_block_complex;
    use msp_grid::decomp::Decomposition;
    use msp_grid::Dims;
    use msp_morse::TraceLimits;

    fn sample() -> MsComplex {
        let dims = Dims::new(7, 7, 7);
        let f = msp_synth::white_noise(dims, 5);
        let d = Decomposition::bisect(dims, 1);
        build_block_complex(&f.extract_block(d.block(0)), &d, TraceLimits::default()).0
    }

    /// The count on the first line that starts with `key`, and the rows
    /// after it up to the next section header.
    fn section<'a>(text: &'a str, key: &str) -> (usize, Vec<&'a str>) {
        let mut lines = text.lines().skip_while(|l| !l.starts_with(key));
        let header = lines.next().unwrap_or_else(|| panic!("no {key} header"));
        let count = header.split(' ').nth(1).unwrap().parse().unwrap();
        let header_like = |l: &&str| l.starts_with(|c: char| c.is_ascii_uppercase());
        (count, lines.take_while(|l| !header_like(l)).collect())
    }

    #[test]
    fn vtk_structure_is_well_formed() {
        let ms = sample();
        let mut out = Vec::new();
        write_vtk_to(&ms, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("# vtk DataFile Version 3.0\n"));
        // declared counts match emitted rows, and every polyline names
        // its length and points that exist
        let (n_points, points) = section(&text, "POINTS ");
        assert!(n_points > 0);
        assert_eq!(points.len(), n_points);
        assert!(points.iter().all(|p| p.split(' ').count() == 3));
        let (n_vertices, vertices) = section(&text, "VERTICES ");
        assert_eq!(n_vertices as u64, ms.n_live_nodes());
        assert_eq!(vertices.len(), n_vertices);
        let (n_lines, lines) = section(&text, "LINES ");
        assert_eq!(n_lines as u64, ms.n_live_arcs());
        assert_eq!(lines.len(), n_lines);
        for line in lines {
            let ids: Vec<usize> = line.split(' ').map(|x| x.parse().unwrap()).collect();
            assert_eq!(ids[0], ids.len() - 1, "{line}");
            assert!(ids[1..].iter().all(|&i| i < n_points), "{line}");
        }
        assert!(text.contains("SCALARS morse_index int 1"));
        assert!(text.contains("SCALARS arc_persistence float 1"));
    }

    #[test]
    fn csv_rows_match_live_nodes() {
        let ms = sample();
        let mut out = Vec::new();
        write_nodes_csv_to(&ms, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("node,index,value,x,y,z,boundary"));
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(rows.len() as u64, ms.n_live_nodes());
        for r in &rows {
            assert_eq!(r.len(), 7, "{r:?}");
            assert!(r[1].parse::<u8>().unwrap() <= 3);
            assert!(r[2].parse::<f32>().unwrap().is_finite());
        }
    }

    fn sample_volume() -> LabeledVolume {
        // 3x2x2 vertex grid -> 2x1x1 voxels
        let min_label = vec![0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1];
        let max_label = vec![0, u32::MAX];
        LabeledVolume::combined([3, 2, 2], [4, 0, 0], &min_label, &max_label, 2)
    }

    #[test]
    fn labeled_volume_kinds_have_expected_shapes() {
        let min_label = vec![0u32; 12];
        let max_label = vec![0u32; 2];
        let d = LabeledVolume::descending([3, 2, 2], [0, 0, 0], &min_label);
        assert_eq!(d.dims, [3, 2, 2]);
        assert_eq!(d.labels.len(), 12);
        let a = LabeledVolume::ascending([3, 2, 2], [0, 0, 0], &max_label);
        assert_eq!(a.dims, [2, 1, 1]);
        assert_eq!(a.labels.len(), 2);
        let c = sample_volume();
        assert_eq!(c.dims, [2, 1, 1]);
        // voxel 0: max region 0, base-corner min region 0 -> 0*2+0
        // voxel 1: drained -> -1
        assert_eq!(c.labels, vec![0, DRAIN_REGION]);
    }

    #[test]
    fn labels_vtk_text_is_pinned() {
        let mut out = Vec::new();
        write_labels_vtk_to(&sample_volume(), &mut out).unwrap();
        let want = "# vtk DataFile Version 3.0\n\
                    morse-smale segmentation (combined)\n\
                    ASCII\n\
                    DATASET STRUCTURED_POINTS\n\
                    DIMENSIONS 2 1 1\n\
                    ORIGIN 4 0 0\n\
                    SPACING 1 1 1\n\
                    POINT_DATA 2\n\
                    SCALARS region int 1\n\
                    LOOKUP_TABLE default\n\
                    0\n\
                    -1\n";
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }

    #[test]
    fn labels_csv_text_is_pinned() {
        // origin offsets applied, x fastest
        let mut out = Vec::new();
        write_labels_csv_to(&sample_volume(), &mut out).unwrap();
        let want = "x,y,z,region\n4,0,0,0\n5,0,0,-1\n";
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }
}
