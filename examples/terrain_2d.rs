//! 2D Morse-Smale complex of a terrain height field — the paper's
//! background illustration (Fig 2) as a runnable example. The refined
//! cubical-complex machinery is dimension generic: a grid with `nz = 1`
//! has vertices, edges and quads only, so maxima are critical quads.
//!
//! ```text
//! cargo run --release --example terrain_2d
//! ```

use morse_smale_parallel::complex::query;
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::prelude::*;
use std::f32::consts::PI;
use std::sync::Arc;

fn main() {
    let n = 129u32;
    let dims = Dims::new(n, n, 1);
    // rolling hills with a deterministic jitter to break plateaus
    let field = ScalarField::from_fn(dims, |x, y, _| {
        let (u, v) = (x as f32 / (n - 1) as f32, y as f32 / (n - 1) as f32);
        (3.0 * PI * u).sin() * (2.0 * PI * v).cos()
            + 0.35 * (7.0 * PI * u + 1.3).cos() * (5.0 * PI * v).sin()
            + 0.002 * synth::basic::hash_unit(7, dims.vertex_index(x, y, 0))
    });
    println!("terrain: {n}x{n} height field");

    let input = Input::Memory(Arc::new(field));
    let params = PipelineParams {
        persistence_frac: 0.02,
        plan: MergePlan::full_merge(4),
        ..Default::default()
    };
    let result = run_parallel(&input, 4, 4, &params, None).unwrap();
    // the merged output keeps the tombstones of its re-simplification;
    // the feature ranking below reads dead nodes too, so compact first
    let mut ms = result.outputs.into_iter().next().unwrap();
    ms.compact();
    let ms = &ms;
    let c = ms.node_census();
    println!(
        "2D MS complex: {} minima (blue), {} saddles (green), {} maxima (red); {} arcs",
        c[0],
        c[1],
        c[2],
        ms.n_live_arcs()
    );
    assert_eq!(c[3], 0, "no index-3 critical points in 2D");
    println!(
        "Euler characteristic chi = {} (1 for a disk)",
        c[0] as i64 - c[1] as i64 + c[2] as i64
    );

    // peaks ranked by prominence, as a terrain analyst would list summits
    println!("\nmost prominent peaks:");
    for f in query::top_k_features(ms, 2, 8) {
        let coord = ms.node_coord(f.node);
        println!(
            "  peak at cell ({:>5.1}, {:>5.1})  height {:>6.3}  prominence {}",
            coord.x as f32 / 2.0,
            coord.y as f32 / 2.0,
            f.value,
            if f.prominence.is_infinite() {
                "inf".into()
            } else {
                format!("{:.3}", f.prominence)
            }
        );
    }

    // ridge network (saddle -> maximum arcs in 2D have lower index 1)
    let ridges = query::arcs_of_type(ms, 1);
    let ridge_arcs: Vec<_> = ridges
        .iter()
        .copied()
        .filter(|&a| ms.nodes[ms.arcs[a as usize].upper as usize].index == 2)
        .collect();
    let stats = query::graph_stats(ms, &ridge_arcs);
    println!(
        "\nridge network: {} arcs, {} nodes, {} components, {} cycles",
        stats.edges, stats.nodes, stats.components, stats.cycles
    );
}
