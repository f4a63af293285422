//! The four workloads, their fixed interleaved schedules, and the
//! metric names `BENCHMARK.json` declares.
//!
//! All workloads: f32 raw file input, `--threads 1`, persistence 0.01.
//! `--seed` feeds the white-noise generator and the request script; the
//! program only ever sees the generated files.

/// One timed child operation of a compute schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `msc synth` of the input: one unit of set-up, repeated every
    /// round so its samples are spread over the run like the others.
    Setup,
    /// `msc compute --ranks 2`: the user-visible run.
    Wall,
    /// Same command with `--ranks 1`: the plain single-thread baseline.
    Serial,
    /// Same as `Wall` plus `--checkpoint`.
    Ckpt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Compute,
    Serve,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `msc synth --kind`.
    pub synth_kind: &'static str,
    pub size: u32,
    /// `--complexity`, for the generators that take one.
    pub complexity: Option<u32>,
    /// Whether `--seed` reaches the generator (see [`Workload::input_seed`]).
    pub seeded_input: bool,
    pub blocks: u32,
    /// `--merge` argument.
    pub merge: &'static str,
    /// `--decomp adaptive`.
    pub adaptive: bool,
    /// `--hierarchy` (implies `--segment`).
    pub hierarchy: bool,
    /// One round of the interleaved schedule; a run repeats it whole.
    pub pattern: &'static [Op],
    /// What one round (compute) or pass (serve) takes on a quiet host,
    /// in whole seconds: how `--seconds` turns into rounds.
    pub round_s: u32,
}

/// Why these sizes: the driver makes 92 runs and two builds in 3420 s,
/// on a host whose noisy phases inflate CPU time by up to half. At these
/// sizes and `RUN_SECONDS` the compute workloads take 21-23 s a run
/// (8, 8 and 6 rounds), `serve_mix` 45 s (three 10.5 s passes of mostly
/// waiting), 28 s a run on average, and a fifth of the envelope is left
/// to spare.
///
/// `smooth_kernel` uses complexity 4, not the 8 ISSUE.md names: at 129
/// cubed, complexity 8 puts 19 % of the walk into `complex`, and the
/// workload exists so that merge work does not show (4 % at 4).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "smooth_kernel",
        kind: Kind::Compute,
        synth_kind: "sinusoid",
        size: 129,
        complexity: Some(4),
        seeded_input: false, // the sinusoid has no seed
        blocks: 8,
        merge: "full",
        adaptive: false,
        hierarchy: false,
        pattern: &[Op::Setup, Op::Wall, Op::Wall, Op::Serial],
        round_s: 3,
    },
    Workload {
        name: "dense_merge",
        kind: Kind::Compute,
        synth_kind: "noise",
        size: 41,
        complexity: None,
        seeded_input: true,
        blocks: 8,
        merge: "2,2,2",
        adaptive: false,
        hierarchy: false,
        pattern: &[Op::Setup, Op::Wall, Op::Serial, Op::Wall, Op::Ckpt],
        round_s: 3,
    },
    Workload {
        name: "hier_adaptive",
        kind: Kind::Compute,
        ..JET
    },
    Workload {
        name: "serve_mix",
        kind: Kind::Serve,
        round_s: 12,
        ..JET
    },
];

/// The seeded jet both hierarchy workloads use: `hier_adaptive` times
/// writing its artifacts, `serve_mix` serves them.
const JET: Workload = Workload {
    name: "",
    kind: Kind::Compute,
    synth_kind: "jet",
    size: 65,
    complexity: None,
    seeded_input: false,
    blocks: 6,
    merge: "full",
    adaptive: true,
    hierarchy: true,
    pattern: &[Op::Setup, Op::Wall, Op::Wall, Op::Serial],
    round_s: 4,
};

pub const PERSISTENCE: &str = "0.01";
pub const RANKS: u32 = 2;

/// Serve traffic shape (see `script.rs`).
pub const SERVE_CACHE: usize = 16;
pub const HOT_SET: usize = 8;
pub const PASS_REQUESTS: usize = 200;
pub const PASS_MISSES: usize = 20;

/// `serve_mix` sets up this many times in a run (the compute workloads
/// set up once a round).
pub const SERVE_SETUPS: usize = 5;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes.
pub const RUN_SECONDS: u32 = 24;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rounds (compute) or passes (serve) for a requested duration. The
    /// schedule only ever grows in whole rounds and never drops below the
    /// sample counts the statistics need (12 wall / 6 serial / 6 ckpt /
    /// 3 passes); sample counts are never derived from elapsed time.
    pub fn rounds(&self, seconds: u32) -> usize {
        let min = match self.kind {
            Kind::Compute => 6,
            Kind::Serve => 3,
        };
        min.max((seconds / self.round_s) as usize)
    }

    /// The whole schedule: the pattern repeated `rounds` times.
    pub fn schedule(&self, rounds: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(rounds * self.pattern.len());
        for _ in 0..rounds {
            ops.extend_from_slice(self.pattern);
        }
        ops
    }

    /// The seed the field generator gets. The jet's feature count swings
    /// with its seed (five seeds: artifacts 6.3-7.3 MiB, wall 0.76-1.07 s,
    /// peak memory 65-87 MiB), more than any bound could absorb, so the
    /// jet is always the generator's default field and `--seed` only
    /// shapes the request script. White noise is statistically the same
    /// field under every seed (artifact size within 1 %).
    pub fn input_seed(&self, seed: u64) -> u64 {
        const MSC_SYNTH_DEFAULT_SEED: u64 = 2012;
        if self.seeded_input {
            seed
        } else {
            MSC_SYNTH_DEFAULT_SEED
        }
    }

    /// The volume `msc synth --size` makes: a cube, except the jet's
    /// N x 7N/6 x 2N/3.
    pub fn dims(&self) -> [u32; 3] {
        let n = self.size;
        match self.synth_kind {
            "jet" => [n, n * 7 / 6, n * 2 / 3],
            _ => [n, n, n],
        }
    }

    pub fn dims_arg(&self) -> String {
        let [x, y, z] = self.dims();
        format!("{x},{y},{z}")
    }

    pub fn synth_args(&self, seed: u64, output: &str) -> Vec<String> {
        let mut a = vec![
            "synth".to_string(),
            "--kind".into(),
            self.synth_kind.into(),
            "--size".into(),
            self.size.to_string(),
            "--seed".into(),
            self.input_seed(seed).to_string(),
            "--dtype".into(),
            "f32".into(),
            "--output".into(),
            output.into(),
        ];
        if let Some(c) = self.complexity {
            a.extend(["--complexity".to_string(), c.to_string()]);
        }
        a
    }

    pub fn compute_args(
        &self,
        ranks: u32,
        checkpoint: bool,
        input: &str,
        output: &str,
    ) -> Vec<String> {
        let mut a: Vec<String> = [
            "compute",
            "--input",
            input,
            "--dims",
            &self.dims_arg(),
            "--dtype",
            "f32",
            "--ranks",
            &ranks.to_string(),
            "--blocks",
            &self.blocks.to_string(),
            "--threads",
            "1",
            "--persistence",
            PERSISTENCE,
            "--merge",
            self.merge,
            "--output",
            output,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.adaptive {
            a.extend(["--decomp".to_string(), "adaptive".to_string()]);
        }
        if self.hierarchy {
            a.push("--hierarchy".to_string());
        }
        if checkpoint {
            a.push("--checkpoint".to_string());
        }
        a
    }

    /// Files one compute run writes, as suffixes of its `--output`.
    pub fn artifact_suffixes(&self) -> &'static [&'static str] {
        if self.hierarchy {
            &["", ".seg", ".msh"]
        } else {
            &[""]
        }
    }
}

/// A declared metric: name, unit, and whether larger is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// The nine end-to-end metrics, none derivable from another.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.25),
    e2e("serial_wall_s", "s", 0.25),
    e2e("ckpt_wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
    e2e("artifact_mb", "MiB", 0.05),
    e2e("p50_ms", "ms", 0.25),
    e2e("p95_ms", "ms", 0.25),
];

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// Per-layer metrics of the traced walk; layer = crate name.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("grid.decompose_s", "s"),
    layer("grid.read_s", "s"),
    layer("grid.read_mb", "MiB"),
    layer("morse.gradient_s", "s"),
    layer("morse.cells", "count"),
    rate("morse.gradient_mcells_per_s", "Mcells/s"),
    layer("morse.trace_s", "s"),
    layer("morse.arc_steps", "count"),
    rate("morse.trace_msteps_per_s", "Msteps/s"),
    layer("complex.build_s", "s"),
    layer("complex.nodes", "count"),
    layer("complex.arcs", "count"),
    layer("complex.simplify_s", "s"),
    layer("complex.cancellations", "count"),
    layer("complex.encode_s", "s"),
    layer("complex.encode_mb", "MiB"),
    layer("complex.decode_s", "s"),
    layer("complex.glue_s", "s"),
    layer("complex.glued_nodes", "count"),
    layer("complex.resimplify_s", "s"),
    layer("vmpi.spawn_s", "s"),
    layer("vmpi.ship_s", "s"),
    layer("vmpi.ship_mb", "MiB"),
    layer("vmpi.write_s", "s"),
    layer("vmpi.write_mb", "MiB"),
    layer("fault.ckpt_encode_s", "s"),
    layer("fault.ckpt_mb", "MiB"),
    layer("fault.ckpt_save_s", "s"),
    layer("fault.ckpt_decode_s", "s"),
    layer("segment.label_s", "s"),
    rate("segment.label_mvox_per_s", "Mvox/s"),
    layer("segment.resolve_s", "s"),
    layer("segment.jump_rounds", "count"),
    layer("segment.forwards", "count"),
    layer("segment.encode_s", "s"),
    layer("segment.seg_mb", "MiB"),
    layer("hierarchy.record_s", "s"),
    layer("hierarchy.records", "count"),
    layer("hierarchy.encode_s", "s"),
    layer("hierarchy.msh_mb", "MiB"),
    layer("hierarchy.decode_s", "s"),
    layer("hierarchy.materialize_ms", "ms"),
    rate("hierarchy.replayed_per_s", "1/s"),
    layer("core.sched_s", "s"),
    layer("core.walk_sum_s", "s"),
    layer("core.walk_gap_frac", "ratio"),
    layer("core.phase_sum_s", "s"),
    layer("core.unattributed_frac", "ratio"),
    layer("core.proc_overhead_s", "s"),
    rate("core.par_eff_2", "ratio"),
    layer("core.sim_s", "s"),
    layer("core.serve_load_s", "s"),
    layer("core.serve_hit_us", "us"),
    layer("core.serve_miss_ms", "ms"),
    rate("core.cache_hit_frac", "ratio"),
    layer("core.serve_tcp_overhead_ms", "ms"),
    layer("telemetry.trace_overhead_frac", "ratio"),
    layer("telemetry.report_kb", "KiB"),
    layer("oracle.check_overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_expands_whole_rounds_in_pattern_order() {
        let w = find("dense_merge").unwrap();
        let ops = w.schedule(2);
        assert_eq!(
            ops,
            [
                Op::Setup,
                Op::Wall,
                Op::Serial,
                Op::Wall,
                Op::Ckpt,
                Op::Setup,
                Op::Wall,
                Op::Serial,
                Op::Wall,
                Op::Ckpt
            ]
        );
        let count = |ops: &[Op], op| ops.iter().filter(|&&o| o == op).count();
        for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Compute) {
            // the minimum schedule already carries the sample counts the
            // statistics need
            let ops = w.schedule(w.rounds(0));
            assert!(count(&ops, Op::Wall) >= 12, "{}", w.name);
            assert!(count(&ops, Op::Serial) >= 6, "{}", w.name);
            assert!(count(&ops, Op::Setup) >= 6, "{}", w.name);
            // the input exists before the first run reads it
            assert_eq!(ops[0], Op::Setup);
            assert_eq!(ops.len() % w.pattern.len(), 0);
        }
        assert!(count(&w.schedule(w.rounds(0)), Op::Ckpt) >= 6);
        assert_eq!(find("serve_mix").unwrap().rounds(0), 3);
    }

    #[test]
    fn duration_scales_in_whole_rounds_only() {
        let w = find("smooth_kernel").unwrap();
        assert_eq!(w.rounds(1), 6);
        assert_eq!(w.rounds(18), 6);
        assert_eq!(w.rounds(24), 8);
        assert_eq!(w.rounds(26), 8);
        assert_eq!(w.rounds(60), 20);
        let s = find("serve_mix").unwrap();
        assert_eq!(s.rounds(24), 3);
        assert_eq!(s.rounds(60), 5);
    }

    #[test]
    fn manifest_names_every_declared_metric_once() {
        let manifest = include_str!("../../BENCHMARK.json");
        assert!(manifest.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        let declared = manifest.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            let needle = format!("\"name\": \"{name}\"");
            assert_eq!(manifest.matches(&needle).count(), 1, "{name}");
        }
        for m in END_TO_END.iter() {
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(manifest.contains(&needle), "{needle}");
        }
        for m in PER_LAYER.iter() {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(manifest.contains(&needle), "{needle}");
        }
    }

    #[test]
    fn dims_follow_the_generator() {
        assert_eq!(find("hier_adaptive").unwrap().dims_arg(), "65,75,43");
        assert_eq!(find("dense_merge").unwrap().dims_arg(), "41,41,41");
    }
}
