//! Shared helpers of the `figures` driver (see DESIGN.md §5 for the
//! experiment index): the scale preset, the text sink and table printer
//! every figure writes through, the telemetry emitters and the one
//! simulated-run setting the scaling figures share.
//!
//! Two environment variables keep the runs reproducible:
//!
//! * `MSP_SCALE=small|default|large` — preset problem sizes;
//! * `MSP_RESULTS_DIR` — where results land (default `results/`).

use msp_core::{MergePlan, SimParams, SimReport};
use msp_grid::ScalarField;
use msp_telemetry::{write_named_json, Json};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Problem-size preset selected by `MSP_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds end-to-end).
    Small,
    /// Workstation defaults used for EXPERIMENTS.md.
    Default,
    /// Closer to paper dimensions; minutes to hours.
    Large,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("MSP_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("large") => Scale::Large,
            _ => Scale::Default,
        }
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, small: T, default: T, large: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Default => default,
            Scale::Large => large,
        }
    }
}

/// Where experiment outputs land: `MSP_RESULTS_DIR` or `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("MSP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// One figure's text: every line is echoed to stdout and kept for
/// `results/<stem>.txt`.
#[derive(Default)]
pub struct Out(pub String);

impl Out {
    pub fn line(&mut self, s: impl std::fmt::Display) {
        println!("{s}");
        writeln!(self.0, "{s}").expect("writing to a String");
    }
}

/// Persist a telemetry document as `results/<name>.telemetry.json`.
pub fn emit_doc(name: &str, doc: &Json) {
    match write_named_json(&results_dir(), name, doc) {
        Ok(p) => println!("telemetry written to {}", p.display()),
        Err(e) => eprintln!("telemetry write failed ({name}): {e}"),
    }
}

/// Persist a labelled series of run reports as one
/// `results/<name>.telemetry.json`; `kind` is `run_series` for threaded
/// pipeline runs and `sim_series` for simulated ones.
pub fn emit_series(name: &str, kind: &str, runs: Vec<(String, Json)>) {
    let runs = runs
        .into_iter()
        .map(|(label, report)| Json::obj(vec![("label", Json::str(label)), ("report", report)]))
        .collect();
    let doc = Json::obj(vec![
        ("version", Json::U64(msp_telemetry::REPORT_VERSION as u64)),
        ("kind", Json::str(kind)),
        ("name", Json::str(name)),
        ("runs", Json::Arr(runs)),
    ]);
    emit_doc(name, &doc);
}

/// Simulate `ranks` virtual ranks merging by `plan` at 1 % persistence,
/// the setting of every simulated scaling figure and table.
pub fn simulate(field: &ScalarField, ranks: u32, plan: MergePlan) -> SimReport {
    let params = SimParams {
        persistence_frac: 0.01,
        plan,
        ..Default::default()
    };
    msp_core::simulate(field, ranks, &params).unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// Strong-scaling efficiency relative to a base point:
/// `(t_base / t) / (p / p_base)`.
pub fn efficiency(p_base: u32, t_base: f64, p: u32, t: f64) -> f64 {
    (t_base / t) / (p as f64 / p_base as f64)
}

/// Format a byte count the way the paper quotes sizes.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Markdown-ish table printer: header once, then aligned rows.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    pub fn new(out: &mut Out, headers: &[&str]) -> Self {
        let table = Table {
            widths: headers.iter().map(|h| h.len().max(9)).collect(),
        };
        let line = table.format(headers);
        out.line(&line);
        out.line("-".repeat(line.len()));
        table
    }

    pub fn row(&self, out: &mut Out, cells: &[String]) {
        out.line(self.format(cells));
    }

    fn format(&self, cells: &[impl std::fmt::Display]) -> String {
        cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$} "))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_baseline_is_100_percent() {
        assert_eq!(efficiency(32, 970.0, 32, 970.0), 1.0);
        // paper §VI-D1: 970 s at 32 procs -> 29 s at 8192 procs = 13%
        let e = efficiency(32, 970.0, 8192, 29.0);
        assert!((e - 0.13).abs() < 0.01, "paper's own example: {e}");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(26 * 1024 * 1024), "26.00 MB");
        assert_eq!(fmt_bytes(4 * 1024 * 1024 * 1024), "4.00 GB");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Small.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Large.pick(1, 2, 3), 3);
    }
}
