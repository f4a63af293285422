//! What a run reports: a table a person reads, a result file with
//! every detail, and the one-line JSON object the driver parses.

use crate::stats::Stat;
use crate::workload::MetricDef;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub struct Metric {
    pub name: &'static str,
    pub stat: Stat,
}

impl Metric {
    pub fn new(name: &'static str, stat: Stat) -> Metric {
        Metric { name, stat }
    }
}

/// Where a run reads and writes; everything is inside the checkout.
pub struct Ctx {
    pub msc: PathBuf,
    /// `benchmark/target`: work dirs, result files, span files.
    pub target: PathBuf,
    /// The `build.info` key=value lines run.sh wrote.
    pub build_info: Vec<(String, String)>,
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The host-noise block, already JSON.
    pub host: String,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
        defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
    }

    fn better_of(defs: &[MetricDef], name: &str) -> &'static str {
        match defs.iter().find(|d| d.name == name) {
            Some(d) if d.higher_is_better => "higher",
            _ => "lower",
        }
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "workload {} seed {} seconds {} trace {}: {} attempted, {} failed\n",
            self.workload, self.seed, self.seconds, self.trace as u8, self.attempted, self.failed
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>14} {:<9} {:<6} {:>14} {:>12} {:>4}",
            "metric", "value", "unit", "better", "median", "iqr", "n"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<32} {:>14.6} {:<9} {:<6} {:>14.6} {:>12.6} {:>4}",
                m.name,
                m.stat.value,
                Self::unit_of(defs, m.name),
                Self::better_of(defs, m.name),
                m.stat.median,
                m.stat.iqr,
                m.stat.n
            );
        }
        let _ = writeln!(out, "  host reference loop: {}", self.host);
        let absent = self.unmeasured(defs);
        if !absent.is_empty() {
            let _ = writeln!(
                out,
                "  not measured on this workload; on the line below {}: {}",
                if self.trace {
                    "0"
                } else {
                    "a copy of wall_s"
                },
                absent.join(" ")
            );
        }
        out
    }

    /// The full record, written under `target/results/`.
    pub fn to_json(&self, defs: &[MetricDef], ctx: &Ctx) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"trace\": {},", self.trace as u8);
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let build: Vec<String> = ctx
            .build_info
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        let _ = writeln!(out, "  \"build\": {{{}}},", build.join(", "));
        let _ = writeln!(out, "  \"host\": {},", self.host);
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"median\": {}, \
                 \"iqr\": {}, \"n\": {}, \"samples\": {:?}",
                m.name,
                m.stat.value,
                Self::unit_of(defs, m.name),
                m.stat.median,
                m.stat.iqr,
                m.stat.n,
                m.stat.samples
            );
            out.push_str(if i + 1 < self.metrics.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Declared names this workload has no measurement for.
    pub fn unmeasured(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        let absent = defs.iter().filter(|d| self.get(d.name).is_none());
        absent.map(|d| d.name).collect()
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every declared name, measured here
    /// or not. Only this line fills the gaps; the table and the result
    /// file hold what was measured. A per-layer name of a layer the
    /// workload never enters reads 0. An end-to-end name (no checkpoint
    /// run on `smooth_kernel`, no percentiles on a batch run) must be a
    /// non-zero time that differs from run to run, so it repeats the
    /// workload's `wall_s` in its own unit: a copy regresses only when
    /// `wall_s` itself does.
    pub fn contract_line(&self, defs: &[MetricDef]) -> String {
        let wall_s = self.get("wall_s").map_or(0.0, |m| m.stat.value);
        let fill = |d: &MetricDef| match (self.trace, d.unit) {
            (true, _) => 0.0,
            (false, "ms") => wall_s * 1e3,
            (false, _) => wall_s,
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).map_or_else(|| fill(d), |m| m.stat.value);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn write(&self, defs: &[MetricDef], ctx: &Ctx) -> std::io::Result<PathBuf> {
        let dir = ctx.target.join("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.trace{}.json", self.workload, self.trace as u8));
        std::fs::write(&path, self.to_json(defs, ctx))?;
        Ok(path)
    }
}

pub fn read_build_info(path: &Path) -> Vec<(String, String)> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::END_TO_END;

    #[test]
    fn contract_line_has_every_declared_name_and_nothing_else() {
        let o = Outcome {
            workload: "dense_merge",
            seed: 1,
            seconds: 24,
            trace: false,
            attempted: 30,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", Stat::exact(1.25)),
                Metric::new("ckpt_wall_s", Stat::exact(1.5)),
            ],
            host: "{}".into(),
        };
        let line = o.contract_line(&END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": {"));
        for d in END_TO_END.iter() {
            assert_eq!(line.matches(&format!("\"{}\":", d.name)).count(), 1);
        }
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ckpt_wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // unmeasured names are filled on this line only
        assert!(line.contains("\"p50_ms\": {\"value\": 1250, \"unit\": \"ms\"}"));
        assert!(o.unmeasured(&END_TO_END).contains(&"p50_ms"));
        assert!(!o.table(&END_TO_END).contains("  p50_ms"));
        assert!(!line.contains('\n'));
    }
}
