//! The repository benchmark (see `README.md` beside this crate and
//! `/BENCHMARK.json`).
//!
//! ```text
//! msp_benchmark run --msc BIN --target DIR --build-info FILE \
//!     --workload W --seed N --seconds S --trace 0|1
//! msp_benchmark selfcheck --msc BIN --target DIR --build-info FILE
//! ```
//!
//! `run` measures one workload and prints, as its last line, the JSON
//! object the driver parses. With `--trace 0` every number comes from
//! `msc` child processes (`e2e`); with `--trace 1` the workload's
//! stages are walked in-process, layer by layer (`walk`).

mod child;
mod e2e;
mod host;
mod report;
mod script;
mod spans;
mod stats;
mod walk;
mod workload;

use report::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// `--name value` pairs after the subcommand.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Ok(v), _) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
            (Err(_), Some(d)) => Ok(d),
            (Err(e), None) => Err(e),
        }
    }

    fn ctx(&self) -> Result<Ctx, String> {
        Ok(Ctx {
            msc: PathBuf::from(self.get("msc")?),
            target: PathBuf::from(self.get("target")?),
            build_info: report::read_build_info(&PathBuf::from(self.get("build-info")?)),
        })
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn measure(name: &str, seed: u64, seconds: u32, trace: bool, ctx: &Ctx) -> Result<Outcome, String> {
    let w = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (want one of {})",
            names.join(", ")
        )
    })?;
    let outcome = if trace {
        walk::run(w, seed, seconds, ctx)
    } else {
        e2e::run(w, seed, seconds, ctx)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    outcome
        .write(defs(trace), ctx)
        .map_err(|e| format!("writing the result file: {e}"))?;
    Ok(outcome)
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let ctx = args.ctx()?;
    let trace = match args.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    let o = measure(
        args.get("workload")?,
        args.num("seed", None)?,
        args.num("seconds", None)?,
        trace,
        &ctx,
    )?;
    for (k, v) in &ctx.build_info {
        println!("{k}: {v}");
    }
    print!("{}", o.table(defs(trace)));
    println!("{}", o.contract_line(defs(trace)));
    // a run that measured exits 0 even when an operation failed its
    // check: the line above says so with `"correct": false`
    Ok(true)
}

/// Run all four workloads twice back to back and compare every measured
/// workload x metric pair against its bound.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let ctx = args.ctx()?;
    let seed: u64 = args.num("seed", Some(1))?;
    let seconds: u32 = args.num("seconds", Some(workload::RUN_SECONDS))?;
    let mut rows = Vec::new();
    let mut pass = true;
    for w in WORKLOADS.iter() {
        let a = measure(w.name, seed, seconds, false, &ctx)?;
        let b = measure(w.name, seed, seconds, false, &ctx)?;
        pass &= a.failed == 0 && b.failed == 0;
        for d in END_TO_END.iter() {
            let (Some(x), Some(y)) = (a.get(d.name), b.get(d.name)) else {
                continue;
            };
            let (x, y) = (x.stat.value, y.stat.value);
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let ok = diff <= d.bound;
            pass &= ok;
            rows.push(format!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:<4} {:>7.2}% (bound {:>4.1}%) {}",
                w.name,
                d.name,
                x,
                y,
                d.unit,
                diff * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" }
            ));
        }
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:<4} {:>8}",
        "workload", "metric", "first", "second", "unit", "diff"
    );
    for r in &rows {
        println!("{r}");
    }
    println!(
        "selfcheck: {} pairs, {}",
        rows.len(),
        if pass { "pass" } else { "FAIL" }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "run" => cmd_run(&args),
            "selfcheck" => cmd_selfcheck(&args),
            other => Err(format!("unknown command {other:?} (want run|selfcheck)")),
        }),
        None => Err("usage: msp_benchmark run|selfcheck --flag value ...".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
