//! `msc` — command-line driver for the parallel Morse-Smale pipeline.
//!
//! ```text
//! msc synth    --kind sinusoid --size 65 --complexity 4 --output f.raw
//! msc compute  --input f.raw --dims 65,65,65 --dtype f32 \
//!              --ranks 8 --blocks 8 --persistence 0.01 --merge full \
//!              --output f.msc
//! msc info     f.msc
//! msc stats    f.msc --block 0
//! msc filaments f.msc --block 0 --threshold 0.5
//! msc export   f.msc --block 0 --vtk skel.vtk --csv nodes.csv
//! ```

use morse_smale_parallel::complex::export::{self, LabeledVolume, SegKind};
use morse_smale_parallel::complex::{query, wire, MsComplex};
use morse_smale_parallel::core::{
    dataset_names, full_merge_plan, load_dataset, msh_output_path, parse_persistence, run_parallel,
    seg_output_path, serve_session, serve_tcp, DecompMode, FaultConfig, Input, MergePlan,
    PipelineParams, ServeConfig, ServerCore,
};
use morse_smale_parallel::fault::FaultPlan;
use morse_smale_parallel::grid::rawio::{write_raw, VolumeDType};
use morse_smale_parallel::grid::Dims;
use morse_smale_parallel::segment::{wire as segwire, BlockSegmentation};
use morse_smale_parallel::synth;
use morse_smale_parallel::vmpi::fileio::{read_block_payload, read_footer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Minimal SIGINT hook with no external crates: `signal(2)` is in every
/// libc the binary already links, and the handler only stores to an
/// atomic (async-signal-safe). Non-unix builds compile the same API to
/// a no-op that never reports an interrupt.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn interrupted() -> bool {
        false
    }
}

/// One `msc` command: its name, the most positional arguments it takes,
/// the flags it reads that take a value, the switches (flags that take
/// none), and its function. Any other flag or argument is an error.
struct Command {
    name: &'static str,
    args: usize,
    flags: &'static str,
    switches: &'static str,
    run: fn(&Opts) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "synth",
        args: 0,
        flags: "kind size complexity seed output dtype",
        switches: "",
        run: cmd_synth,
    },
    Command {
        name: "compute",
        args: 0,
        // `--trace` takes an optional FILE
        flags: "input dims dtype ranks blocks persistence threads merge output decomp \
                faults deadline-ms trace",
        switches: "checkpoint check segment hierarchy",
        run: cmd_compute,
    },
    Command {
        name: "info",
        args: 1,
        flags: "",
        switches: "",
        run: cmd_info,
    },
    Command {
        name: "stats",
        args: 1,
        flags: "block top",
        switches: "",
        run: cmd_stats,
    },
    Command {
        name: "filaments",
        args: 1,
        flags: "block threshold",
        switches: "",
        run: cmd_filaments,
    },
    Command {
        name: "export",
        args: 1,
        flags: "block vtk csv labels labels-vtk labels-csv seg",
        switches: "",
        run: cmd_export,
    },
    Command {
        name: "serve",
        args: usize::MAX,
        flags: "listen cache report slow-ms",
        switches: "",
        run: cmd_serve,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        name => match COMMANDS.iter().find(|c| c.name == name) {
            Some(c) => parse_opts(c, rest).and_then(|o| (c.run)(&o)),
            None => Err(format!("unknown command '{name}'")),
        },
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!("{USAGE}");
}

const USAGE: &str = "msc — parallel Morse-Smale complexes\n\
         commands:\n\
         \u{20} synth     --kind sinusoid|jet|rt|hydrogen|porous|noise --size N\n\
         \u{20}           [--complexity C] [--seed S] --output FILE [--dtype f32]\n\
         \u{20} compute   --input FILE --dims X,Y,Z [--dtype u8|f32|f64]\n\
         \u{20}           [--ranks N] [--blocks N] [--persistence F]\n\
         \u{20}           [--threads N]  (intra-rank threads for the local\n\
         \u{20}           stage; default: all cores, 1 = serial; output is\n\
         \u{20}           bit-identical for every N)\n\
         \u{20}           [--merge full|none|R1,R2,...] --output FILE\n\
         \u{20}           (radices R are 2|4|8; a uniform full merge\n\
         \u{20}           needs a power-of-two --blocks count)\n\
         \u{20}           [--decomp uniform|adaptive|random:SEED]  (block\n\
         \u{20}           layout: uniform bisection, feature-density\n\
         \u{20}           adaptive splitting, or a seeded random block\n\
         \u{20}           tree; irregular modes take any --blocks count\n\
         \u{20}           and keep outputs byte-identical across ranks)\n\
         \u{20}           [--faults SPEC] [--deadline-ms MS] [--checkpoint]\n\
         \u{20}           (SPEC implies --checkpoint, which also runs alone)\n\
         \u{20}           [--trace [FILE]]  (Chrome trace + critical path;\n\
         \u{20}           default FILE: results/<output stem>.trace.json)\n\
         \u{20}           [--check]  (oracle invariant checker over every\n\
         \u{20}           output; violations fail the run)\n\
         \u{20}           [--segment]  (full MS segmentation: labeled\n\
         \u{20}           volumes resolved by distributed path compression;\n\
         \u{20}           writes <output>.seg next to the complex)\n\
         \u{20}           [--hierarchy]  (record the full cancellation\n\
         \u{20}           sequence for threshold-free querying; implies\n\
         \u{20}           --segment; writes <output>.msh next to the complex)\n\
         \u{20}           SPEC: crash:R@K;panic:R@K;drop:F->T#N;delay:F->T#N+MS;\n\
         \u{20}           slow:R*F\n\
         \u{20} serve     FILE... (from compute --hierarchy)\n\
         \u{20}           [--listen ADDR]  (TCP; default: stdin/stdout,\n\
         \u{20}           answered one line at a time, in order)\n\
         \u{20}           [--cache N] [--report NAME]\n\
         \u{20}           [--slow-ms MS]  (log every request at or over MS\n\
         \u{20}           as a JSON event on stderr)\n\
         \u{20}           line-delimited JSON queries: ping, datasets,\n\
         \u{20}           threshold, extrema, arc-geometry, segment-stats,\n\
         \u{20}           stats, metrics, health, quit, shutdown\n\
         \u{20}           HTTP on the same --listen port: GET /metrics\n\
         \u{20}           (Prometheus text format) and GET /healthz\n\
         \u{20} info      FILE\n\
         \u{20} stats     FILE [--block I] [--top K]\n\
         \u{20} filaments FILE [--block I] --threshold T\n\
         \u{20} export    FILE [--block I] [--vtk FILE] [--csv FILE]\n\
         \u{20}           [--labels descending|ascending|combined]\n\
         \u{20}           [--labels-vtk FILE] [--labels-csv FILE]\n\
         \u{20}           [--seg FILE]  (labeled volume source; default:\n\
         \u{20}           <FILE>.seg from a --segment compute run)";

struct Opts {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// Split `args` into flags and positional arguments, refusing a flag
/// `cmd` does not read, a value after one of its switches, and more
/// positional arguments than it takes.
fn parse_opts(cmd: &Command, args: &[String]) -> Result<Opts, String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            if positional.len() == cmd.args {
                return Err(format!("unexpected argument '{a}' for {}", cmd.name));
            }
            positional.push(a.clone());
            continue;
        };
        let value = it.peek().filter(|v| !v.starts_with("--"));
        let value = if cmd.switches.split_whitespace().any(|k| k == name) {
            if let Some(v) = value {
                return Err(format!("--{name} takes no value (got '{v}')"));
            }
            String::new()
        } else if cmd.flags.split_whitespace().any(|k| k == name) {
            value.map(|v| (*v).clone()).unwrap_or_default()
        } else {
            return Err(format!("unknown flag --{name} for {}", cmd.name));
        };
        if !value.is_empty() {
            it.next();
        }
        flags.insert(name.to_string(), value);
    }
    Ok(Opts { flags, positional })
}

impl Opts {
    fn req(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .filter(|s| !s.is_empty())
    }

    /// Valueless boolean flag, e.g. `--checkpoint`.
    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }

    fn file(&self) -> Result<PathBuf, String> {
        self.positional
            .first()
            .map(PathBuf::from)
            .ok_or_else(|| "missing file argument".to_string())
    }
}

fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Vec<u32> = s
        .split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad dims '{s}'")))
        .collect::<Result<_, _>>()?;
    if parts.len() != 3 {
        return Err(format!("dims must be X,Y,Z — got '{s}'"));
    }
    Ok(Dims::new(parts[0], parts[1], parts[2]))
}

fn parse_dtype(s: Option<&str>) -> Result<VolumeDType, String> {
    match s.unwrap_or("f32") {
        "u8" => Ok(VolumeDType::U8),
        "f32" => Ok(VolumeDType::F32),
        "f64" => Ok(VolumeDType::F64),
        other => Err(format!("unknown dtype '{other}' (u8|f32|f64)")),
    }
}

fn cmd_synth(o: &Opts) -> Result<(), String> {
    let kind = o.req("kind")?;
    let size: u32 = o.num("size", 65)?;
    let complexity: u32 = o.num("complexity", 4)?;
    let seed: u64 = o.num("seed", 2012)?;
    let out = PathBuf::from(o.req("output")?);
    let dtype = parse_dtype(o.opt("dtype"))?;
    let field = match kind {
        "sinusoid" => synth::sinusoid(size, complexity),
        "jet" => synth::jet(Dims::new(size, size * 7 / 6, size * 2 / 3), 160, seed),
        "rt" => synth::rayleigh_taylor(size, 48, seed),
        "hydrogen" => synth::hydrogen(size),
        "porous" => synth::porous(size, complexity.max(1), 0.05, seed),
        "noise" => synth::white_noise(Dims::cube(size), seed),
        other => return Err(format!("unknown kind '{other}'")),
    };
    write_raw(&out, &field, dtype).map_err(|e| e.to_string())?;
    let d = field.dims();
    println!(
        "wrote {} ({}x{}x{} {:?})",
        out.display(),
        d.nx,
        d.ny,
        d.nz,
        dtype
    );
    println!(
        "hint: msc compute --input {} --dims {},{},{}",
        out.display(),
        d.nx,
        d.ny,
        d.nz
    );
    Ok(())
}

fn cmd_compute(o: &Opts) -> Result<(), String> {
    let input = PathBuf::from(o.req("input")?);
    let dims = parse_dims(o.req("dims")?)?;
    let dtype = parse_dtype(o.opt("dtype"))?;
    let ranks: u32 = o.num("ranks", 8)?;
    let blocks: u32 = o.num("blocks", ranks)?;
    let persistence = parse_persistence(o.opt("persistence").unwrap_or("0.01"))?;
    let out = PathBuf::from(o.req("output")?);
    let decomp = match o.opt("decomp") {
        Some(s) => DecompMode::parse(s).map_err(|e| format!("bad --decomp: {e}"))?,
        None => DecompMode::Uniform,
    };
    let plan = match o.opt("merge").unwrap_or("full") {
        "full" => full_merge_plan(blocks),
        "none" => MergePlan::none(),
        spec => MergePlan::rounds(
            spec.split(',')
                .map(|r| r.trim().parse().map_err(|_| format!("bad radix '{r}'")))
                .collect::<Result<Vec<u32>, _>>()?,
        ),
    };
    let fault_plan: Option<FaultPlan> = match o.opt("faults") {
        Some(spec) => Some(spec.parse().map_err(|e| format!("bad --faults: {e}"))?),
        None => None,
    };
    let deadline_ms: u64 = o.num("deadline-ms", 5000u64)?;
    let fault = FaultConfig {
        checkpoint: o.has("checkpoint"),
        plan: fault_plan,
        deadline: std::time::Duration::from_millis(deadline_ms),
    };
    let threads: Option<usize> = match o.opt("threads") {
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad value for --threads: {v}"))?,
        ),
        None => None,
    };
    let params = PipelineParams {
        persistence_frac: persistence,
        plan,
        decomp,
        fault,
        trace: o.has("trace"),
        threads,
        check: o.has("check"),
        // the count ordering needs region sizes, so --hierarchy turns
        // the segmentation stage on too
        segment: o.has("segment") || o.has("hierarchy"),
        hierarchy: o.has("hierarchy"),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let r = run_parallel(
        &Input::File {
            path: input,
            dims,
            dtype,
        },
        ranks,
        blocks,
        &params,
        Some(&out),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "computed {} output block(s) in {:.2}s (threshold {:.4})",
        r.outputs.len(),
        t0.elapsed().as_secs_f64(),
        r.threshold
    );
    for (i, ms) in r.outputs.iter().enumerate() {
        let c = ms.node_census();
        println!(
            "  block {i}: {} nodes [{} min, {} 1s, {} 2s, {} max], {} arcs",
            ms.n_live_nodes(),
            c[0],
            c[1],
            c[2],
            c[3],
            ms.n_live_arcs()
        );
    }
    println!("wrote {} ({} bytes)", out.display(), r.output_bytes);
    if params.segment {
        for s in &r.segmentation {
            let (n_desc, n_asc, drained) = s.census();
            println!(
                "  seg block {}: {} descending / {} ascending region(s), {} drained voxel(s)",
                s.block_id, n_desc, n_asc, drained
            );
        }
        let rounds = r
            .telemetry
            .ranks
            .first()
            .map(|rk| rk.counter("seg_rounds"))
            .unwrap_or(0);
        println!(
            "segmentation: wrote {} ({} block(s), {} forward(s) resolved in {} \
             pointer-jump round(s), {} boundary byte(s))",
            seg_output_path(&out).display(),
            r.segmentation.len(),
            r.telemetry.counter_total("seg_forwards"),
            rounds,
            r.telemetry.counter_total("seg_boundary_bytes"),
        );
    }
    if params.hierarchy {
        let orderings: Vec<&str> = r
            .hierarchies
            .first()
            .map(|h| h.orderings().iter().map(|o| o.key()).collect())
            .unwrap_or_default();
        println!(
            "hierarchy: wrote {} ({} slot(s), {} cancellation record(s), orderings {})",
            msh_output_path(&out).display(),
            r.hierarchies.len(),
            r.telemetry.counter_total("hierarchy_records"),
            orderings.join("+"),
        );
    }
    if r.telemetry.counter_total("checks_run") > 0 {
        let verdict = r.check_verdict();
        let counts: Vec<String> = (verdict.violations.iter())
            .map(|(c, n)| format!("{} {n}", c.key().trim_start_matches("check_")))
            .collect();
        println!(
            "oracle check: {} complex(es) checked, {} violation(s) [{}]",
            r.telemetry.counter_total("checks_run"),
            verdict.total(),
            counts.join(", ")
        );
        if verdict.total() > 0 {
            return Err(format!(
                "oracle check found {} invariant violation(s) — see stderr notes",
                verdict.total()
            ));
        }
        if verdict.tables.segment > 0 {
            for note in &verdict.tables.notes {
                eprintln!("[msp-check] {note}");
            }
            return Err(format!(
                "oracle check found {} segmentation-table violation(s)",
                verdict.tables.segment
            ));
        }
    }
    if params.fault.active() {
        let tel = &r.telemetry;
        println!(
            "fault summary: {} crash(es), {} retry(ies), {} round(s) replayed, \
             {} checkpoint bytes, {} ms recovering",
            tel.counter_total("crashes"),
            tel.counter_total("retries"),
            tel.counter_total("rounds_replayed"),
            tel.counter_total("checkpoint_bytes"),
            tel.counter_total("recovery_ms"),
        );
    }

    // Span bookkeeping bugs are recorded, not panicked on — but a
    // non-zero incident count means some phase durations are
    // best-effort, which the user reading the telemetry should know.
    let unbalanced = r.telemetry.unbalanced_total();
    if unbalanced > 0 {
        eprintln!(
            "warning: {unbalanced} unbalanced telemetry span(s) — phase timings in the \
             report are best-effort for the affected rank(s)"
        );
    }

    // per-phase / per-rank observability next to the complex itself:
    // results/<output stem>.telemetry.json
    let stem = out
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "msc_compute".to_string());
    let mut report = r.telemetry;
    report.name = stem;
    match report.write(Path::new("results")) {
        Ok(p) => println!("telemetry: {}", p.display()),
        Err(e) => eprintln!("warning: telemetry write failed: {e}"),
    }

    if let Some(tr) = &r.trace {
        let path = match o.opt("trace") {
            Some(p) => {
                let p = PathBuf::from(p);
                if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                }
                std::fs::write(&p, tr.to_chrome_json(&report.name).pretty())
                    .map_err(|e| e.to_string())?;
                p
            }
            None => tr
                .write(Path::new("results"), &report.name)
                .map_err(|e| e.to_string())?,
        };
        println!("trace: {} (load in ui.perfetto.dev)", path.display());
        if let Some(cp) = tr.critical_path() {
            println!(
                "critical path: {:.3}s on the causal chain, {:.3}s wall clock",
                cp.total_ns as f64 * 1e-9,
                cp.wall_ns as f64 * 1e-9
            );
            let ranked = cp.ranked();
            for s in ranked.iter().take(12) {
                println!(
                    "  rank {:>2}  {:<20} {:>9.3}s  {:>5.1}% of wall",
                    s.rank,
                    s.key,
                    s.dur_ns as f64 * 1e-9,
                    cp.pct_of_wall(s)
                );
            }
            if ranked.len() > 12 {
                println!("  ... {} shorter step(s) elided", ranked.len() - 12);
            }
        }
    }
    Ok(())
}

fn load_block(path: &Path, block: usize) -> Result<MsComplex, String> {
    let footer = read_footer(path).map_err(|e| e.to_string())?;
    let entry = footer
        .get(block)
        .ok_or_else(|| format!("block {block} out of range ({} blocks)", footer.len()))?;
    let payload = read_block_payload(path, entry).map_err(|e| e.to_string())?;
    wire::deserialize(&payload).map_err(|e| e.to_string())
}

fn cmd_info(o: &Opts) -> Result<(), String> {
    let path = o.file()?;
    let footer = read_footer(&path).map_err(|e| e.to_string())?;
    println!("{}: {} output block(s)", path.display(), footer.len());
    for (i, e) in footer.iter().enumerate() {
        let ms = load_block(&path, i)?;
        println!(
            "  block {i}: {} bytes at offset {}, output slot {}, members {:?}, {} nodes / {} arcs",
            e.len,
            e.offset,
            e.writer,
            ms.member_blocks,
            ms.n_live_nodes(),
            ms.n_live_arcs()
        );
    }
    Ok(())
}

fn cmd_stats(o: &Opts) -> Result<(), String> {
    let path = o.file()?;
    let block: usize = o.num("block", 0usize)?;
    let top: usize = o.num("top", 5usize)?;
    let ms = load_block(&path, block)?;
    let c = ms.node_census();
    println!(
        "block {block}: {} nodes [{} min, {} 1-saddle, {} 2-saddle, {} max], {} arcs",
        ms.n_live_nodes(),
        c[0],
        c[1],
        c[2],
        c[3],
        ms.n_live_arcs()
    );
    if let Some(s) = query::arc_length_stats(&ms) {
        println!(
            "arc lengths (cells): min {} / median {} / max {} / mean {:.1}",
            s.min, s.median, s.max, s.mean
        );
    }
    for (name, idx) in [("maxima", 3u8), ("minima", 0)] {
        let feats = query::top_k_features(&ms, idx, top);
        if !feats.is_empty() {
            println!("top {name} by prominence:");
            for f in feats {
                println!(
                    "  node {} value {:.4} prominence {}",
                    f.node,
                    f.value,
                    if f.prominence.is_infinite() {
                        "inf".to_string()
                    } else {
                        format!("{:.4}", f.prominence)
                    }
                );
            }
        }
    }
    Ok(())
}

fn cmd_filaments(o: &Opts) -> Result<(), String> {
    let path = o.file()?;
    let block: usize = o.num("block", 0usize)?;
    let threshold: f32 = o
        .req("threshold")?
        .parse()
        .map_err(|_| "bad --threshold".to_string())?;
    let ms = load_block(&path, block)?;
    let arcs = query::filament_subgraph(&ms, threshold);
    let s = query::graph_stats(&ms, &arcs);
    println!(
        "filament network at threshold {threshold}: {} arcs, {} nodes, {} components, {} cycles, total length {} cells",
        s.edges, s.nodes, s.components, s.cycles, s.total_length_cells
    );
    if let Some(cut) = query::min_cut(&ms, &arcs) {
        println!("minimum cut: {cut}");
    }
    Ok(())
}

fn load_seg_block(path: &Path, block: usize) -> Result<BlockSegmentation, String> {
    let footer = read_footer(path)
        .map_err(|e| format!("{}: {e} (run compute with --segment?)", path.display()))?;
    let entry = footer
        .get(block)
        .ok_or_else(|| format!("block {block} out of range ({} seg blocks)", footer.len()))?;
    let payload = read_block_payload(path, entry).map_err(|e| e.to_string())?;
    segwire::deserialize(&payload).map_err(|e| e.to_string())
}

fn cmd_export(o: &Opts) -> Result<(), String> {
    let path = o.file()?;
    let block: usize = o.num("block", 0usize)?;
    let mut did = false;
    if let Some(vtk) = o.opt("vtk") {
        let ms = load_block(&path, block)?;
        export::write_vtk(&ms, Path::new(vtk)).map_err(|e| e.to_string())?;
        println!("wrote {vtk}");
        did = true;
    }
    if let Some(csv) = o.opt("csv") {
        let ms = load_block(&path, block)?;
        export::write_nodes_csv(&ms, Path::new(csv)).map_err(|e| e.to_string())?;
        println!("wrote {csv}");
        did = true;
    }
    if o.opt("labels-vtk").is_some() || o.opt("labels-csv").is_some() {
        let kind = match o.opt("labels").unwrap_or("combined") {
            "descending" => SegKind::Descending,
            "ascending" => SegKind::Ascending,
            "combined" => SegKind::Combined,
            other => {
                return Err(format!(
                    "unknown --labels kind '{other}' (descending|ascending|combined)"
                ))
            }
        };
        let seg_path = match o.opt("seg") {
            Some(p) => PathBuf::from(p),
            None => seg_output_path(&path),
        };
        let seg = load_seg_block(&seg_path, block)?;
        let volume = match kind {
            SegKind::Descending => LabeledVolume::descending(seg.vdims, seg.origin, &seg.min_label),
            SegKind::Ascending => LabeledVolume::ascending(seg.vdims, seg.origin, &seg.max_label),
            SegKind::Combined => LabeledVolume::combined(
                seg.vdims,
                seg.origin,
                &seg.min_label,
                &seg.max_label,
                seg.mins.len() as u32,
            ),
        };
        let mut regions: Vec<i64> = volume.labels.clone();
        regions.sort_unstable();
        regions.dedup();
        println!(
            "block {block} {} labels: {} grid points, {} distinct region(s)",
            kind.key(),
            volume.labels.len(),
            regions.len()
        );
        if let Some(vtk) = o.opt("labels-vtk") {
            export::write_labels_vtk(&volume, Path::new(vtk)).map_err(|e| e.to_string())?;
            println!("wrote {vtk}");
            did = true;
        }
        if let Some(csv) = o.opt("labels-csv") {
            export::write_labels_csv(&volume, Path::new(csv)).map_err(|e| e.to_string())?;
            println!("wrote {csv}");
            did = true;
        }
    }
    if !did {
        return Err("nothing to do: pass --vtk, --csv, --labels-vtk and/or --labels-csv".into());
    }
    Ok(())
}

fn cmd_serve(o: &Opts) -> Result<(), String> {
    if o.positional.is_empty() {
        return Err(
            "serve needs at least one .msc artifact (from a compute run with --hierarchy)".into(),
        );
    }
    let paths: Vec<PathBuf> = o.positional.iter().map(PathBuf::from).collect();
    let names = dataset_names(&paths).map_err(|e| e.to_string())?;
    let mut datasets = Vec::new();
    for (name, path) in names.iter().zip(&paths) {
        let ds = load_dataset(name, path).map_err(|e| e.to_string())?;
        let records: usize = ds
            .hierarchies
            .iter()
            .map(|h| h.difference.len() + h.count.as_ref().map_or(0, |c| c.len()))
            .sum();
        eprintln!(
            "loaded {name}: {} block(s), {} cancellation record(s), segmentation {}",
            ds.bases.len(),
            records,
            if ds.segs.is_empty() { "no" } else { "yes" }
        );
        datasets.push(ds);
    }
    let slow_us: Option<u64> = match o.opt("slow-ms") {
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|ms| *ms >= 0.0 && ms.is_finite())
                .map(|ms| (ms * 1000.0) as u64)
                .ok_or_else(|| format!("bad value for --slow-ms: {v}"))?,
        ),
        None => None,
    };
    let config = ServeConfig {
        cache_capacity: o.num("cache", 32usize)?.max(1),
        slow_us,
    };
    let report_name = match o.opt("report") {
        Some(n) => n.to_string(),
        None => format!("{}_serve", datasets[0].name),
    };
    let core = Arc::new(ServerCore::new(datasets, config));
    let listener = match o.opt("listen") {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            // the bound address, not the requested one: `--listen host:0`
            // asks the OS for a port and this line is how a client learns it
            let bound = listener
                .local_addr()
                .map_err(|e| format!("local address of {addr}: {e}"))?;
            eprintln!(
                "serving on {bound} (send {{\"op\":\"shutdown\"}} or Ctrl-C to stop; \
                 GET /metrics for Prometheus text)"
            );
            Some(listener)
        }
        None => None,
    };
    // The final report must flush exactly once whether the server stops
    // via a shutdown op, stdin EOF, or Ctrl-C — whoever wins the CAS
    // writes it.
    let reported = Arc::new(AtomicBool::new(false));
    sig::install();
    // Ctrl-C: the TCP accept loop polls `is_shutdown`, so there it
    // drains through the same exit path as the shutdown op. Stdin cannot
    // be unblocked from another thread, so on stdio the watcher flushes
    // the report itself and exits with the conventional 128+SIGINT.
    let watcher = {
        let (core, reported) = (Arc::clone(&core), Arc::clone(&reported));
        let (name, stdio) = (report_name.clone(), listener.is_none());
        std::thread::spawn(move || loop {
            if sig::interrupted() {
                if stdio {
                    flush_serve_report(&core, &name, &reported);
                    exit(130);
                }
                core.request_shutdown();
            }
            if core.is_shutdown() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
    };
    let res = match listener {
        Some(listener) => serve_tcp(&core, listener),
        None => serve_session(&core, std::io::stdin().lock(), std::io::stdout().lock()),
    };
    core.request_shutdown(); // unblock the watcher on every exit path
    let _ = watcher.join();
    res.map_err(|e| e.to_string())?;
    flush_serve_report(&core, &report_name, &reported);
    Ok(())
}

/// Build, summarize and persist the serve telemetry report (at most
/// once — the `reported` flag arbitrates between the normal exit path
/// and the Ctrl-C watcher).
fn flush_serve_report(core: &ServerCore, report_name: &str, reported: &AtomicBool) {
    if reported.swap(true, Ordering::SeqCst) {
        return;
    }
    // the report build asserts the per-class quantile invariant
    let report = core.report(report_name);
    eprintln!(
        "serve: {} query(ies), {} hit(s) / {} miss(es) (hit rate {:.2}), {} coalesced, \
         {} error(s); latency self-check ok",
        report.counter_total("serve_queries"),
        report.counter_total("serve_hits"),
        report.counter_total("serve_misses"),
        core.rates().1,
        report.counter_total("serve_coalesced"),
        report.counter_total("serve_errors"),
    );
    match report.write(Path::new("results")) {
        Ok(p) => eprintln!("serve telemetry: {}", p.display()),
        Err(e) => eprintln!("warning: telemetry write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--name` flags in each command's usage section, outside the
    /// parenthesized notes (which name other commands' flags too).
    fn usage_flags() -> HashMap<&'static str, Vec<String>> {
        let mut listed: HashMap<&str, Vec<String>> = HashMap::new();
        let (mut cmd, mut depth) = ("", 0);
        for line in USAGE.lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                cmd = line.split_whitespace().next().unwrap();
            }
            let chars: Vec<char> = line.chars().collect();
            for (i, &c) in chars.iter().enumerate() {
                match c {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    '-' if depth == 0 && chars.get(i + 1) == Some(&'-') => {
                        let name = chars[i + 2..]
                            .iter()
                            .take_while(|c| c.is_ascii_lowercase() || **c == '-');
                        listed.entry(cmd).or_default().push(name.collect());
                    }
                    _ => {}
                }
            }
        }
        listed
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_command_reads_exactly_the_flags_its_usage_lists() {
        let listed = usage_flags();
        for cmd in COMMANDS {
            let mut usage = listed.get(cmd.name).cloned().unwrap_or_default();
            let file = if cmd.args > 0 { "FILE" } else { "" };
            for flag in &usage {
                let switch = cmd.switches.split_whitespace().any(|k| k == flag);
                let value = if switch { "" } else { "1" };
                let line = args(&format!("{file} --{flag} {value}"));
                assert!(parse_opts(cmd, &line).is_ok(), "{} --{flag}", cmd.name);
            }
            usage.sort_unstable();
            usage.dedup();
            let mut known: Vec<&str> = cmd.flags.split_whitespace().collect();
            known.extend(cmd.switches.split_whitespace());
            known.sort_unstable();
            assert_eq!(
                usage, known,
                "{}: usage text and flag list differ",
                cmd.name
            );
        }
    }

    #[test]
    fn an_unknown_flag_is_refused_by_name() {
        let compute = command("compute");
        let n = compute.flags.split_whitespace().count();
        assert_eq!(n + compute.switches.split_whitespace().count(), 17);
        for flag in ["checkpiont", "progress"] {
            let line = args(&format!(
                "--input f.raw --dims 9,9,9 --output f.msc --{flag} 1"
            ));
            assert_eq!(
                parse_opts(compute, &line).err(),
                Some(format!("unknown flag --{flag} for compute"))
            );
        }
        let line = args("--kind noise --size 9 --output f.raw --bogus-flag 3");
        assert!(parse_opts(command("synth"), &line).is_err());
    }

    #[test]
    fn a_stray_argument_or_a_switch_value_is_refused_by_name() {
        let compute = command("compute");
        let base = "--input f.raw --dims 9,9,9 --output f.msc";
        assert_eq!(
            parse_opts(compute, &args(&format!("{base} stray.raw"))).err(),
            Some("unexpected argument 'stray.raw' for compute".to_string())
        );
        assert_eq!(
            parse_opts(compute, &args(&format!("--segment yes {base}"))).err(),
            Some("--segment takes no value (got 'yes')".to_string())
        );
        for ok in ["--segment --check --trace", "--trace t.json --hierarchy"] {
            let o = parse_opts(compute, &args(&format!("{base} {ok}"))).unwrap();
            assert!(o.positional.is_empty() && o.has("trace"), "{ok}");
        }
        assert_eq!(
            parse_opts(command("info"), &args("a.msc b.msc")).err(),
            Some("unexpected argument 'b.msc' for info".to_string())
        );
        let o = parse_opts(command("serve"), &args("a.msc b.msc --cache 4")).unwrap();
        assert_eq!(o.positional, ["a.msc", "b.msc"]);
    }
}
