//! The untraced run: every number comes from `msc` child processes.
//!
//! Compute workloads follow a fixed interleaved schedule of `setup`
//! (`msc synth`), `wall` (2 ranks), `serial` (1 rank) and `ckpt`
//! (2 ranks + `--checkpoint`) runs; `serve_mix` drives one `msc serve`
//! child over one TCP connection in a closed loop. Correctness is part
//! of every operation: outputs must be byte-identical to the run's
//! first serial output, and every reply byte-equal to what
//! `ServerCore::handle_line` answers in-process on the same artifacts.

use crate::child::{self, ChildCost, Spawned};
use crate::host::HostProbe;
use crate::report::{Ctx, Metric, Outcome};
use crate::script::{self, Request};
use crate::stats::{percentile, samples_beyond, Stat};
use crate::workload::{Kind, Op, Workload, RANKS, SERVE_CACHE, SERVE_SETUPS};
use morse_smale_parallel::core::{load_dataset, ServeConfig, ServerCore};
use morse_smale_parallel::grid::par::{available_threads, par_map};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The per-workload scratch directory. Children run with it as cwd
/// (`msc compute` writes `results/<stem>.telemetry.json` relative to
/// cwd and must not litter the repository's `results/`); it is removed
/// when the run ends, however it ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(ctx: &Ctx, name: &str) -> io::Result<WorkDir> {
        let dir = ctx.target.join("work").join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir.canonicalize()?))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(w: &'static Workload, seed: u64, seconds: u32, ctx: &Ctx) -> io::Result<Outcome> {
    let work = WorkDir::create(ctx, w.name)?;
    match w.kind {
        Kind::Compute => run_compute(w, seed, seconds, ctx, &work.0),
        Kind::Serve => run_serve(w, seed, seconds, ctx, &work.0),
    }
}

fn msc(ctx: &Ctx, args: &[String], work: &Path, log: &str) -> io::Result<ChildCost> {
    child::run(&ctx.msc, args, work, &work.join(log))
}

/// Rename one compute run's artifacts from one `--output` stem to another.
fn rename_outputs(w: &Workload, work: &Path, from: &str, to: &str) -> io::Result<()> {
    for s in w.artifact_suffixes() {
        std::fs::rename(
            work.join(format!("{from}{s}")),
            work.join(format!("{to}{s}")),
        )?;
    }
    Ok(())
}

/// First artifact of `stem` that differs from the reference, with the
/// offset of the first differing byte.
fn mismatch(w: &Workload, work: &Path, stem: &str) -> io::Result<Option<(String, u64)>> {
    for s in w.artifact_suffixes() {
        let (a, b) = (
            work.join(format!("{stem}{s}")),
            work.join(format!("ref.msc{s}")),
        );
        if let Some(at) = child::first_difference(&a, &b)? {
            return Ok(Some((format!("{stem}{s}"), at)));
        }
    }
    Ok(None)
}

fn run_compute(
    w: &'static Workload,
    seed: u64,
    seconds: u32,
    ctx: &Ctx,
    work: &Path,
) -> io::Result<Outcome> {
    let mut host = HostProbe::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // the schedule; a sample is kept only once its outputs are verified
    let ops = w.schedule(w.rounds(seconds));
    let mut samples: Vec<(Op, ChildCost)> = Vec::new();
    // outputs produced before the first serial run, verified once it exists
    let mut early: Vec<(String, (Op, ChildCost))> = Vec::new();
    let mut have_ref = false;
    let check = |stem: &str, failed: &mut u64| -> io::Result<bool> {
        match mismatch(w, work, stem)? {
            None => Ok(true),
            Some((file, at)) => {
                *failed += 1;
                println!("FAILED: {file} differs from the reference at byte {at}");
                Ok(false)
            }
        }
    };
    for (i, &op) in ops.iter().enumerate() {
        let (ranks, ckpt) = match op {
            Op::Setup => {
                // one unit of user-visible preparation: the same bytes every time
                let c = msc(ctx, &w.synth_args(seed, "input.raw"), work, "synth.log")?;
                attempted += 1;
                if c.success {
                    samples.push((op, c));
                } else {
                    failed += 1;
                    println!("FAILED: msc synth exited non-zero (see synth.log)");
                }
                host.tick();
                continue;
            }
            Op::Wall => (RANKS, false),
            Op::Serial => (1, false),
            Op::Ckpt => (RANKS, true),
        };
        let c = msc(
            ctx,
            &w.compute_args(ranks, ckpt, "input.raw", "cur.msc"),
            work,
            "compute.log",
        )?;
        attempted += 1;
        if !c.success {
            failed += 1;
            println!("FAILED: msc compute ({op:?}) exited non-zero (see compute.log)");
        } else if have_ref {
            if check("cur.msc", &mut failed)? {
                samples.push((op, c));
            }
        } else if op == Op::Serial {
            rename_outputs(w, work, "cur.msc", "ref.msc")?;
            have_ref = true;
            samples.push((op, c));
            for (stem, sample) in early.drain(..) {
                if check(&stem, &mut failed)? {
                    samples.push(sample);
                }
            }
        } else {
            let stem = format!("early{i}.msc");
            rename_outputs(w, work, "cur.msc", &stem)?;
            early.push((stem, (op, c)));
        }
        host.tick();
    }
    if !have_ref {
        return Err(other(
            "no serial run succeeded: nothing to verify against".into(),
        ));
    }

    let of = |op: Op, f: fn(&ChildCost) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|(_, c)| f(c))
            .collect()
    };
    if of(Op::Wall, |c| c.wall_s).is_empty() || of(Op::Setup, |c| c.wall_s).is_empty() {
        return Err(other("no set-up or no 2-rank run produced a sample".into()));
    }
    let mut artifact_bytes = 0u64;
    for s in w.artifact_suffixes() {
        artifact_bytes += std::fs::metadata(work.join(format!("ref.msc{s}")))?.len();
    }
    let mut metrics = vec![Metric::new(
        "setup_s",
        Stat::median_of(&of(Op::Setup, |c| c.wall_s)),
    )];
    for (name, xs) in [
        ("wall_s", of(Op::Wall, |c| c.wall_s)),
        ("serial_wall_s", of(Op::Serial, |c| c.wall_s)),
        ("ckpt_wall_s", of(Op::Ckpt, |c| c.wall_s)),
        ("cpu_s", of(Op::Wall, |c| c.cpu_s)),
    ] {
        if !xs.is_empty() {
            metrics.push(Metric::new(name, Stat::mean_of(&xs)));
        }
    }
    metrics.push(Metric::new(
        "peak_rss_mb",
        Stat::median_of(&of(Op::Wall, |c| c.peak_rss_mb)),
    ));
    metrics.push(Metric::new(
        "artifact_mb",
        Stat::exact(artifact_bytes as f64 / MIB),
    ));
    Ok(Outcome {
        workload: w.name,
        seed,
        seconds,
        trace: false,
        attempted,
        failed,
        metrics,
        host: host.to_json(),
    })
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Kills and reaps its child unless it was waited for: no error path
/// leaves a process behind.
struct ChildGuard(Option<Spawned>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(c) = self.0.take() {
            // SAFETY: kill(2) has no memory preconditions; the pid is a
            // child of this process that has not been reaped yet.
            unsafe { kill(c.pid() as i32, 9) };
            let _ = c.wait();
        }
    }
}

/// A running `msc serve` child and the one connection to it.
pub struct Server {
    child: ChildGuard,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Server {
    /// Start `msc serve <artifact>` and return once a `ping` is answered.
    ///
    /// `msc serve --listen 127.0.0.1:0` echoes the requested address,
    /// not the bound port, so a free port is reserved here first. The
    /// client sets `TCP_NODELAY` and sends each request line in one
    /// write, so any per-reply delay left is the server's own.
    pub fn start(ctx: &Ctx, work: &Path, artifact: &str) -> io::Result<Server> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let args: Vec<String> = [
            "serve",
            artifact,
            "--listen",
            &addr,
            "--cache",
            &SERVE_CACHE.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let child = ChildGuard(Some(child::spawn(
            &ctx.msc,
            &args,
            work,
            &work.join("serve.log"),
        )?));
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => {
                    return Err(other(format!("msc serve never listened on {addr}: {e}")));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut server = Server {
            child,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let pong = server.request("{\"op\":\"ping\"}")?;
        if !pong.contains("\"ok\":true") {
            return Err(other(format!("msc serve answered ping with {pong}")));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.0.as_ref().expect("running").pid()
    }

    /// One closed-loop exchange: the reply line, newline included.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(other("msc serve closed the connection".into()));
        }
        Ok(reply)
    }

    /// Ask the server to stop and wait until the process has ended.
    pub fn shutdown(mut self) -> io::Result<ChildCost> {
        self.request("{\"op\":\"shutdown\"}")?;
        self.child.0.take().expect("running").wait()
    }
}

/// What one timed pass over the script measured.
pub struct Pass {
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
    pub replies: Vec<String>,
}

pub fn drive_pass(server: &mut Server, pass: &[Request]) -> io::Result<Pass> {
    let mut latencies_ms = Vec::with_capacity(pass.len());
    let mut replies = Vec::with_capacity(pass.len());
    let t0 = Instant::now();
    for r in pass {
        let t = Instant::now();
        replies.push(server.request(&r.line)?);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        latencies_ms,
        replies,
    })
}

fn run_serve(
    w: &'static Workload,
    seed: u64,
    seconds: u32,
    ctx: &Ctx,
    work: &Path,
) -> io::Result<Outcome> {
    let mut host = HostProbe::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let script = script::generate(seed, w.rounds(seconds));

    // set-up: synth + the compute that writes the artifacts + server
    // start until the first ping is answered; the last unit's server is
    // the one measured
    let mut setup = Vec::new();
    let mut server = None;
    for i in 0..SERVE_SETUPS {
        let t0 = Instant::now();
        let synth = msc(ctx, &w.synth_args(seed, "input.raw"), work, "synth.log")?;
        let compute = msc(
            ctx,
            &w.compute_args(RANKS, false, "input.raw", "served.msc"),
            work,
            "compute.log",
        )?;
        attempted += 1;
        if !(synth.success && compute.success) {
            failed += 1;
            println!("FAILED: set-up unit {i} (see synth.log, compute.log)");
            continue;
        }
        let s = Server::start(ctx, work, "served.msc")?;
        setup.push(t0.elapsed().as_secs_f64());
        if i + 1 < SERVE_SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
        host.tick();
    }
    let mut server = server.ok_or_else(|| other("the last set-up unit failed".into()))?;
    let pid = server.pid();

    // untimed warm-up fills the hot set, then the timed passes
    let mut sent: Vec<(&Request, String)> = Vec::new();
    for r in &script.warmup {
        sent.push((r, server.request(&r.line)?));
    }
    let (mut walls, mut cpus, mut p50s, mut p95s, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for pass in &script.passes {
        debug_assert!(samples_beyond(pass.len(), 95) >= 10);
        let cpu0 = child::proc_cpu_s(pid)?;
        let p = drive_pass(&mut server, pass)?;
        cpus.push(child::proc_cpu_s(pid)? - cpu0);
        walls.push(p.wall_s);
        p50s.push(percentile(&p.latencies_ms, 50));
        p95s.push(percentile(&p.latencies_ms, 95));
        bytes.push(p.replies.iter().map(|r| r.len()).sum::<usize>() as f64 / MIB);
        sent.extend(pass.iter().zip(p.replies));
        host.tick();
    }
    let peak_rss_mb = child::proc_peak_rss_mb(pid)?;
    server.shutdown()?;

    // every reply must be ok and byte-equal to the in-process answer
    let dataset =
        load_dataset("served", &work.join("served.msc")).map_err(|e| other(e.to_string()))?;
    let core = ServerCore::new(
        vec![dataset],
        ServeConfig {
            cache_capacity: SERVE_CACHE,
            ..ServeConfig::default()
        },
    );
    // (on every CPU: the 68 distinct thresholds are 68 replays)
    let verdicts: Vec<Option<String>> = par_map(available_threads(), &sent, |_, (r, reply)| {
        let expect = core.handle_line(&r.line).0 + "\n";
        if let Some(at) = child::first_difference_bytes(reply.as_bytes(), expect.as_bytes()) {
            Some(format!(
                "reply to {} differs from handle_line at byte {at}",
                r.line
            ))
        } else if !reply.contains("\"ok\":true") {
            Some(format!("{} answered {}", r.line, reply.trim_end()))
        } else {
            None
        }
    });
    attempted += sent.len() as u64;
    for why in verdicts.into_iter().flatten() {
        failed += 1;
        println!("FAILED: {why}");
    }

    // one value per pass; the mean across passes is what is compared
    let mut metrics = Vec::new();
    if !setup.is_empty() {
        metrics.push(Metric::new("setup_s", Stat::median_of(&setup)));
    }
    metrics.push(Metric::new("wall_s", Stat::mean_of(&walls)));
    metrics.push(Metric::new("cpu_s", Stat::mean_of(&cpus)));
    metrics.push(Metric::new("peak_rss_mb", Stat::exact(peak_rss_mb)));
    metrics.push(Metric::new("artifact_mb", Stat::median_of(&bytes)));
    metrics.push(Metric::new("p50_ms", Stat::mean_of(&p50s)));
    metrics.push(Metric::new("p95_ms", Stat::mean_of(&p95s)));
    Ok(Outcome {
        workload: w.name,
        seed,
        seconds,
        trace: false,
        attempted,
        failed,
        metrics,
        host: host.to_json(),
    })
}
