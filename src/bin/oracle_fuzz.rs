//! Deterministic differential-fuzz harness for the Morse-Smale pipeline.
//!
//! ```text
//! oracle_fuzz --iters 200 --seed 5              # seeded fuzz run
//! oracle_fuzz --iters 200 --seed 5 --dump DIR   # dump failures as .case
//! oracle_fuzz --replay tests/cases              # replay a corpus
//! oracle_fuzz --replay repro.case               # replay one reproducer
//! ```
//!
//! Every generated case runs the full pipeline at a random
//! rank/block/thread/merge-schedule/fault configuration and is diffed
//! against the naive reference oracle plus the invariant checker (see
//! `morse_smale_parallel::fuzz`). Failures shrink to a minimal
//! reproducer before reporting. Exit status is nonzero on any failure.

use morse_smale_parallel::fuzz::{fuzz, replay_path};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    iters: u64,
    seed: u64,
    replay: Option<PathBuf>,
    dump: Option<PathBuf>,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: oracle_fuzz [--iters N] [--seed S] [--dump DIR] [--verbose]\n\
        \x20      oracle_fuzz --replay PATH   (a .case file or a directory of them)"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        iters: 100,
        seed: 5,
        replay: None,
        dump: None,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--iters" => {
                opts.iters = val("--iters").parse().unwrap_or_else(|e| {
                    eprintln!("bad --iters: {e}");
                    usage()
                })
            }
            "--seed" => {
                opts.seed = val("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    usage()
                })
            }
            "--replay" => opts.replay = Some(PathBuf::from(val("--replay"))),
            "--dump" => opts.dump = Some(PathBuf::from(val("--dump"))),
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_opts();

    if let Some(path) = &opts.replay {
        return match replay_path(path) {
            Ok(results) => {
                let mut failed = 0;
                for (name, outcome) in &results {
                    match outcome {
                        Ok(()) => println!("replay {name}: ok"),
                        Err(e) => {
                            failed += 1;
                            println!("replay {name}: FAILED\n  {e}");
                        }
                    }
                }
                println!("replayed {} case(s), {failed} failure(s)", results.len());
                if failed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("replay: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!("fuzzing {} case(s) from seed {} ...", opts.iters, opts.seed);
    match fuzz(opts.iters, opts.seed, |i, case| {
        if opts.verbose {
            println!(
                "[{i}] {} {}x{}x{} blocks={} ranks={} threads={} schedule={} p={}{}",
                case.kind,
                case.dims[0],
                case.dims[1],
                case.dims[2],
                case.blocks,
                case.ranks,
                case.threads,
                case.schedule,
                case.persistence,
                case.fault
                    .as_ref()
                    .map(|f| format!(" fault={f}"))
                    .unwrap_or_default()
            );
        }
    }) {
        Ok(n) => {
            println!("ok: {n} case(s) clean");
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("iteration {} FAILED: {}", f.iteration, f.reason);
            eprintln!("shrunk reproducer:\n{}", f.shrunk);
            eprintln!("shrunk failure: {}", f.shrunk_reason);
            if let Some(dir) = &opts.dump {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                } else {
                    let path = dir.join(format!("fail-seed{}-iter{}.case", opts.seed, f.iteration));
                    match std::fs::write(&path, f.shrunk.to_string()) {
                        Ok(()) => eprintln!("reproducer written to {}", path.display()),
                        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}
