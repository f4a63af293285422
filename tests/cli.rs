//! The `msc` binary end to end, for what only the command line reaches.
//! Each test runs in a temp directory of its own (`msc compute` writes
//! `results/` under its working directory), removed afterwards.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use std::{fs, io::Write, path::PathBuf};

/// A run that could hang is killed after this long and fails its test.
const HANG: Duration = Duration::from_secs(10);
/// Any other run: generous on a loaded host, but never forever.
const SLOW: Duration = Duration::from_secs(300);
/// `msc compute` on the 17³ noise field of [`noise17`].
const SEG: &str = "compute --input seg.raw --dims 17,17,17";
/// The three artifacts of a `--segment`/`--hierarchy` run.
const ALL: &[&str] = &["", ".seg", ".msh"];

/// One test's working directory, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(test: &str) -> Dir {
        let dir = std::env::temp_dir().join(format!("msc_cli_{}_{test}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// `msc ARGS` with `stdin`, failed past `limit`: its exit code
    /// (`None` if a signal ended it), stdout and stderr.
    fn run(&self, args: &str, stdin: &[u8], limit: Duration) -> (Option<i32>, String, String) {
        let (out, err) = (self.path(".stdout"), self.path(".stderr"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_msc"))
            .args(args.split_whitespace())
            .current_dir(&self.0)
            .stdin(Stdio::piped())
            .stdout(fs::File::create(&out).unwrap())
            .stderr(fs::File::create(&err).unwrap())
            .spawn()
            .unwrap();
        // a session that stops at `quit` may close its end before the rest
        child.stdin.take().unwrap().write_all(stdin).ok();
        let start = Instant::now();
        while child.try_wait().unwrap().is_none() {
            if start.elapsed() > limit {
                child.kill().and_then(|_| child.wait()).ok();
                panic!("msc {args}: still running after {limit:?}");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let read = |p| fs::read_to_string(p).unwrap();
        (child.wait().unwrap().code(), read(out), read(err))
    }

    /// `msc ARGS`, which must exit 0; its stdout.
    fn ok(&self, args: &str) -> String {
        let (code, out, err) = self.run(args, b"", SLOW);
        assert_eq!(code, Some(0), "msc {args}:\n{out}{err}");
        out
    }

    /// `msc ARGS` must exit 1 (not 101, a panic, nor by a signal) within
    /// [`HANG`], with a stderr line that starts with `error`.
    fn fails(&self, args: &str, error: &str) {
        let (code, out, err) = self.run(args, b"", HANG);
        assert_eq!(code, Some(1), "msc {args}:\n{out}{err}");
        let found = err.lines().any(|l| l.starts_with(error));
        assert!(found, "msc {args}: no '{error}' in\n{err}");
    }

    /// The artifacts `exts` of outputs `a` and `b` hold the same bytes.
    fn same(&self, a: &str, b: &str, exts: &[&str]) {
        for ext in exts {
            let read = |f: &str| fs::read(self.path(&format!("{f}{ext}"))).unwrap();
            assert!(read(a) == read(b), "{a}{ext} and {b}{ext} differ");
        }
    }

    /// `msc ARGS V` writes the same artifacts at V = 1 and V = `n`.
    fn same_at(&self, args: &str, n: u32, exts: &[&str]) {
        for v in [1, n] {
            self.ok(&format!("{args} {v} --output v{v}.msc"));
        }
        self.same("v1.msc", &format!("v{n}.msc"), exts);
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

fn noise17(test: &str) -> Dir {
    let d = Dir::new(test);
    d.ok("synth --kind noise --size 17 --seed 9 --output seg.raw");
    d
}

/// A file read by every decomposition mode writes the 1-rank bytes, as
/// do a mixed hand-off and ship merge (8 blocks on 3 ranks) and remote
/// glue (one block per rank); a traced run has one trace track per rank
/// and one report over all of them. `--segment` labels export.
#[test]
fn file_input_on_every_decomposition_writes_the_one_rank_bytes() {
    let d = noise17("decomp");
    d.same_at(&format!("{SEG} --blocks 6 --merge 2 --ranks"), 3, &[""]);
    let mixed = format!("{SEG} --blocks 8 --merge 2,2,2 --check --ranks");
    d.same_at(&mixed, 3, &[""]);
    let remote = format!("{SEG} --blocks 4 --merge 2,2 --check --ranks");
    d.same_at(&remote, 4, &[""]);
    let rnd = "--blocks 7 --decomp random:5 --merge full --hierarchy --check";
    d.same_at(&format!("{SEG} {rnd} --ranks"), 3, ALL);
    let irr = format!("{SEG} --blocks 6 --decomp adaptive --merge full --hierarchy");
    d.ok(&format!("{irr} --ranks 1 --check --output irr1.msc"));
    let traced = format!("{irr} --ranks 3 --trace irr3.json --output irr3.msc");
    d.ok(&traced);
    d.same("irr1.msc", "irr3.msc", ALL);
    let trace = fs::read_to_string(d.path("irr3.json")).unwrap();
    let tracks = trace.lines().filter(|l| l.contains("\"thread_name\""));
    assert_eq!(tracks.count(), 3);
    let report = fs::read_to_string(d.path("results/irr3.telemetry.json")).unwrap();
    assert!(report.contains("\"n_ranks\": 3"));
    let seg = "--ranks 4 --blocks 8 --merge full --segment --check --output seg4.msc";
    d.ok(&format!("{SEG} {seg}"));
    d.ok("export seg4.msc --labels combined --labels-vtk labels.vtk --labels-csv labels.csv");
}

/// f64 and u8 files (u8 quantizes the jet to a plateau) decode plane by
/// plane on irregular boxes. A block's trace chunks its critical cells
/// across threads. Adaptive blocks replay many block-surface lower stars
/// through the star memo. Each writes the 1-rank, 1-thread `.msc`.
#[test]
fn dtypes_threads_and_memoized_stars_write_the_one_rank_bytes() {
    let d = Dir::new("fields");
    let jet = "compute --input jet.raw --dims 33,38,22 --blocks 6 --decomp adaptive";
    for dt in ["f64", "u8"] {
        let synth = format!("synth --kind jet --size 33 --dtype {dt} --output jet.raw");
        d.ok(&synth);
        let run = format!("{jet} --dtype {dt} --merge full --check --ranks");
        d.same_at(&run, 3, &[""]);
    }
    d.ok("synth --kind sinusoid --size 33 --output sin.raw");
    let sin = "compute --input sin.raw --dims 33,33,33 --merge full --check";
    d.same_at(&format!("{sin} --ranks 1 --blocks 2 --threads"), 3, &[""]);
    let memo = format!("{sin} --blocks 6 --decomp adaptive --ranks");
    d.same_at(&memo, 3, &[""]);
}

/// Losing rank 1's one ship to root 0, or holding it back four deadlines,
/// costs one retry and one replayed round and writes the fault-free
/// bytes. An injected panic is never recovered: exit 1, naming the rank.
#[test]
fn ship_faults_recover_and_a_panic_exits_1() {
    let d = noise17("faults");
    let ship = format!("{SEG} --ranks 2 --blocks 2 --merge full");
    d.ok(&format!("{ship} --output ship2.msc"));
    for f in ["drop:1->0#1", "delay:1->0#1+1200"] {
        let out = d.ok(&format!("{ship} --deadline-ms 300 --faults {f} --output f"));
        assert!(out.contains("1 retry(ies), 1 round(s) replayed"), "{out}");
        d.same("ship2.msc", "f", &[""]);
    }
    let run = "--ranks 4 --blocks 8 --merge 2,2 --checkpoint --faults panic:1@1";
    let run = format!("{SEG} {run} --output panic.msc");
    d.fails(&run, "error: rank 1 panicked");
}

/// POSIX `cksum` of `bytes`: its CRC and byte count.
fn cksum(bytes: &[u8]) -> String {
    let n = (usize::BITS - bytes.len().leading_zeros()).div_ceil(8) as usize;
    let mut crc = 0u32;
    for &b in bytes.iter().chain(&bytes.len().to_le_bytes()[..n]) {
        crc ^= u32::from(b) << 24;
        for _ in 0..8 {
            crc = (crc << 1) ^ if crc >> 31 == 1 { 0x04C1_1DB7 } else { 0 };
        }
    }
    format!("{} {}", !crc, bytes.len())
}

/// The lines of `text` that contain `pat`, each ending in a newline.
fn grep(text: &str, pat: &str) -> String {
    let lines = text.lines().filter(|l| l.contains(pat));
    lines.map(|l| format!("{l}\n")).collect()
}

/// The object keys in `text` in order, one `"key":` a line, as
/// `grep -o '"\([^"\\]\|\\.\)*":'` lists them.
fn keys(text: &str) -> String {
    let mut keys = String::new();
    for line in text.lines() {
        let (b, mut i) = (line.as_bytes(), 0);
        while i < b.len() {
            let mut j = i + 1;
            while b[i] == b'"' && j < b.len() && b[j] != b'"' {
                j += 1 + (b[j] == b'\\') as usize;
            }
            let key = b[i] == b'"' && b.get(j + 1) == Some(&b':');
            if key {
                keys += &format!("{}\n", &line[i..j + 2]);
            }
            i = if key { j + 2 } else { i + 1 };
        }
    }
    keys
}

/// Repeated keys, arc geometry, and thresholds that extend cached ones.
const SESSION: &str = r#"{"op":"datasets"}
{"op":"threshold","t":0.2}
{"op":"threshold","t":0.2}
{"op":"threshold","t":40,"ordering":"count"}
{"op":"threshold","t":400,"ordering":"count"}
{"op":"extrema","t":0.2,"top":3}
{"op":"segment-stats","t":0.2}
{"op":"arc-geometry","t":0.2,"arc":0}
{"op":"arc-geometry","t":0.2,"arc":1}
{"op":"arc-geometry","t":0.2,"arc":2}
{"op":"arc-geometry","t":0.2,"arc":3}
{"op":"threshold","t":0.4}
{"op":"arc-geometry","t":0.7,"arc":196}
{"op":"stats"}
{"op":"metrics"}
{"op":"health"}
{"op":"quit"}
{"op":"ping"}
"#;

/// `msc serve` answers [`SESSION`] all ok and stops at quit. The reply
/// for arc 196 (138 cells through nested cancellation splices) and the
/// ordered keys of the stats and metrics replies are pinned. A request
/// nested 10,000 deep gets an error and the session goes on; two
/// datasets both named `x` are refused.
#[test]
fn serve_and_the_read_only_commands_answer_on_one_artifact() {
    let d = noise17("serve");
    let run = "--ranks 2 --blocks 8 --merge full --hierarchy --check";
    d.ok(&format!("{SEG} {run} --output serve.msc"));
    let (code, out, err) = d.run("serve serve.msc", SESSION.as_bytes(), HANG);
    assert_eq!(code, Some(0), "{err}");
    assert!(!out.contains(r#""ok":false"#), "an error reply:\n{out}");
    assert_eq!(out.matches('\n').count(), 17, "17 replies:\n{out}");
    let arc196 = grep(&out, r#""arc":196"#);
    assert_eq!(cksum(arc196.as_bytes()), "1381296253 1009");
    let op_keys = |op: &str| cksum(keys(&grep(&out, &format!(r#""op":"{op}""#))).as_bytes());
    assert_eq!(op_keys("stats"), "3292100479 328");
    assert_eq!(op_keys("metrics"), "3108883139 1253");
    let hits = out.rfind(r#""hits":"#).map_or("", |i| &out[i + 7..]);
    let hits: String = hits.chars().take_while(char::is_ascii_digit).collect();
    assert!(hits.parse().unwrap_or(0) > 0, "no cache hit:\n{out}");
    assert!(err.contains("latency self-check ok"), "{err}");

    let deep = format!("{}\n{{\"op\":\"ping\"}}\n", "[".repeat(10_000));
    let (code, out, err) = d.run("serve serve.msc", deep.as_bytes(), HANG);
    assert_eq!(code, Some(0), "killed by the nested request:\n{err}");
    assert_eq!(out.matches('\n').count(), 2, "{out}");
    assert!(out.lines().next().unwrap().contains(r#""ok":false"#));

    d.ok("info serve.msc");
    d.ok("stats serve.msc --block 0 --top 3");
    d.ok("filaments serve.msc --block 0 --threshold 0.5");
    for dir in ["a", "b"] {
        fs::create_dir(d.path(dir)).unwrap();
        for ext in ALL {
            let to = d.path(&format!("{dir}/x.msc{ext}"));
            fs::copy(d.path(&format!("serve.msc{ext}")), to).unwrap();
        }
    }
    let twice = r#"error: two datasets named "x""#;
    d.fails("serve a/x.msc b/x.msc", twice);
}

/// An unknown flag, a stray argument, a value after a switch and every
/// invalid layout (no power-of-two block count under `--merge full`, a
/// radix outside {2, 4, 8}, more than 2^31 blocks or than 16³ cells)
/// exit 1 by name, never panic.
#[test]
fn bad_flags_and_invalid_layouts_exit_1_by_name() {
    let d = noise17("refused");
    let compute = format!("{SEG} --output bad.msc");
    let refused = [
        (
            format!("{compute} --progress 1"),
            "unknown flag --progress for compute",
        ),
        (
            format!("{compute} --checkpiont 1"),
            "unknown flag --checkpiont for compute",
        ),
        (
            format!("{compute} stray.raw"),
            "unexpected argument 'stray.raw' for compute",
        ),
        (
            format!("{compute} --segment yes"),
            "--segment takes no value (got 'yes')",
        ),
        (
            "synth --kind noise --size 9 --output f.raw --bogus-flag 3".into(),
            "unknown flag --bogus-flag for synth",
        ),
        (
            "info a.msc b.msc".into(),
            "unexpected argument 'b.msc' for info",
        ),
    ];
    for (run, error) in &refused {
        d.fails(run, &format!("error: {error}"));
    }
    let layouts = "6; 8 --merge 1; 8 --merge 3; 8 --merge 16; 8 --decomp adaptive --merge 3; \
        3000000000; 3000000000 --decomp adaptive; 5000 --merge none";
    for layout in layouts.split("; ") {
        let run = format!("{SEG} --ranks 2 --blocks {layout} --output l.msc");
        d.fails(&run, "error: invalid pipeline config");
    }
}

/// Each `(n, v)` of `fields` as `n` little-endian bytes.
fn le(fields: &[(usize, u64)]) -> Vec<u8> {
    let bytes = fields.iter().map(|&(n, v)| v.to_le_bytes()[..n].to_vec());
    bytes.flatten().collect()
}

/// An MSPF footer body of one entry: `len` payload bytes at offset 0.
fn one_entry(len: u64) -> Vec<u8> {
    le(&[(4, 1), (8, 0), (8, len), (4, 0), (8, 24)])
}

/// A one-entry `.msc` whose MSC3 payload holds member 0 on a 9³ refined
/// grid, two nodes and one arc 1 -> 0 whose geometry is the record
/// `root` of `records` (`n` of them).
fn geometry_file(n: u64, records: &[u8], root: u64) -> Vec<u8> {
    let mut msc = b"MSC3".to_vec();
    msc.extend(le(&[(8, 9), (8, 9), (8, 9), (4, 1), (4, 0)]));
    msc.extend(le(&[(4, 2), (8, 0), (4, 0), (2, 0)]));
    msc.extend(le(&[(8, 1), (4, 0x3f80_0000), (2, 1), (4, n)]));
    msc.extend(records);
    msc.extend(le(&[(4, 1), (2, 2)]));
    // the root record's index, as unsigned LEB128
    let mut v = root;
    while v >= 128 {
        msc.push((v & 127) as u8 | 128);
        v >>= 7;
    }
    msc.push(v as u8);
    msc.extend(one_entry(msc.len() as u64));
    msc.extend(b"MSPF");
    msc
}

/// A lying MSPF footer exits 1. A two-cell leaf under 200,000 levels of
/// (empty leaf, cancel(that leaf, the level below, that leaf)) is walked
/// with exit 0, never a stack overflow. An empty leaf under 30 levels of
/// cancel(g, g, g) would walk 3^30 records: `stats` refuses it at once.
#[test]
fn hostile_files_are_refused_or_walked_without_a_crash() {
    let d = Dir::new("hostile");
    let hostile = [
        le(&[(4, 5), (8, 4)]),           // 5 entries, 4-byte body
        le(&[(8, 0)]),                   // empty body
        le(&[(8, 5u64.wrapping_neg())]), // body_len 2^64 - 5
        one_entry(1 << 40),              // entry len 2^40
        le(&[(4, 0xffff_ffff), (8, 4)]), // count 2^32 - 1
    ];
    for (i, footer) in hostile.iter().enumerate() {
        let name = format!("hostile{i}.msc");
        fs::write(d.path(&name), [b"payload!", &footer[..], b"MSPF"].concat()).unwrap();
        d.fails(&format!("info {name}"), "error: ");
    }

    let levels = 200_000;
    let mut deep = le(&[(4, 9)]);
    deep.extend([0, 2, 2, 0]);
    deep.extend([0, 0, 1, 0, 1, 0].repeat(levels));
    let file = geometry_file(2 * levels as u64 + 1, &deep, 4 * levels as u64);
    fs::write(d.path("deep.msc"), file).unwrap();
    let out = d.ok("stats deep.msc --block 0");
    assert!(out.contains("min 2 / median 2 / max 2"), "{out}");
    d.ok("export deep.msc --vtk deep.vtk");

    let levels = 30;
    let mut zero = le(&[(4, 0), (2, 0)]);
    zero.extend([1, 0, 0, 0].repeat(levels));
    let file = geometry_file(levels as u64 + 1, &zero, 2 * levels as u64);
    fs::write(d.path("zero.msc"), file).unwrap();
    let (code, _, err) = d.run("stats zero.msc --block 0", b"", HANG);
    assert_eq!(code, Some(1), "{err}");
    let refused = |l: &str| l.starts_with("error: ") && l.contains("walks more records");
    assert!(err.lines().any(refused), "{err}");
}
