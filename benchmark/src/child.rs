//! Child processes, the way a user meets the system: the `msc` binary
//! run as a process for every end-to-end number, reaped with `wait4` so
//! its CPU time and peak memory come from the kernel's own accounting.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildCost {
    /// Spawn to exit.
    pub wall_s: f64,
    /// User + system CPU time.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
}

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Block until `pid` exits; its exit status and resource usage.
fn reap(pid: u32) -> io::Result<(i32, RUsage)> {
    let mut status = 0i32;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // wait4(2) expects on 64-bit Linux; `pid` is a child this
        // process spawned and has not reaped.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if r == pid as i32 {
            return Ok((status, ru));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

fn cost(t0: Instant, status: i32, ru: &RUsage) -> ChildCost {
    let tv = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    ChildCost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: tv(&ru.utime) + tv(&ru.stime),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        // exited (low 7 bits clear) with code 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    }
}

/// A spawned child that is reaped exactly once, by [`Spawned::wait`].
pub struct Spawned {
    pid: u32,
    t0: Instant,
}

/// Start `program args...` in `cwd`; stdout and stderr go to `log`.
pub fn spawn(program: &Path, args: &[String], cwd: &Path, log: &Path) -> io::Result<Spawned> {
    let out = File::create(log)?;
    let err = out.try_clone()?;
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()?;
    // The `Child` handle is dropped unreaped on purpose: std neither
    // waits nor kills on drop, and `wait4` below must be the one reaper.
    Ok(Spawned {
        pid: child.id(),
        t0,
    })
}

impl Spawned {
    pub fn pid(&self) -> u32 {
        self.pid
    }

    pub fn wait(self) -> io::Result<ChildCost> {
        let (status, ru) = reap(self.pid)?;
        Ok(cost(self.t0, status, &ru))
    }
}

/// Run a child to completion.
pub fn run(program: &Path, args: &[String], cwd: &Path, log: &Path) -> io::Result<ChildCost> {
    spawn(program, args, cwd, log)?.wait()
}

/// User + system CPU seconds a live process has used so far.
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
    let (Some(u), Some(s)) = (ticks(11), ticks(12)) else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"));
    };
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Ok((u + s) / if hz > 0 { hz as f64 } else { 100.0 })
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Offset of the first byte at which two files differ (a length
/// difference counts at the shorter length); `None` when identical.
pub fn first_difference(a: &Path, b: &Path) -> io::Result<Option<u64>> {
    let (a, b) = (std::fs::read(a)?, std::fs::read(b)?);
    Ok(first_difference_bytes(&a, &b))
}

pub fn first_difference_bytes(a: &[u8], b: &[u8]) -> Option<u64> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(at) => Some(at as u64),
        None if a.len() != b.len() => Some(a.len().min(b.len()) as u64),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_reports_offset_or_length() {
        assert_eq!(first_difference_bytes(b"abc", b"abc"), None);
        assert_eq!(first_difference_bytes(b"abc", b"abd"), Some(2));
        assert_eq!(first_difference_bytes(b"abc", b"ab"), Some(2));
        assert_eq!(first_difference_bytes(b"", b""), None);
    }

    #[test]
    fn child_cost_comes_from_the_kernel() {
        // tests run from the repository root (run.sh) or from this package
        let target = if Path::new("benchmark/src").exists() {
            "benchmark/target"
        } else {
            "target"
        };
        let dir = Path::new(target).join("test-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("child.log");
        let ok = run(
            Path::new("/bin/sh"),
            &["-c".into(), "exit 0".into()],
            &dir,
            &log,
        )
        .unwrap();
        assert!(ok.success && ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0);
        let bad = run(
            Path::new("/bin/sh"),
            &["-c".into(), "exit 3".into()],
            &dir,
            &log,
        )
        .unwrap();
        assert!(!bad.success);
        std::fs::remove_file(&log).ok();
        assert!(proc_cpu_s(std::process::id()).unwrap() >= 0.0);
        assert!(proc_peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
