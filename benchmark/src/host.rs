//! What the benchmark records about the machine it runs on.

use std::process::Command;
use std::time::Instant;

/// Worker threads the program may use: `min(nproc, 4)`, so results from
/// hosts with many cores stay comparable with the 2–4 core sandboxes.
pub fn jobs() -> usize {
    nproc().min(4)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The calibration cell: a fixed integer + floating-point spin with no
/// repository code in it. Its time moves with the host (frequency, steal,
/// a busy neighbour), never with a commit, so a run whose two calibrations
/// disagree was measured on a machine that changed under it.
pub fn calib_spin_ms() -> f64 {
    const ITERS: u64 = 8_000_000;
    let spin = || {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 1.0f64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999_999_9 + (x & 0xff) as f64 * 1e-9;
        }
        std::hint::black_box((x, acc));
        start.elapsed().as_secs_f64() * 1e3
    };
    // The median of five short spins: one preempted spin must not mark
    // the whole run noisy.
    crate::stats::median(&[spin(), spin(), spin(), spin(), spin()])
}

/// One `Key: value kB` line of `/proc/self/status`, in megabytes.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").expect("/proc/self/status has no VmHWM line")
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used, from `/proc/self/stat`. The kernel reports them in
/// `USER_HZ` ticks, which Linux fixes at 100 on every architecture.
pub fn cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Field 2 (comm) may contain spaces; fields 14 and 15 follow its ')'.
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("utime/stime");
    (ticks() + ticks()) / USER_HZ
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown` (the driver's
/// checkout is not a git repository, and a host may lack `rustc`).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// `git rev-parse HEAD` of the checkout the benchmark runs in.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
