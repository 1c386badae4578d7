//! What the five workloads share: the run context, the pass and set-up
//! loops, the correctness tally and the seeded shuffle.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Values;
use crate::trace::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Passes every run times at least, however slow the host.
pub const MIN_PASSES: usize = 3;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    /// Workload seed; the program receives only inputs generated from it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and per-layer metrics after the untraced passes.
    pub trace: bool,
    /// Tiny inputs, two passes, every check on.
    pub smoke: bool,
    /// Worker threads the program may use.
    pub jobs: usize,
    /// Directory for files the program writes; removed when the run ends.
    pub scratch: PathBuf,
    /// Spans of the traced pass (enabled only when `trace`).
    pub tracer: Tracer,
}

impl Ctx {
    /// Seconds of untraced passes: a traced run spends the other half of
    /// its time on the traced pass and the layer probes.
    pub fn pass_budget_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Set-ups to time.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Wall seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Each untraced pass, as the wall seconds of its parts (cells,
    /// scenes; one part when a pass is a single call).
    pub passes: Vec<Vec<f64>>,
    /// CPU seconds the untraced passes used, all threads.
    pub pass_cpu_s: f64,
    /// Per-layer values (always measured; printed with `--trace 1`).
    pub layer: Values,
}

/// Tally of checked operations. A failed check is a failed operation and
/// makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted (cells, builds, submits).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failures, for the human reader.
    pub messages: Vec<String>,
}

impl Check {
    /// Counts one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// Runs `f` and returns its value with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// Times `ctx.setup_reps()` set-ups and keeps the last one's product.
pub fn repeat_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setup_reps() {
        drop(last.take());
        let (value, s) = timed(&mut setup);
        times.push(s);
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// The closed loop: calls `pass` (which returns the seconds it timed, part
/// by part) until `budget_s` of wall time has gone by and [`MIN_PASSES`]
/// have run. Returns the passes and the CPU seconds the loop used.
pub fn run_passes(
    ctx: &Ctx,
    budget_s: f64,
    mut pass: impl FnMut() -> Vec<f64>,
) -> (Vec<Vec<f64>>, f64) {
    let cpu_before = crate::host::cpu_s();
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        times.push(pass());
        let done = if ctx.smoke {
            times.len() >= 2
        } else {
            times.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= budget_s
        };
        if done {
            return (times, crate::host::cpu_s() - cpu_before);
        }
    }
}

/// The wall time of an undisturbed pass: the sum, over the parts of a pass,
/// of the fastest that part ran in any pass. Each part is a deterministic
/// computation, and a neighbour on the host only ever adds time to it, so
/// its fastest run is the measurement least bent by the host. On the
/// sandbox this was sized on, ten runs spread half as widely by this than
/// by the median of whole passes (README.md); the median is still printed
/// per layer as `pass_wall_median_s`.
pub fn pass_wall_s(passes: &[Vec<f64>]) -> f64 {
    let parts = passes.first().map_or(0, Vec::len);
    (0..parts).map(|part| passes.iter().map(|p| p[part]).fold(f64::INFINITY, f64::min)).sum()
}

/// Median over the passes of a whole pass's wall time.
pub fn pass_wall_median_s(passes: &[Vec<f64>]) -> f64 {
    crate::stats::median(&passes.iter().map(|p| p.iter().sum()).collect::<Vec<f64>>())
}

/// Nanoseconds per iteration of `f`, as the median of five timed batches
/// of `iters` iterations after one warm-up batch.
pub fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    crate::stats::median(&[batch(), batch(), batch(), batch(), batch()])
}

/// Fisher–Yates shuffle driven by SplitMix64: the same seed gives the
/// same order on every host.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pass_wall_takes_each_part_at_its_fastest() {
        // A burst hits part 0 of the first pass and part 1 of the third.
        let passes = [vec![9.0, 2.0], vec![1.0, 2.5], vec![1.5, 9.0]];
        assert_eq!(pass_wall_s(&passes), 3.0);
        assert_eq!(pass_wall_median_s(&passes), 10.5);
        assert_eq!(pass_wall_s(&[vec![4.0], vec![1.0], vec![2.0]]), 1.0);
        assert_eq!(pass_wall_median_s(&[vec![4.0], vec![1.0], vec![2.0]]), 2.0);
    }

    #[test]
    fn check_counts_failures_and_keeps_the_first_messages() {
        let mut check = Check::default();
        check.op(true, || unreachable!());
        for i in 0..10 {
            check.op(false, || format!("failure {i}"));
        }
        assert_eq!((check.attempted, check.failed), (11, 10));
        assert_eq!(check.messages.len(), 8);
        assert_eq!(check.messages[0], "failure 0");
    }
}
