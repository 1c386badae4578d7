//! Fork-join for the host-side *prepare* loops (BVH build, path trace,
//! oracle replay), and the one rule for how many threads they may use.
//!
//! [`map`] runs a closure over a list of independent inputs on scoped
//! threads and returns the results in input order, so a caller whose
//! inputs are pure functions of their index — a band of image rows, a
//! range of trace calls, one side of a BVH split — gets the serial answer
//! bit for bit whatever the schedule was. It lives in this crate because
//! `prof` is the lowest crate every prepare layer already depends on and
//! already holds the one process-wide host-side switch.
//!
//! The thread count is computed, never configured: [`threads`] is the
//! cores nobody is using — `available_parallelism`, bounded by
//! [`set_limit`] (the CLI's `--jobs`, so `--jobs 1` stays single-threaded
//! end to end), less the sweep-pool workers that are [`working`] on other
//! threads — capped at [`MAX_THREADS`], and [`threads_for`] is 1 below the
//! input size at which a call site says forking pays. A sweep whose
//! workers already fill the machine therefore prepares serially, as it
//! did before there was a fork-join, and a prepare the other workers are
//! [`waiting`] for gets their cores.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::Counter;

/// Most threads one [`map`] caller may ask for: past four the prepare
/// loops are memory-bound and the sweep pool wants the cores.
pub const MAX_THREADS: usize = 4;

static LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Bounds [`threads`] process-wide (at least 1). The CLI calls this with
/// its `--jobs` value.
pub fn set_limit(limit: usize) {
    LIMIT.store(limit.max(1), Ordering::Relaxed);
}

/// Pool workers that are running a task now, and [`map`]'s helpers.
static WORKING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is one of [`WORKING`].
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts this thread in or out of [`WORKING`] until dropped, then puts
/// back what it found (so the two nest, and a panic unwinds them).
struct Mark {
    before: bool,
}

impl Mark {
    fn set(counted: bool) -> Mark {
        let before = COUNTED.replace(counted);
        Mark::count(before, counted);
        Mark { before }
    }

    fn count(from: bool, to: bool) {
        if to && !from {
            WORKING.fetch_add(1, Ordering::Relaxed);
        } else if from && !to {
            WORKING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Mark {
    fn drop(&mut self) {
        Mark::count(COUNTED.replace(self.before), self.before);
    }
}

/// Runs `task` with the calling thread counted as a busy pool worker: a
/// core that a prepare on another thread must not fork onto. The sweep
/// pool wraps every task in this.
pub fn working<T>(task: impl FnOnce() -> T) -> T {
    let _mark = Mark::set(true);
    task()
}

/// Runs `wait` with the calling thread *not* counted: for a worker that
/// blocks on another thread's result (the prepared-scene cache), whose
/// core the thread it waits for may use.
pub fn waiting<T>(wait: impl FnOnce() -> T) -> T {
    let _mark = Mark::set(false);
    wait()
}

/// Threads a prepare may run on, the caller's included:
/// `min(available_parallelism, limit)` less the workers [`working`] on
/// other threads, at least 1 and at most [`MAX_THREADS`].
pub fn threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let elsewhere = WORKING.load(Ordering::Relaxed).saturating_sub(usize::from(COUNTED.get()));
    let free = hardware.min(LIMIT.load(Ordering::Relaxed)).saturating_sub(elsewhere);
    free.clamp(1, MAX_THREADS)
}

/// [`threads`] for a call site whose input measures `size`, or 1 below
/// `min_size`: each prepare loop stays serial where a thread spawn would
/// cost more than it saves.
pub fn threads_for(size: usize, min_size: usize) -> usize {
    if size >= min_size {
        threads()
    } else {
        1
    }
}

/// Applies `work` to every input on up to `threads` threads (the caller's
/// included) and returns the results in input order.
///
/// Inputs are claimed one at a time through an atomic counter, so uneven
/// inputs balance themselves. With one thread or fewer than two inputs
/// everything runs inline on the caller and no thread is spawned. A panic
/// in `work` on any thread is re-raised on the caller with its original
/// payload once every thread has stopped.
pub fn map<I: Send, T: Send>(
    threads: usize,
    inputs: Vec<I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let helpers = threads.min(inputs.len()).saturating_sub(1);
    if helpers == 0 {
        return inputs.into_iter().map(work).collect();
    }
    crate::add(Counter::ForkJoinHelpers, helpers as u64);

    // The counter hands out each index once; the slot's mutex is what
    // moves the input to the claiming thread.
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else { break done };
            let input = slot
                .lock()
                .expect("a slot is locked only to take its input")
                .take()
                .expect("each index is claimed once");
            done.push((index, work(input)));
        }
    };

    let mut results: Vec<Option<T>> = slots.iter().map(|_| None).collect();
    let mut panic = None;
    std::thread::scope(|scope| {
        // A helper takes a core like any pool worker, so it counts as one.
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(|| working(drain))).collect();
        let mut finished = vec![drain()];
        for handle in handles {
            match handle.join() {
                Ok(done) => finished.push(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        for (index, result) in finished.into_iter().flatten() {
            results[index] = Some(result);
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("every input was claimed and finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, MutexGuard};

    /// Held by every test that forks: `map`'s helpers count in
    /// [`WORKING`], which the limit test reads.
    fn forking() -> MutexGuard<'static, ()> {
        static FORKING: Mutex<()> = Mutex::new(());
        FORKING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn results_come_back_in_input_order_for_any_thread_count() {
        let _forking = forking();
        let inputs: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = inputs.iter().map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(map(threads, inputs.clone(), |i| i * i), want, "threads {threads}");
        }
        assert_eq!(map(4, Vec::<u64>::new(), |i| i), Vec::<u64>::new());
    }

    #[test]
    fn inputs_move_to_the_worker_and_may_be_mutable_borrows() {
        let _forking = forking();
        let mut data = vec![1u32; 64];
        let halves: Vec<&mut [u32]> = data.chunks_mut(16).collect();
        let sums = map(3, halves, |half| {
            half.iter_mut().for_each(|v| *v += 1);
            half.iter().sum::<u32>()
        });
        assert_eq!(sums, vec![32; 4]);
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn helpers_really_run_concurrently() {
        let _forking = forking();
        // Three inputs that each wait for the other two: finishes only if
        // three threads are inside `work` at once.
        let barrier = Barrier::new(3);
        let got = map(3, vec![0, 1, 2], |i| {
            barrier.wait();
            i
        });
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn a_panic_on_any_thread_reaches_the_caller_with_its_message() {
        let _forking = forking();
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                map(threads, (0..32).collect(), |i: u32| {
                    assert!(i != 17, "input {i} is poisoned");
                    i
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            let message = payload.downcast_ref::<String>().expect("assert! carries a String");
            assert_eq!(message, "input 17 is poisoned", "threads {threads}");
        }
    }

    #[test]
    fn limit_and_busy_workers_bound_threads_and_never_reach_zero() {
        // The only test that touches the process-wide limit and reads the
        // count of working threads.
        let _forking = forking();
        let unbounded = threads();
        assert!((1..=MAX_THREADS).contains(&unbounded));
        assert_eq!((threads_for(9, 10), threads_for(10, 10)), (1, unbounded));
        set_limit(1);
        assert_eq!((threads(), threads_for(10, 10)), (1, 1));
        set_limit(0);
        assert_eq!(threads(), 1);
        set_limit(usize::MAX);
        assert_eq!(threads(), unbounded);

        // Every worker busy on another thread takes one core away, down
        // to the caller's own; a worker neither stands in its own way nor,
        // while it waits, in anybody's.
        let beside = |busy: usize| {
            let barrier = Barrier::new(busy + 1);
            std::thread::scope(|scope| {
                for _ in 0..busy {
                    scope.spawn(|| working(|| [barrier.wait(), barrier.wait()]));
                }
                barrier.wait();
                let seen = [threads(), working(threads), working(|| waiting(threads))];
                barrier.wait();
                seen
            })
        };
        set_limit(3);
        let three = threads();
        assert_eq!(beside(0), [three; 3]);
        assert_eq!(beside(1), [three.saturating_sub(1).max(1); 3]);
        assert_eq!(beside(3), [1; 3]);
        set_limit(usize::MAX);
        let waiter = std::thread::scope(|scope| {
            scope.spawn(|| working(|| waiting(|| WORKING.load(Ordering::Relaxed)))).join()
        });
        assert_eq!(waiter.ok(), Some(0));
        // A panic inside a task takes its mark with it.
        let caught = std::panic::catch_unwind(|| working(|| panic!("task failed")));
        assert!(caught.is_err());
        assert_eq!((WORKING.load(Ordering::Relaxed), threads()), (0, unbounded));
    }
}
