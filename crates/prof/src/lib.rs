//! Host-side performance observability: where does *wall-clock* time go?
//!
//! The simulator's own instrumentation ([`gpusim`]'s trace sinks, stall
//! breakdowns and time series) measures the *modelled machine*. This
//! crate measures the *host program running the model*, so optimization
//! PRs can defend their claims with numbers:
//!
//! * **Hierarchical spans** — [`span`] returns a scoped guard that times
//!   a region against the monotonic clock. Spans nest: a span opened
//!   while another is live becomes its child, and reports carry both
//!   *total* (inclusive) and *self* (exclusive) time per `parent/child`
//!   path. Each thread keeps its own span stack — the work-stealing
//!   sweep pool profiles without contention — and flushes its aggregates
//!   into the global registry whenever its stack unwinds to empty.
//! * **Named counters** — [`add`] bumps one of a fixed set of
//!   [`Counter`]s (rays traced, simulated cycles, cells completed, bytes
//!   exported, preparation stages built, …). [`ProfSnapshot`] derives
//!   rates (rays/sec, cycles/sec, cells/sec) from the time profiling has
//!   been enabled.
//! * **Zero cost when disabled** — the same contract as the simulator's
//!   no-sink trace path: until [`enable`] is called, [`span`] and [`add`]
//!   are a single relaxed atomic load and a branch; nothing is recorded
//!   and nothing allocates. Instrumented code therefore never pays for
//!   observability it did not ask for, and no guard sits inside a
//!   per-cycle simulator loop: spans wrap whole phases, counters are
//!   added once per run, and what the cycle loop times itself (only when
//!   [`enabled`]) arrives pre-aggregated through [`record`].
//! * **Fork-join for the prepare loops** — [`par`] holds the one
//!   fork-join primitive ([`par::map`]) and the one rule for how many
//!   threads a scene prepare may use ([`par::threads`]). Not
//!   instrumentation, but this is the lowest crate every prepare layer
//!   depends on and the home of the process-wide host-side switches.
//! * **Allocation counting** (feature `count-allocs`) — [`CountingAlloc`]
//!   wraps the system allocator and counts every allocation, for
//!   measurement binaries that want heap-churn numbers next to timings.
//!
//! # Example
//!
//! ```
//! prof::reset();
//! prof::enable();
//! {
//!     let _outer = prof::span("build");
//!     let _inner = prof::span("partition");
//!     prof::add(prof::Counter::BvhBuilds, 1);
//! }
//! let snap = prof::snapshot();
//! assert_eq!(snap.spans.iter().map(|s| s.path.as_str()).collect::<Vec<_>>(),
//!            vec!["build", "build/partition"]);
//! prof::disable();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod par;

#[cfg(feature = "count-allocs")]
pub use alloc_count::CountingAlloc;

/// Master switch. Off (the default) keeps every instrumentation call on
/// the one-load-one-branch fast path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Named counters. A fixed enum rather than string keys so the hot-path
/// cost of [`add`] is an array index on a static — no hashing, no
/// allocation, no lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Rays completed by the cycle-level simulator.
    RaysTraced,
    /// RT-unit visits of the simulator's cycle loop: a unit is visited
    /// when its wake is due, so beside the `sim/run/cycles/next_event`
    /// laps (one per clock advance) this is the visits per advance.
    UnitVisits,
    /// Simulated GPU cycles advanced (the simulator's clock, not ours).
    CyclesSimulated,
    /// Sweep cells fully executed (prepare + simulate + export).
    CellsCompleted,
    /// Bytes of machine-readable artifacts written by the exporters.
    BytesExported,
    /// Preparation stages built: prepared-scene cache misses, summed over
    /// the five stages (scene, tree, workload, layout, tape). The
    /// `prepare/<stage>` spans count them stage by stage.
    PreparedBuilds,
    /// Wide trees built (binned SAH or LBVH, then the 4-wide collapse).
    /// Laying a tree out — node format, treelets, addresses — is not a
    /// build.
    BvhBuilds,
    /// Rays replayed through the timing-free conformance oracle.
    OracleRays,
    /// Sweep-journal writes that failed and were dropped (full disk,
    /// revoked permissions) — silent durability loss made visible.
    JournalWriteDrops,
    /// Jobs accepted by the `vtq-serve` admission controller.
    JobsAccepted,
    /// Jobs rejected by admission control (queue full or tenant quota).
    JobsRejected,
    /// Jobs cancelled by request or by deadline expiry.
    JobsCancelled,
    /// Sweep cells quarantined by the poison list (panicked too often).
    CellsQuarantined,
    /// Service result-cache hits (cells served without recomputation).
    ResultCacheHits,
    /// Progress events dropped because a watcher could not keep up
    /// (slow-client graceful degradation).
    EventsDropped,
    /// Protocol frames appended to a `vtq-serve` wire buffer (either end).
    FramesWritten,
    /// Non-empty wire-buffer flushes — one socket write each, so
    /// `frames_written / wire_flushes` is the frames carried per write.
    WireFlushes,
    /// Simulated cache lines served on the demand path (L1 → L2 → DRAM).
    MemLinesL1AndL2,
    /// Simulated cache lines served past the L1 (L2 → DRAM).
    MemLinesBypassL1,
    /// Simulated cache lines served by the reserved ray region of the L2.
    MemLinesRayReserve,
    /// Simulated cache lines streamed straight to or from DRAM.
    MemLinesDramOnly,
    /// Helper threads spawned by [`par::map`] (zero on a serial prepare).
    ForkJoinHelpers,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 22] = [
        Counter::RaysTraced,
        Counter::UnitVisits,
        Counter::CyclesSimulated,
        Counter::CellsCompleted,
        Counter::BytesExported,
        Counter::PreparedBuilds,
        Counter::BvhBuilds,
        Counter::OracleRays,
        Counter::JournalWriteDrops,
        Counter::JobsAccepted,
        Counter::JobsRejected,
        Counter::JobsCancelled,
        Counter::CellsQuarantined,
        Counter::ResultCacheHits,
        Counter::EventsDropped,
        Counter::FramesWritten,
        Counter::WireFlushes,
        Counter::MemLinesL1AndL2,
        Counter::MemLinesBypassL1,
        Counter::MemLinesRayReserve,
        Counter::MemLinesDramOnly,
        Counter::ForkJoinHelpers,
    ];

    /// Stable snake_case name used in reports and JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RaysTraced => "rays_traced",
            Counter::UnitVisits => "unit_visits",
            Counter::CyclesSimulated => "cycles_simulated",
            Counter::CellsCompleted => "cells_completed",
            Counter::BytesExported => "bytes_exported",
            Counter::PreparedBuilds => "prepared_builds",
            Counter::BvhBuilds => "bvh_builds",
            Counter::OracleRays => "oracle_rays",
            Counter::JournalWriteDrops => "journal_write_drops",
            Counter::JobsAccepted => "jobs_accepted",
            Counter::JobsRejected => "jobs_rejected",
            Counter::JobsCancelled => "jobs_cancelled",
            Counter::CellsQuarantined => "cells_quarantined",
            Counter::ResultCacheHits => "result_cache_hits",
            Counter::EventsDropped => "events_dropped",
            Counter::FramesWritten => "frames_written",
            Counter::WireFlushes => "wire_flushes",
            Counter::MemLinesL1AndL2 => "mem_lines_l1_and_l2",
            Counter::MemLinesBypassL1 => "mem_lines_bypass_l1",
            Counter::MemLinesRayReserve => "mem_lines_ray_reserve",
            Counter::MemLinesDramOnly => "mem_lines_dram_only",
            Counter::ForkJoinHelpers => "fork_join_helpers",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; NUM_COUNTERS] = [COUNTER_ZERO; NUM_COUNTERS];

/// One span's aggregate: call count, inclusive and exclusive time.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    total: Duration,
    self_time: Duration,
}

impl Agg {
    fn merge(&mut self, other: Agg) {
        self.count += other.count;
        self.total += other.total;
        self.self_time += other.self_time;
    }
}

/// One open frame on a thread's span stack.
struct Frame {
    path: String,
    start: Instant,
    child: Duration,
}

#[derive(Default)]
struct ThreadState {
    frames: Vec<Frame>,
    /// Closed-span aggregates not yet flushed to the global registry.
    local: BTreeMap<String, Agg>,
}

impl ThreadState {
    /// Books `agg` under `name` as a child of the innermost open span.
    fn close(&mut self, name: String, agg: Agg) {
        if let Some(parent) = self.frames.last_mut() {
            parent.child += agg.total;
        }
        self.local.entry(name).or_default().merge(agg);
        // Root close: flush this thread's aggregates so short-lived
        // pool workers never strand data, while nested spans stay
        // lock-free.
        if self.frames.is_empty() {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.local.is_empty() {
            return;
        }
        let mut global = lock(registry());
        for (path, agg) in std::mem::take(&mut self.local) {
            global.entry(path).or_default().merge(agg);
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

fn registry() -> &'static Mutex<BTreeMap<String, Agg>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Agg>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The instant profiling was enabled; denominates the derived rates.
fn epoch() -> &'static Mutex<Option<Instant>> {
    static EPOCH: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    EPOCH.get_or_init(|| Mutex::new(None))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Aggregates are plain additive state; a panic mid-merge leaves them
    // usable, so poisoning is not an error worth propagating.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns profiling on. Spans and counters start recording; the rate
/// epoch is set on the first enable after a [`reset`].
pub fn enable() {
    let mut epoch = lock(epoch());
    if epoch.is_none() {
        *epoch = Some(Instant::now());
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns profiling off. Already-open spans still close and record (they
/// were armed while enabled); new spans and counter bumps are no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// `true` while profiling is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded spans and counters (and this thread's pending
/// aggregates). The enabled/disabled state is preserved; the rate epoch
/// restarts if profiling is currently enabled.
pub fn reset() {
    lock(registry()).clear();
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        st.local.clear();
        // Open frames keep timing: their close will record under the
        // fresh registry, which is what a mid-span reset should mean.
    });
    *lock(epoch()) = if enabled() { Some(Instant::now()) } else { None };
}

/// Opens a scoped timer. The returned guard records the span when
/// dropped; a span opened while another is live on the same thread
/// becomes its child (`parent/child` path). When profiling is disabled
/// this is one relaxed load and a branch — nothing is recorded.
#[must_use = "a span only times the region the guard is alive for"]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let path = match st.frames.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        st.frames.push(Frame { path, start: Instant::now(), child: Duration::ZERO });
    });
    Span { armed: true }
}

/// Scoped span guard returned by [`span`]; records on drop.
pub struct Span {
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            let Some(frame) = st.frames.pop() else { return };
            let total = frame.start.elapsed();
            let agg = Agg { count: 1, total, self_time: total.saturating_sub(frame.child) };
            st.close(frame.path, agg);
        });
    }
}

/// Records a span the caller timed itself: `count` closings of `name`
/// totalling `total_ns`, as a child of the span open on this thread. For
/// regions entered too often to pay a guard each time — the caller reads
/// the clock only when [`enabled`] says so, sums plain integers and
/// reports once. A no-op while profiling is disabled.
pub fn record(name: &str, count: u64, total_ns: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let path = match st.frames.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        let total = Duration::from_nanos(total_ns);
        st.close(path, Agg { count, total, self_time: total });
    });
}

/// Adds `n` to a counter. A no-op (one relaxed load, one branch) while
/// profiling is disabled.
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn get(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// One span's aggregate in a [`ProfSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// `parent/child` path identifying the span's position in the tree.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Inclusive wall-clock time (children included), in nanoseconds.
    pub total_ns: u64,
    /// Exclusive wall-clock time (children subtracted), in nanoseconds.
    pub self_ns: u64,
}

/// One counter's value in a [`ProfSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterReport {
    /// The counter ([`Counter::name`] is its stable snake_case name).
    pub counter: Counter,
    /// Accumulated value.
    pub value: u64,
}

/// A point-in-time copy of everything the profiler has recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Closed spans, sorted by path.
    pub spans: Vec<SpanReport>,
    /// All counters in [`Counter::ALL`] order (zero-valued included).
    pub counters: Vec<CounterReport>,
    /// Nanoseconds since profiling was enabled (0 if never enabled);
    /// denominates the `per_sec` rates in exports.
    pub elapsed_ns: u64,
}

impl ProfSnapshot {
    /// `true` when nothing was recorded: no spans closed and every
    /// counter is zero. This is the disabled-path acceptance check.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.iter().all(|c| c.value == 0)
    }

    /// Value of one counter in this snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().find(|c| c.counter == counter).map_or(0, |c| c.value)
    }

    /// Events per second for a counter, `None` when no time has elapsed.
    pub fn per_sec(&self, counter: Counter) -> Option<f64> {
        if self.elapsed_ns == 0 {
            return None;
        }
        Some(self.counter(counter) as f64 * 1e9 / self.elapsed_ns as f64)
    }

    /// Human-readable table for run summaries.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<40} {:>8} {:>12} {:>12}\n",
                "span", "count", "total", "self"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "{:<40} {:>8} {:>12} {:>12}\n",
                    s.path,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.self_ns)
                ));
            }
        }
        let live: Vec<&CounterReport> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !live.is_empty() {
            out.push_str(&format!("{:<40} {:>14} {:>14}\n", "counter", "value", "per-sec"));
            for c in live {
                let rate = match self.per_sec(c.counter) {
                    Some(r) => format!("{r:.1}"),
                    None => "n/a".to_string(),
                };
                out.push_str(&format!("{:<40} {:>14} {:>14}\n", c.counter.name(), c.value, rate));
            }
        }
        if out.is_empty() {
            out.push_str("(profiler recorded nothing)\n");
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Copies out everything recorded so far. The calling thread's pending
/// (closed but unflushed) aggregates are folded in first, so a snapshot
/// taken right after a sweep sees every cell; other threads flush on
/// their own root-span closes, which the scoped pool guarantees happen
/// before the sweep returns.
pub fn snapshot() -> ProfSnapshot {
    STATE.with(|s| s.borrow_mut().flush());
    let spans = lock(registry())
        .iter()
        .map(|(path, agg)| SpanReport {
            path: path.clone(),
            count: agg.count,
            total_ns: agg.total.as_nanos() as u64,
            self_ns: agg.self_time.as_nanos() as u64,
        })
        .collect();
    let counters =
        Counter::ALL.iter().map(|&c| CounterReport { counter: c, value: get(c) }).collect();
    let elapsed_ns = lock(epoch()).map_or(0, |e| e.elapsed().as_nanos() as u64);
    ProfSnapshot { spans, counters, elapsed_ns }
}

#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
mod alloc_count {
    //! The one unsafe corner of the crate: a `GlobalAlloc` wrapper.
    //! Counting happens before delegation so failed allocations are
    //! still visible as attempts.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// A [`System`]-delegating global allocator that counts allocations.
    ///
    /// Install it in a measurement binary:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: prof::CountingAlloc = prof::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    impl CountingAlloc {
        /// Total allocation calls since process start.
        pub fn allocations() -> u64 {
            ALLOCATIONS.load(Ordering::Relaxed)
        }

        /// Total bytes requested since process start (frees not netted).
        pub fn allocated_bytes() -> u64 {
            ALLOCATED_BYTES.load(Ordering::Relaxed)
        }
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The profiler is global state; tests that touch it serialize here
    /// so `cargo test`'s parallel runner cannot interleave them.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        lock(GATE.get_or_init(|| Mutex::new(())))
    }

    fn spin(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _gate = exclusive();
        reset();
        disable();
        reset();
        {
            let _a = span("sim/run");
            let _b = span("phase");
            add(Counter::RaysTraced, 1000);
            add(Counter::CyclesSimulated, 1_000_000);
        }
        let snap = snapshot();
        assert!(snap.is_empty(), "disabled profiler recorded: {snap:?}");
        assert_eq!(snap.counter(Counter::RaysTraced), 0);
    }

    #[test]
    fn nested_spans_roll_up_self_and_total() {
        let _gate = exclusive();
        reset();
        enable();
        reset();
        {
            let _outer = span("outer");
            spin(Duration::from_millis(2));
            {
                let _inner = span("inner");
                spin(Duration::from_millis(2));
            }
            {
                let _inner = span("inner");
                spin(Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        disable();
        let outer = snap.spans.iter().find(|s| s.path == "outer").expect("outer recorded");
        let inner = snap.spans.iter().find(|s| s.path == "outer/inner").expect("inner nested");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // Inclusive time contains the children; exclusive time excludes
        // them exactly (total = self + sum of child totals).
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000,
            "self must exclude children"
        );
        assert!(outer.self_ns >= Duration::from_millis(1).as_nanos() as u64);
    }

    #[test]
    fn recorded_aggregates_nest_under_the_open_span() {
        let _gate = exclusive();
        reset();
        enable();
        reset();
        {
            let _outer = span("loop");
            spin(Duration::from_millis(2));
            record("phase", 1000, 1_500_000);
            record("phase", 24, 100_000);
        }
        disable();
        record("phase", 1, 1);
        let snap = snapshot();
        let phase = snap.spans.iter().find(|s| s.path == "loop/phase").expect("nested");
        assert_eq!((phase.count, phase.total_ns, phase.self_ns), (1024, 1_600_000, 1_600_000));
        // The parent's self time excludes what its caller-timed child took.
        let outer = snap.spans.iter().find(|s| s.path == "loop").expect("outer recorded");
        assert!(outer.total_ns >= 2_000_000);
        assert!(outer.self_ns + 1_600_000 <= outer.total_ns + 1_000, "{outer:?}");
        assert_eq!(snap.spans.len(), 2, "nothing recorded while off: {:?}", snap.spans);
    }

    #[test]
    fn thread_aggregates_merge_into_the_registry() {
        let _gate = exclusive();
        reset();
        enable();
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let _cell = span("cell");
                        let _sim = span("simulate");
                        add(Counter::CellsCompleted, 1);
                    }
                });
            }
        });
        let snap = snapshot();
        disable();
        let cell = snap.spans.iter().find(|s| s.path == "cell").expect("cells recorded");
        let sim = snap.spans.iter().find(|s| s.path == "cell/simulate").expect("nested recorded");
        assert_eq!(cell.count, 12, "4 workers x 3 cells");
        assert_eq!(sim.count, 12);
        assert_eq!(snap.counter(Counter::CellsCompleted), 12);
    }

    #[test]
    fn rates_come_from_the_enable_epoch() {
        let _gate = exclusive();
        reset();
        enable();
        reset();
        {
            let _s = span("export");
            add(Counter::BytesExported, 4096);
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.counter(Counter::BytesExported), 4096);
        assert!(snap.spans.iter().any(|s| s.path == "export"));
        assert!(snap.per_sec(Counter::BytesExported).is_some());
        assert!(snap.summary().contains("bytes_exported"));
    }

    #[test]
    fn reset_clears_everything_but_keeps_the_switch() {
        let _gate = exclusive();
        reset();
        enable();
        {
            let _s = span("stale");
            add(Counter::RaysTraced, 7);
        }
        reset();
        assert!(enabled());
        let snap = snapshot();
        assert!(snap.is_empty(), "reset left data behind: {snap:?}");
        disable();
    }

    #[test]
    fn counter_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "duplicate counter name");
        // The JSONL schema is a contract with compare tooling.
        assert_eq!(Counter::RaysTraced.name(), "rays_traced");
        assert_eq!(Counter::CyclesSimulated.name(), "cycles_simulated");
    }
}
