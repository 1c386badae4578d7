//! The cycle-level GPU + RT-unit simulator.
//!
//! One [`Simulator::try_run`] call simulates a full path-tracing kernel: every
//! [`PathTask`] is one raygen-shader thread that issues one `traceRayEXT`
//! per bounce. Threads are grouped into warps and CTAs, CTAs are scheduled
//! onto SMs, and each SM's RT unit traverses warps of rays through the BVH
//! with real cache/DRAM timing from [`gpumem`]. The engine advances with an
//! event-driven clock (it jumps to the next CTA-phase or warp-memory
//! completion), so big scenes simulate in seconds while remaining
//! cycle-accurate with respect to the modelled latencies.
//!
//! This module is the public run API ([`Simulator`], [`RunOptions`], the
//! workload and report types) and the engine's cross-component cycle loop
//! (`run`, `schedule`, `issue_trace`, `acquire_work`, `step_warp`). The
//! machine's state is declared in four components, each with its own
//! checkpoint records, restore validation and invariant audit beside it:
//! [`sched`](crate::sched) (CTA scheduler), [`rt_unit`](crate::rt_unit)
//! (one RT unit per SM), [`ray_table`](crate::ray_table) and
//! [`observer`](crate::observer); the engine's `capture` clones them —
//! the ray table as each ray's position in its call — into a
//! [`Checkpoint`], and `restore` validates and replaces them, issuing
//! every ray again.

use std::time::Instant;

use gpumem::{AccessKind, CachePolicy, MemStats, MemorySystem};
use rtbvh::{Bvh, NodeId, PrimHit, TreeletId};
use rtmath::Ray;
use rtscene::Triangle;

use crate::checkpoint::{config_tag, Checkpoint, CHECKPOINT_VERSION};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{ForensicsSnapshot, InvariantViolation, SimError, SmSnapshot};
use crate::observe::{TraceEvent, TraceSink};
use crate::observer::Observer;
use crate::predict::predict_key;
use crate::ray::{NextNode, RayId, RayTraversal, StackArena};
use crate::ray_table::{RayMeta, RayTable, Walk};
use crate::rt_unit::{RtUnit, Warp};
use crate::sched::{CtaScheduler, Phase};
use crate::tape::Tape;
use crate::{GpuConfig, PredictParams, SimStats, TraversalMode, TraversalPolicy, VtqParams};

/// Byte address regions (disjoint so cache tags never alias across kinds).
const RAY_REGION: u64 = 0x1_0000_0000;
const CTA_REGION: u64 = 0x2_0000_0000;
const QUEUE_REGION: u64 = 0x3_0000_0000;

/// Lower bound of every trace call's search interval (`tmin`): the fixed
/// self-intersection epsilon the simulator applies when building
/// [`RayTraversal`] state. The functional oracle in `vtq::conformance`
/// must use the same bound for bit-equal differential comparison.
pub const TRACE_T_MIN: f32 = 1e-3;

/// One `traceRayEXT` invocation: the ray plus its query semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCall {
    /// The geometric ray.
    pub ray: Ray,
    /// Upper bound of the search interval (`tmax`).
    pub t_max: f32,
    /// `true` for anyhit queries (shadow/occlusion rays): traversal
    /// terminates at the *first* accepted intersection instead of
    /// searching for the closest one (§2.1.2's anyhit shader stage).
    pub anyhit: bool,
}

impl TraceCall {
    /// A closest-hit query over `[tmin, ∞)` (the common case).
    pub fn closest(ray: Ray) -> TraceCall {
        TraceCall { ray, t_max: f32::INFINITY, anyhit: false }
    }

    /// An anyhit (occlusion) query over `[tmin, t_max)`.
    pub fn anyhit(ray: Ray, t_max: f32) -> TraceCall {
        TraceCall { ray, t_max, anyhit: true }
    }
}

impl From<Ray> for TraceCall {
    fn from(ray: Ray) -> TraceCall {
        TraceCall::closest(ray)
    }
}

/// One raygen-shader thread: the sequence of trace calls it makes, one per
/// bounce (produced by the workload driver's functional path tracer).
#[derive(Debug, Clone)]
pub struct PathTask {
    /// The trace calls this thread makes, in program order.
    pub rays: Vec<TraceCall>,
}

/// A complete kernel workload.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// One task per thread (pixel × sample).
    pub tasks: Vec<PathTask>,
}

impl Workload {
    /// Total trace calls across all tasks.
    pub fn total_rays(&self) -> usize {
        self.tasks.iter().map(|t| t.rays.len()).sum()
    }

    /// The longest bounce chain.
    pub fn max_bounces(&self) -> usize {
        self.tasks.iter().map(|t| t.rays.len()).max().unwrap_or(0)
    }

    /// Mean trace calls per thread (path length, counting shadow rays).
    pub fn mean_path_length(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.total_rays() as f64 / self.tasks.len() as f64
        }
    }

    /// Fraction of trace calls that are anyhit (occlusion) queries.
    pub fn anyhit_fraction(&self) -> f64 {
        let total = self.total_rays();
        if total == 0 {
            return 0.0;
        }
        let any = self.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit).count();
        any as f64 / total as f64
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulator counters (cycles, SIMT efficiency, per-mode breakdowns…).
    pub stats: SimStats,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Energy estimate.
    pub energy: EnergyBreakdown,
    /// Closest hit per task per bounce (functional results, checked
    /// against the CPU reference in tests).
    pub hits: Vec<Vec<Option<PrimHit>>>,
}

impl SimReport {
    /// A compact human-readable summary (used by examples and debugging).
    ///
    /// # Example
    ///
    /// ```
    /// # use gpusim::{GpuConfig, PathTask, Simulator, Workload};
    /// # use rtbvh::{Bvh, BvhConfig};
    /// # use rtscene::lumibench::{self, SceneId};
    /// # let scene = lumibench::build_scaled(SceneId::Bunny, 64);
    /// # let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
    /// # let workload = Workload { tasks: vec![PathTask {
    /// #     rays: vec![scene.camera().primary_ray(4, 4, 8, 8, None).into()] }] };
    /// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
    /// let report = sim.try_run(&workload).unwrap();
    /// assert!(report.summary().contains("cycles"));
    /// ```
    pub fn summary(&self) -> String {
        use gpumem::AccessKind;
        format!(
            "cycles={} simt={:.3} l1_bvh_miss={:.3} rays={} peak_rays={} energy={:.2e}pJ",
            self.stats.cycles,
            self.stats.simt_efficiency(),
            self.mem.kind(AccessKind::Bvh).l1_miss_rate(),
            self.stats.rays_completed,
            self.stats.peak_rays_in_flight,
            self.energy.total_pj(),
        )
    }
}

/// Per-task, per-trace-call functional hit records captured from one run:
/// the explicit hit-capture handle consumed by the differential
/// conformance harness (`vtq::conformance`).
///
/// `records[task][call]` is the hit the simulator reported for the
/// `call`-th [`TraceCall`] of workload task `task`: the closest accepted
/// intersection for closest-hit queries, the terminating intersection for
/// anyhit queries, `None` for a miss. For closest-hit queries the record
/// is policy-invariant bit for bit (with ties broken by lowest prim id);
/// for anyhit queries only hit-vs-miss is policy-invariant — *which*
/// occluder terminated traversal depends on visit order by design.
#[derive(Debug, Clone, PartialEq)]
pub struct HitCapture {
    records: Vec<Vec<Option<PrimHit>>>,
}

impl HitCapture {
    /// Extracts the capture from a finished run's report.
    pub fn from_report(report: &SimReport) -> HitCapture {
        HitCapture { records: report.hits.clone() }
    }

    /// The capture of every run that replays `tape` in full: each call's
    /// recorded hit.
    pub fn from_tape(tape: &Tape) -> HitCapture {
        HitCapture { records: tape.hits() }
    }

    /// The hit record of one trace call, or `None` when `task`/`call` is
    /// out of range (a call the workload never made).
    pub fn get(&self, task: usize, call: usize) -> Option<Option<PrimHit>> {
        self.records.get(task).and_then(|t| t.get(call)).copied()
    }

    /// Number of tasks captured.
    pub fn tasks(&self) -> usize {
        self.records.len()
    }

    /// Total trace calls captured across all tasks.
    pub fn total_calls(&self) -> usize {
        self.records.iter().map(|t| t.len()).sum()
    }

    /// Iterates `(task, call, record)` in workload order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Option<PrimHit>)> + '_ {
        self.records
            .iter()
            .enumerate()
            .flat_map(|(task, calls)| calls.iter().enumerate().map(move |(c, h)| (task, c, *h)))
    }
}

/// Per-run options for [`Simulator::try_run_with`]: what one run observes
/// (a trace sink, periodic checkpoints) and where it starts (a checkpoint
/// to resume).
///
/// Every option is off by default. Options borrow from the caller for the
/// duration of one run; chain the methods to enable what the run needs:
///
/// ```
/// use gpusim::{Checkpoint, CountingSink, GpuConfig, PathTask, RunOptions, Simulator, Workload};
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let workload = Workload {
///     tasks: (0..64)
///         .map(|i| PathTask {
///             rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
///         })
///         .collect(),
/// };
/// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
/// let mut sink = CountingSink::default();
/// let mut snapshots: Vec<Checkpoint> = Vec::new();
/// let mut keep = |snapshot| snapshots.push(snapshot);
/// let report = sim
///     .try_run_with(&workload, RunOptions::new().trace(&mut sink).checkpoint(64, &mut keep))
///     .unwrap();
/// assert!(report.stats.cycles > 0);
/// assert!(!snapshots.is_empty());
/// ```
#[derive(Default)]
pub struct RunOptions<'r> {
    sink: Option<&'r mut dyn TraceSink>,
    checkpoint: Option<(u64, &'r mut dyn FnMut(Checkpoint))>,
    resume: Option<&'r Checkpoint>,
}

impl<'r> RunOptions<'r> {
    /// Options with everything off.
    pub fn new() -> RunOptions<'r> {
        RunOptions::default()
    }

    /// Streams structured [`TraceEvent`]s into `sink` as the kernel
    /// executes. Tracing is pure observation: the traced run is
    /// cycle-identical to an untraced one.
    pub fn trace(mut self, sink: &'r mut dyn TraceSink) -> RunOptions<'r> {
        self.sink = Some(sink);
        self
    }

    /// Captures a [`Checkpoint`] roughly every `every_cycles` simulated
    /// cycles (at the first clock advance past the mark) and hands it to
    /// `on_checkpoint`. Checkpointing is pure observation.
    pub fn checkpoint(
        mut self,
        every_cycles: u64,
        on_checkpoint: &'r mut dyn FnMut(Checkpoint),
    ) -> RunOptions<'r> {
        self.checkpoint = Some((every_cycles.max(1), on_checkpoint));
        self
    }

    /// Restores `snapshot` (captured by [`RunOptions::checkpoint`] on the
    /// *same* scene, workload and configuration) before cycling instead of
    /// starting from cycle 0, and runs the remainder of the kernel; the
    /// final [`SimStats`] is bit-identical to the run the checkpoint was
    /// taken from. A snapshot whose version, config fingerprint, workload
    /// shape, machine geometry or BVH node count does not match fails the
    /// run with [`SimError::Checkpoint`].
    pub fn resume(mut self, snapshot: &'r Checkpoint) -> RunOptions<'r> {
        self.resume = Some(snapshot);
        self
    }
}

/// The simulator: borrowings of the immutable scene + BVH plus a config.
///
/// # Example
///
/// ```
/// use gpusim::{GpuConfig, PathTask, Simulator, TraversalPolicy, Workload};
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let workload = Workload {
///     tasks: (0..64)
///         .map(|i| PathTask {
///             rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
///         })
///         .collect(),
/// };
/// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
/// let report = sim.try_run(&workload).unwrap();
/// assert!(report.stats.cycles > 0);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    bvh: &'a Bvh,
    triangles: &'a [Triangle],
    config: GpuConfig,
    tape: Option<&'a Tape>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a scene and its BVH. Each run records the
    /// [`Tape`] of its workload before it cycles and replays it, as a run
    /// [`with_tape`](Simulator::with_tape) does; a run over a BVH no tape
    /// can encode (a leaf of 256 or more triangles, or more than 2²³
    /// treelets) walks the BVH instead.
    pub fn new(bvh: &'a Bvh, triangles: &'a [Triangle], config: GpuConfig) -> Simulator<'a> {
        Simulator { bvh, triangles, config, tape: None }
    }

    /// Replays `tape` — the walks [`Tape::record`] recorded for the
    /// workload this simulator will run, on this BVH — instead of
    /// recording it again in every run: each issued ray reads its call's
    /// node visits, test counts and hit off the tape. Every count, cycle
    /// and hit is the one the walk would produce. Rays the ray-path
    /// predictor speculates for still walk (speculation changes their
    /// visit order).
    ///
    /// A run whose workload makes different calls per task, or whose BVH
    /// has a different node count, than the tape was recorded for fails
    /// with [`SimError::Config`] before the engine exists.
    pub fn with_tape(mut self, tape: &'a Tape) -> Simulator<'a> {
        self.tape = Some(tape);
        self
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs the kernel to completion, returning a typed error instead of
    /// panicking when the simulation cannot complete.
    ///
    /// The watchdog contract: if the engine reaches a state with no future
    /// event while CTAs are unfinished, the run ends with
    /// [`SimError::Deadlock`]; if the clock would pass the configured
    /// [`GpuConfig::max_cycles`] budget, it ends with
    /// [`SimError::CycleBudget`]. Both carry a [`ForensicsSnapshot`] of
    /// per-SM CTA slots, warp-buffer occupancy, treelet-queue depths,
    /// in-flight memory requests and last-progress cycles, serializable
    /// via [`export::snapshot_jsonl`](crate::export::snapshot_jsonl).
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] for an empty workload,
    /// [`SimError::Deadlock`] / [`SimError::CycleBudget`] for watchdog
    /// trips, and [`SimError::Invariant`] when the auditor (see
    /// [`AuditMode`](crate::AuditMode)) catches a conservation-law
    /// violation, and [`SimError::Config`] for a configuration
    /// [`GpuConfig::validate`] rejects: every run is checked in
    /// [`Simulator::try_run_with`], before the engine exists, whoever
    /// assembled the configuration.
    pub fn try_run(&self, workload: &Workload) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new())
    }

    /// [`Simulator::try_run`] plus an explicit [`HitCapture`] of the
    /// functional results — the hit-capture hook of the differential
    /// conformance harness (`vtq-bench conformance`), which asserts the
    /// capture agrees bit for bit with the timing-free oracle under every
    /// traversal policy.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_with_hits(
        &self,
        workload: &Workload,
    ) -> Result<(SimReport, HitCapture), SimError> {
        let report = self.try_run(workload)?;
        let capture = HitCapture::from_report(&report);
        Ok((report, capture))
    }

    /// [`Simulator::try_run`] with structured-event tracing: streams
    /// [`TraceEvent`]s into `sink` as the kernel executes. Tracing is pure
    /// observation — the traced run is cycle-identical to an untraced one
    /// (the sink never feeds back into timing), which the test suite
    /// asserts.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_traced(
        &self,
        workload: &Workload,
        sink: &mut dyn TraceSink,
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().trace(sink))
    }

    /// [`Simulator::try_run`] with periodic checkpointing: roughly every
    /// `every_cycles` simulated cycles (at the first clock advance past the
    /// mark) the complete architectural state is captured and handed to
    /// `on_checkpoint`. Persist it with [`Checkpoint::to_jsonl`] and later
    /// resume it with [`RunOptions::resume`] — the resumed run's final
    /// [`SimStats`] is bit-identical to the uninterrupted run's.
    ///
    /// Checkpointing is pure observation: the checkpointed run replays
    /// the tape as a plain [`Simulator::try_run`] does and is
    /// cycle-identical to it. A checkpoint records each ray as its
    /// position in its trace call, not its traversal stacks.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_checkpointed(
        &self,
        workload: &Workload,
        every_cycles: u64,
        on_checkpoint: &mut dyn FnMut(Checkpoint),
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().checkpoint(every_cycles, on_checkpoint))
    }

    /// [`Simulator::try_run`] with explicit per-run [`RunOptions`]: trace
    /// sink, checkpointing and resume, independently combinable in one
    /// run. The one place a configuration enters the engine, so the one
    /// place it is validated.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`], plus [`SimError::Checkpoint`]
    /// when [`RunOptions::resume`] is set and the snapshot does not match
    /// this simulator.
    pub fn try_run_with<'s>(
        &'s self,
        workload: &'s Workload,
        options: RunOptions<'s>,
    ) -> Result<SimReport, SimError> {
        let RunOptions { sink, checkpoint, resume } = options;
        self.config.validate()?;
        if workload.tasks.is_empty() {
            return Err(SimError::Workload("empty workload: no tasks to simulate".to_string()));
        }
        if let Some(tape) = self.tape {
            tape.check(self.bvh, workload)?;
        }
        // Profiling spans wrap whole phases (tape recording, setup, cycle
        // loop, report assembly) and counters are bumped once per run.
        // Inside the cycle loop a profiled run reads the clock once per
        // phase into plain integers (`PhaseClock`); an unprofiled one
        // reads none.
        let prof_on = prof::enabled();
        let _run = prof_on.then(|| prof::span("sim/run"));
        // Every run replays: the attached tape, or one recorded here when
        // the BVH fits a tape.
        let recorded: Option<Tape>;
        let tape = match self.tape {
            Some(tape) => Some(tape),
            None => {
                recorded = Tape::encodes(self.bvh).then(|| {
                    let _tape = prof_on.then(|| prof::span("tape"));
                    Tape::record(self.bvh, self.triangles, workload)
                });
                recorded.as_ref()
            }
        };
        let mut engine = {
            let _setup = prof_on.then(|| prof::span("setup"));
            // The engine borrows everything for as long as the tape,
            // which may be `recorded`: shorten the sink's borrow to match.
            let sink = sink.map(|s| -> &mut dyn TraceSink { s });
            let mut engine = Engine::new(self.bvh, self.triangles, &self.config, workload, sink);
            engine.tape = tape;
            if let Some(snapshot) = resume {
                engine.restore(snapshot)?;
            }
            engine
        };
        {
            let _cycles = prof_on.then(|| prof::span("cycles"));
            engine.run(checkpoint, prof_on.then(PhaseClock::start))?;
        }
        let _report = prof_on.then(|| prof::span("report"));
        if prof_on {
            prof::add(prof::Counter::CyclesSimulated, engine.obs.stats.cycles);
            prof::add(prof::Counter::RaysTraced, engine.obs.stats.rays_completed);
            // In `CachePolicy::ALL` order.
            let counters = [
                prof::Counter::MemLinesL1AndL2,
                prof::Counter::MemLinesBypassL1,
                prof::Counter::MemLinesRayReserve,
                prof::Counter::MemLinesDramOnly,
            ];
            for (counter, lines) in counters.into_iter().zip(engine.mem.policy_lines()) {
                prof::add(counter, lines);
            }
        }
        let energy = EnergyModel::default().evaluate(&engine.obs.stats, engine.mem.stats());
        Ok(SimReport {
            stats: engine.obs.stats,
            mem: engine.mem.stats().clone(),
            energy,
            hits: engine.rays.hits,
        })
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

/// The machine: the four stateful components (`sched`, `rays`, `rt`,
/// `obs`), the memory system and the clock, plus what is not state —
/// borrowed inputs, the trace sink, the audit cadence and scratch buffers.
/// The methods here are the cross-component orchestration; each component
/// keeps what touches only itself.
pub(crate) struct Engine<'a> {
    bvh: &'a Bvh,
    triangles: &'a [Triangle],
    cfg: &'a GpuConfig,
    vtq: Option<VtqParams>,
    predict: Option<PredictParams>,
    /// Entry capacities of each unit's queue table and prediction table
    /// (1-entry stubs outside their policy). Configuration, not state:
    /// the tables' checkpointed state does not carry them.
    queue_table_entries: u32,
    predict_entries: u32,
    workload: &'a Workload,
    /// The recorded walks rays replay; `None` walks every ray.
    tape: Option<&'a Tape>,
    mem: MemorySystem,
    now: u64,
    sched: CtaScheduler,
    rays: RayTable,
    rt: Vec<RtUnit>,
    obs: Observer,
    /// Optional structured-event sink. Events are only constructed when a
    /// sink is attached; observation never feeds back into timing.
    sink: Option<&'a mut dyn TraceSink>,
    /// Invariant-audit interval resolved from the config's `AuditMode`
    /// (`None` = auditing off for this build flavour).
    audit_every: Option<u64>,
    /// Host time per loop phase; only a profiled run has one.
    clock: Option<PhaseClock>,
    scratch: Scratch,
}

/// Buffers the cycle loop reuses so that steady-state cycling never
/// allocates. Never checkpointed: a restored engine simply re-warms them.
#[derive(Default)]
struct Scratch {
    /// Stack arenas reclaimed from finished rays, reused for fresh ones.
    arena_pool: Vec<StackArena>,
    /// `step_warp` buffers (taken with `mem::take` for the duration of
    /// one step, then put back).
    visits: Vec<(usize, RayId, NodeId)>,
    exits: Vec<(TreeletId, RayId)>,
    treelets: Vec<TreeletId>,
    fetched: Vec<NodeId>,
    /// `issue_trace`'s ray ids.
    new_rays: Vec<RayId>,
}

/// A phase of the cycle loop, as a profiled run reports it
/// (`sim/run/cycles/<name>`).
#[derive(Clone, Copy)]
enum LoopPhase {
    /// `schedule` + `process_cta_phases`.
    Sched,
    /// Stepping the RT units, less `Traverse` and `Mem`.
    RtUnits,
    /// `step_warp`'s lane `next_node` + `visit` calls, or the tape reads
    /// that replace them.
    Traverse,
    /// `step_warp`'s node fetches through `MemorySystem::access`.
    Mem,
    NextEvent,
    Observe,
}

const LOOP_PHASE_NAMES: [&str; 6] =
    ["sched", "rt_units", "traverse", "mem", "next_event", "observe"];

/// Host time the cycle loop spends in each [`LoopPhase`]: one clock read
/// per phase, each lap charged to the phase that just ended, summed in
/// plain integers and handed to `prof` once per run. Exists only in a
/// profiled run, so an unprofiled one reads no clock.
struct PhaseClock {
    mark: Instant,
    /// `(laps, nanoseconds)` per phase.
    laps: [(u64, u64); LOOP_PHASE_NAMES.len()],
}

impl PhaseClock {
    fn start() -> PhaseClock {
        PhaseClock { mark: Instant::now(), laps: Default::default() }
    }

    /// Ends a lap; `None` discards it (audits and checkpoints are not
    /// the loop's own work).
    fn lap(&mut self, phase: Option<LoopPhase>) {
        self.charge(phase, 1);
    }

    /// Charges the time since the last mark to `phase` and counts `laps`
    /// of it.
    fn charge(&mut self, phase: Option<LoopPhase>, laps: u64) {
        let now = Instant::now();
        if let Some(phase) = phase {
            let (count, ns) = &mut self.laps[phase as usize];
            *count += laps;
            *ns += now.duration_since(self.mark).as_nanos() as u64;
        }
        self.mark = now;
    }

    fn report(&self) {
        for (name, (laps, ns)) in LOOP_PHASE_NAMES.iter().zip(self.laps) {
            prof::record(name, laps, ns);
        }
    }
}

impl<'a> Engine<'a> {
    fn new(
        bvh: &'a Bvh,
        triangles: &'a [Triangle],
        cfg: &'a GpuConfig,
        workload: &'a Workload,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Engine<'a> {
        let vtq = match cfg.policy {
            TraversalPolicy::Vtq(p) => Some(p),
            _ => None,
        };
        let predict = match cfg.policy {
            TraversalPolicy::Predict(p) => Some(p),
            _ => None,
        };
        let num_sms = cfg.num_sms();
        let queue_table_entries = vtq.map_or(1, |v| v.queue_table_entries as u32);
        let predict_entries = predict.map_or(1, |p| p.table_entries as u32);
        Engine {
            bvh,
            triangles,
            cfg,
            vtq,
            predict,
            queue_table_entries,
            predict_entries,
            workload,
            tape: None,
            mem: MemorySystem::new(&cfg.mem),
            now: 0,
            sched: CtaScheduler::new(cfg, workload),
            rays: RayTable::new(workload),
            rt: (0..num_sms)
                .map(|_| RtUnit::new(cfg.warp_buffer_slots, queue_table_entries, predict_entries))
                .collect(),
            obs: Observer::new(num_sms),
            sink,
            audit_every: cfg.audit.interval(),
            clock: None,
            scratch: Scratch::default(),
        }
    }

    /// Runs to completion. When `ckpt` is `Some((every, callback))` the
    /// engine hands a [`Checkpoint`] to the callback roughly every `every`
    /// cycles, captured at the quiescent point right after each clock
    /// advance (audit passed) and before the fixed-point
    /// iteration at the new cycle — the exact state a resumed engine
    /// re-enters this loop with.
    ///
    /// `clock` is `Some` in a profiled run and collects the host time of
    /// each [`LoopPhase`].
    fn run(
        &mut self,
        mut ckpt: Option<(u64, &mut dyn FnMut(Checkpoint))>,
        clock: Option<PhaseClock>,
    ) -> Result<(), SimError> {
        let mut next_ckpt_at =
            ckpt.as_ref().map_or(u64::MAX, |(every, _)| self.now.saturating_add(*every));
        self.clock = clock;
        loop {
            // Iterate to a fixed point at the current cycle.
            loop {
                let mut progress = false;
                progress |= self.schedule();
                progress |= self.process_cta_phases();
                self.lap(Some(LoopPhase::Sched));
                progress |= self.step_rt_units();
                self.lap(Some(LoopPhase::RtUnits));
                if !progress {
                    break;
                }
            }
            if self.sched.all_done() {
                break;
            }
            let next = self.next_event();
            self.lap(Some(LoopPhase::NextEvent));
            match next {
                Some(t) if t > self.now => {
                    // Watchdog: refuse to jump past the cycle budget.
                    if let Some(budget) = self.cfg.max_cycles {
                        if t > budget {
                            return Err(SimError::CycleBudget {
                                budget,
                                snapshot: self.snapshot(),
                            });
                        }
                    }
                    self.observe_interval(t);
                    self.lap(Some(LoopPhase::Observe));
                    self.now = t;
                    if let Some(every) = self.audit_every {
                        if self.now - self.obs.last_audit >= every {
                            self.obs.last_audit = self.now;
                            self.audit_invariants()?;
                            self.lap(None);
                        }
                    }
                    if self.now >= next_ckpt_at {
                        if let Some((every, on_checkpoint)) = ckpt.as_mut() {
                            on_checkpoint(self.capture());
                            self.lap(None);
                            let every = (*every).max(1);
                            while next_ckpt_at <= self.now {
                                next_ckpt_at = next_ckpt_at.saturating_add(every);
                            }
                        }
                    }
                }
                // `next_event` only reports future events, so anything else
                // means no schedulable work remains: a true deadlock.
                _ => return Err(SimError::Deadlock { snapshot: self.snapshot() }),
            }
        }
        self.settle();
        let stats = &mut self.obs.stats;
        stats.cycles = self.now;
        for rt in &self.rt {
            let qt = rt.hw_table.stats();
            stats.queue_table_max_chain = stats.queue_table_max_chain.max(qt.max_chain);
            stats.queue_table_peak_entries = stats.queue_table_peak_entries.max(qt.peak_entries);
            stats.queue_table_overflows += qt.overflows;
            let ps = rt.predict.stats();
            stats.predict_lookups += ps.lookups;
            stats.predict_hits += ps.hits;
            stats.predict_inserts += ps.inserts;
            stats.predict_evictions += ps.evictions;
        }
        // Closing audit: the finished state must satisfy the conservation
        // laws too (all rays accounted for, stall buckets sum to the clock).
        if self.audit_every.is_some() {
            self.audit_invariants()?;
        }
        if let Some(clock) = &self.clock {
            clock.report();
        }
        Ok(())
    }

    /// Ends a lap of a profiled run's [`PhaseClock`]; an unprofiled run
    /// reads no clock.
    #[inline]
    fn lap(&mut self, phase: Option<LoopPhase>) {
        if let Some(clock) = &mut self.clock {
            clock.lap(phase);
        }
    }

    /// Charges the time since the last lap to `phase` without ending one
    /// of its laps: the `rt_units` time before a `traverse` or `mem`
    /// section of `step_warp`.
    #[inline]
    fn split(&mut self, phase: LoopPhase) {
        if let Some(clock) = &mut self.clock {
            clock.charge(Some(phase), 0);
        }
    }

    // -- checkpointing -------------------------------------------------------

    /// Clones the architectural state into a [`Checkpoint`]. Must be
    /// called at a clock-advance quiescent point (see [`Engine::run`]);
    /// [`Engine::restore`] + re-entering `run` then replays the remainder
    /// bit-identically.
    fn capture(&mut self) -> Checkpoint {
        self.settle();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            num_sms: self.rt.len(),
            tasks: self.workload.tasks.len(),
            total_rays: self.workload.total_rays(),
            nodes: self.bvh.nodes().len(),
            config_tag: config_tag(self.cfg),
            now: self.now,
            sched: self.sched.clone(),
            rays: self.rays.positions(self.tape),
            rt: self.rt.clone(),
            obs: self.obs.checkpointed(),
            mem: self.mem.snapshot(),
        }
    }

    /// Restores a freshly constructed engine (same scene, workload and
    /// config as the checkpointed run) to the captured state: the header
    /// is checked, each component validates its saved state against this
    /// engine's fresh one (geometry, and every id the cycle loop will
    /// index with), every ray is issued again and advanced to its
    /// recorded position, and only then is anything replaced.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), SimError> {
        let check = |r: Result<(), String>| r.map_err(SimError::Checkpoint);
        check(ckpt.check_header(self.cfg, self.workload, self.bvh))?;
        check(ckpt.sched.validate(&self.sched))?;
        check(ckpt.rays.validate(self.workload, self.sched.ctas.len(), self.bvh))?;
        let (treelets, nodes) = (self.bvh.partition().len(), self.bvh.nodes().len());
        for (sm, (saved, fresh)) in ckpt.rt.iter().zip(&self.rt).enumerate() {
            let r = saved.validate(fresh, ckpt.rays.len(), treelets, nodes);
            check(r.map_err(|e| format!("sm {sm}: {e}")))?;
        }
        check(ckpt.obs.validate(self.rt.len()))?;
        let mut rays = RayTable::with_hits(ckpt.rays.hits.clone());
        for (i, &(meta, steps)) in ckpt.rays.rays.iter().enumerate() {
            let rid = RayId(i as u32);
            let mut walk = self.issue(rid, meta.task, meta.bounce, meta.lead);
            let advanced = walk.advance(steps, self.bvh, self.triangles);
            check(advanced.map_err(|e| format!("ray {i}: {e}")))?;
            rays.push(walk, meta);
        }
        check(self.mem.restore(&ckpt.mem))?;
        self.now = ckpt.now;
        self.sched = ckpt.sched.clone();
        self.rays = rays;
        self.rt = ckpt.rt.clone();
        self.obs = ckpt.obs.clone();
        self.obs.restart_booking(self.now);
        Ok(())
    }

    // -- integrity -----------------------------------------------------------

    /// Captures the structured machine state for a watchdog forensics dump.
    fn snapshot(&self) -> ForensicsSnapshot {
        let sms = self
            .rt
            .iter()
            .enumerate()
            .map(|(sm, unit)| SmSnapshot {
                sm,
                free_cta_slots: self.sched.free_slots[sm],
                resident_warps: unit.slots.iter().filter(|s| s.is_some()).count(),
                warp_buffer_slots: unit.slots.len(),
                incoming_warps: unit.incoming.len(),
                queued_rays: unit.queues.total_rays(),
                treelet_queues: unit.queues.queue_count(),
                rays_in_flight: unit.rays_in_flight,
                shader_active: self.sched.shader_active[sm],
                reserved_rays: self.sched.reserved_rays[sm],
                last_progress_cycle: self.obs.last_progress[sm],
            })
            .collect();
        ForensicsSnapshot {
            cycle: self.now,
            rays_created: self.rays.len() as u64,
            rays_completed: self.obs.stats.rays_completed,
            ctas_total: self.sched.ctas.len(),
            ctas_unfinished: self.sched.unfinished(),
            pending_ctas: self.sched.pending.len(),
            resume_ready_ctas: self.sched.resume_ready.len(),
            mem_in_flight: self.mem.in_flight_requests(self.now),
            sms,
        }
    }

    /// Re-derives the engine's conservation laws from first principles and
    /// reports the first violated one: ray conservation across the ray
    /// table and the units, then each SM's unit and observer laws (on a
    /// settled observer), then the scheduler's, then the memory
    /// hierarchy's. See [`AuditMode`](crate::AuditMode) for when this runs.
    fn audit_invariants(&mut self) -> Result<(), InvariantViolation> {
        self.settle();
        let fail = |(site, detail): (&str, String)| InvariantViolation {
            cycle: self.now,
            site: site.to_string(),
            detail,
        };
        let in_flight: usize = self.rt.iter().map(|r| r.rays_in_flight).sum();
        let stats = &self.obs.stats;
        let lane_steps = stats.active_lane_steps;
        self.rays.audit(stats.rays_completed, in_flight, lane_steps, self.tape).map_err(fail)?;
        for (sm, unit) in self.rt.iter().enumerate() {
            let on_sm = |(site, detail): (&str, String)| fail((site, format!("sm {sm}: {detail}")));
            unit.audit(self.cfg.warp_size).map_err(on_sm)?;
            let fresh = unit.stall_class(self.sched.shader_active[sm] > 0);
            self.obs.audit(sm, self.now, fresh).map_err(on_sm)?;
        }
        self.sched.audit(self.cfg.max_ctas_per_sm).map_err(fail)?;
        self.mem.audit().map_err(|detail| fail(("mem-accounting", detail)))
    }

    // -- observation --------------------------------------------------------

    /// Observes the clock advancing from `self.now` to `until`. The engine
    /// is at a fixed point, so no architectural state changes in
    /// `[self.now, until)`. Only the units marked since the last advance
    /// are booked ([`Observer::book_marked`]): each books the cycles since
    /// its last booking under its old class and takes the class its state
    /// gives now ([`RtUnit::stall_class`]). An unmarked unit's class still
    /// holds, so its cycles wait for its next mark or [`Engine::settle`].
    /// The time series' machine-wide integrals are booked per advance.
    fn observe_interval(&mut self, until: u64) {
        let window = self.cfg.sample_window_cycles;
        let (rt, active) = (&self.rt, &self.sched.shader_active);
        self.obs.book_marked(self.now, window, |sm| rt[sm].stall_class(active[sm] > 0));
        if window == 0 {
            return;
        }
        // Rays in flight on all units, by the `ray-conservation` law.
        let rays = self.rays.len() as u64 - self.obs.stats.rays_completed;
        let total_slots = (self.rt.len() * self.cfg.max_ctas_per_sm) as u64;
        let free: u64 = self.sched.free_slots.iter().map(|f| *f as u64).sum();
        let occupied = total_slots.saturating_sub(free);
        self.obs.sample_occupancy((self.now, until), window, rays, occupied);
    }

    /// Books every unit up to the clock: called before anything reads the
    /// stall buckets or windows (an audit, a checkpoint capture, the end
    /// of the run). Booking is additive, so settling early moves nothing.
    fn settle(&mut self) {
        self.obs.settle(self.now, self.cfg.sample_window_cycles);
    }

    /// Records an event when a sink is attached, bumping the observer's
    /// recorded-event counter. The closure defers event construction so
    /// untraced runs pay nothing at the call sites.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            self.obs.sink_events += 1;
            sink.record(&make());
        }
    }

    /// Emits a mode-transition event when `mode` differs from the last warp
    /// installed on `sm`.
    fn note_mode(&mut self, sm: usize, mode: TraversalMode) {
        if self.rt[sm].last_mode != Some(mode) {
            let (now, from) = (self.now, self.rt[sm].last_mode);
            self.emit(|| TraceEvent::ModeTransition { cycle: now, sm, from, to: mode });
            self.rt[sm].last_mode = Some(mode);
        }
    }

    // -- scheduling ---------------------------------------------------------

    /// Launches pending CTAs and resumes suspended ones into free slots.
    fn schedule(&mut self) -> bool {
        // Deferred slot releases from suspending CTAs.
        let mut progress = self.sched.release_slots(self.now);
        // Resumes take priority (§3.1: "We prioritize resuming CTAs that
        // have completed traversal") and are NOT gated by the
        // virtualized-ray cap: §4.1 applies the cap to launching new raygen
        // CTAs, while resuming drains pressure (the resumed CTA finishes
        // its bounce and retires or re-suspends). Gating resumes here
        // starves the pipeline.
        // Every CTA is admitted anywhere and nothing here frees a slot, so
        // the first miss ends the loop: no SM has a free slot.
        while !self.sched.resume_ready.is_empty() {
            let Some(sm) = self.sched.find_slot(|_, _| true) else {
                break;
            };
            let id = self.sched.resume_ready.swap_remove(0);
            self.sched.ctas[id].resume_queued = false;
            self.sched.free_slots[sm] -= 1;
            let charge = self.vtq.is_none_or(|v| v.charge_virtualization);
            let restore_done = if charge { self.transfer_cta_state(sm, id) } else { self.now };
            self.obs.stats.cta_resumes += 1;
            let now = self.now;
            self.emit(|| TraceEvent::CtaResume { cycle: now, cta: id, sm });
            self.sched.shader_active[sm] += 1;
            self.obs.mark(sm);
            let shade = self.sched.shader_phase_cycles(self.cfg, sm, self.cfg.shade_cycles);
            self.enter_phase(id, sm, Phase::Shade, restore_done + shade);
            progress = true;
        }
        // Fresh launches.
        while let Some(&id) = self.sched.pending.front() {
            let Some(sm) = self.find_launch_slot() else {
                break;
            };
            self.sched.pending.pop_front();
            let now = self.now;
            self.emit(|| TraceEvent::CtaLaunch { cycle: now, cta: id, sm });
            self.sched.free_slots[sm] -= 1;
            self.sched.shader_active[sm] += 1;
            self.obs.mark(sm);
            let raygen = self.sched.shader_phase_cycles(self.cfg, sm, self.cfg.raygen_cycles);
            self.enter_phase(id, sm, Phase::Raygen, self.now + raygen);
            progress = true;
        }
        progress
    }

    /// Moves CTA `id`'s saved state between `sm` and memory (the save of a
    /// suspend or the restore of a resume); returns the completion cycle.
    fn transfer_cta_state(&mut self, sm: usize, id: usize) -> u64 {
        let bytes = self.cfg.cta_state_bytes();
        self.obs.stats.cta_state_bytes += bytes as u64;
        self.mem.access(
            sm,
            CTA_REGION + id as u64 * 0x1_0000,
            bytes,
            AccessKind::CtaState,
            CachePolicy::DramOnly,
            self.now,
        )
    }

    /// Puts CTA `id` into a timed shader `phase` on `sm`, due at `ready_at`.
    fn enter_phase(&mut self, id: usize, sm: usize, phase: Phase, ready_at: u64) {
        let cta = &mut self.sched.ctas[id];
        cta.sm = sm;
        cta.phase = phase;
        cta.ready_at = ready_at;
        self.sched.timers.push(ready_at, id);
    }

    /// A free slot for a fresh launch: under ray virtualization the SM
    /// must also have room under the virtualized-ray cap, and the
    /// prospective CTA's rays are reserved on success.
    fn find_launch_slot(&mut self) -> Option<usize> {
        let Some(v) = self.vtq else { return self.sched.find_slot(|_, _| true) };
        let (rt, cta_size) = (&self.rt, self.cfg.cta_size);
        let sm = self.sched.find_slot(|sched, sm| {
            rt[sm].rays_in_flight + sched.reserved_rays[sm] + cta_size <= v.max_virtual_rays
        })?;
        self.sched.reserved_rays[sm] += cta_size;
        Some(sm)
    }

    /// Completes Raygen/Shade phases whose timers expired and queues
    /// CTAs whose traversal finished for resume.
    fn process_cta_phases(&mut self) -> bool {
        let mut progress = false;
        while let Some((t, id)) = self.sched.timers.pop_due(self.now) {
            let cta = &mut self.sched.ctas[id];
            if cta.ready_at != t {
                continue; // stale entry
            }
            match cta.phase {
                Phase::Raygen | Phase::Shade => {
                    // Shading ends a bounce; raygen precedes the first.
                    if cta.phase == Phase::Shade {
                        cta.bounce += 1;
                    }
                    let active = &mut self.sched.shader_active[cta.sm];
                    *active = active.saturating_sub(1);
                    self.obs.mark(cta.sm);
                    self.issue_trace(id);
                    progress = true;
                }
                Phase::ReadyToResume if !cta.resume_queued => {
                    cta.resume_queued = true;
                    self.sched.resume_ready.push(id);
                    progress = true;
                }
                _ => {}
            }
        }
        progress
    }

    /// The CTA's warps call traceRayEXT for the current bounce.
    fn issue_trace(&mut self, id: usize) {
        let (first, count, bounce, sm) = {
            let c = &self.sched.ctas[id];
            (c.first_task, c.task_count, c.bounce, c.sm)
        };
        // Release this CTA's launch-admission reservation (resumed CTAs
        // never held one; saturating_sub makes the release idempotent
        // across bounces).
        if self.vtq.is_some() && bounce == 0 {
            let reserved = &mut self.sched.reserved_rays[sm];
            *reserved = reserved.saturating_sub(self.cfg.cta_size);
        }
        // Collect live threads (tasks that still have a ray this bounce).
        let mut new_rays = std::mem::take(&mut self.scratch.new_rays);
        new_rays.clear();
        for t in first..first + count {
            if bounce < self.workload.tasks[t].rays.len() {
                let rid = RayId(self.rays.len() as u32);
                let lead = self.predict_lead(t, bounce, sm);
                let walk = self.issue(rid, t, bounce, lead);
                self.rays.push(walk, RayMeta { cta: id, task: t, bounce, sm, lead });
                new_rays.push(rid);
            }
        }
        if new_rays.is_empty() {
            self.scratch.new_rays = new_rays;
            // Path ended for every thread: CTA retires, slot freed.
            self.sched.retire(id);
            let now = self.now;
            self.emit(|| TraceEvent::CtaRetire { cycle: now, cta: id, sm });
            return;
        }

        self.sched.ctas[id].outstanding = new_rays.len();
        self.rt[sm].rays_in_flight += new_rays.len();
        self.obs.stats.peak_rays_in_flight =
            self.obs.stats.peak_rays_in_flight.max(self.rt[sm].rays_in_flight);

        // With virtualization the ray records are written to the reserved
        // L2 region at issue (§4.2 ①).
        if self.vtq.is_some() {
            for r in &new_rays {
                self.mem.access(
                    sm,
                    ray_addr(self.cfg, *r),
                    self.cfg.ray_record_bytes,
                    AccessKind::Ray,
                    CachePolicy::RayReserve,
                    self.now,
                );
            }
        }

        // Group into shader warps and hand them to the RT unit. Under the
        // prediction policy each warp spends `lookup_latency` cycles in the
        // table pipeline before it can enter the warp buffer; the delay is
        // attributed to the WarpBufferEmpty stall bucket (the unit sits
        // warp-less while the lookup is in flight).
        let arrive = match self.predict {
            Some(p) => self.now + p.lookup_latency as u64,
            None => self.now,
        };
        self.obs.mark(sm);
        for chunk in new_rays.chunks(self.cfg.warp_size) {
            self.rt[sm].incoming.push_back((arrive, chunk.to_vec()));
            self.obs.stats.warps_issued += 1;
            let (now, rays) = (self.now, chunk.len());
            self.emit(|| TraceEvent::WarpIssue { cycle: now, sm, cta: id, rays });
        }

        let charge = self.vtq.is_some_and(|v| v.charge_virtualization);
        match self.vtq {
            Some(_) => {
                // Suspend: save CTA state and free the slot (§4.1). The
                // stores themselves drain asynchronously (their DRAM
                // traffic and bandwidth are charged), but the register
                // file backing the slot can only be reallocated once its
                // values have been read out into the store path — one
                // 64-byte register-file read per cycle.
                self.obs.stats.cta_suspends += 1;
                let (now, rays) = (self.now, new_rays.len());
                self.emit(|| TraceEvent::CtaSuspend { cycle: now, cta: id, sm, rays });
                self.sched.ctas[id].phase = Phase::Suspended;
                if charge {
                    self.transfer_cta_state(sm, id);
                    let readout = self.now + (self.cfg.cta_state_bytes() as u64).div_ceil(64);
                    self.sched.slot_release.push(readout, sm);
                } else {
                    self.sched.free_slots[sm] += 1;
                }
            }
            None => {
                self.sched.ctas[id].phase = Phase::WaitTraversal;
            }
        }
        self.scratch.new_rays = new_rays;
    }

    /// The leaf `sm`'s prediction table has task `task`'s call `bounce`
    /// visit first, if any (ray-path prediction). Rays that miss the scene
    /// bounds skip the lookup (the RT unit rejects them before table
    /// access), so hit-rate stats only count rays that actually traverse.
    fn predict_lead(&mut self, task: usize, bounce: usize, sm: usize) -> Option<NodeId> {
        let p = self.predict?;
        let call = &self.workload.tasks[task].rays[bounce];
        let root = self.bvh.root_bounds();
        root.intersect(&call.ray, TRACE_T_MIN, call.t_max)?;
        let key = predict_key(&root, &call.ray, p.origin_bits, p.dir_bits);
        self.rt[sm].predict.lookup(key)
    }

    /// The traversal of task `task`'s call `bounce`, issued as ray `rid`
    /// with `lead` visited first: a cursor into the tape when the run has
    /// one and nothing is speculated — a speculated leaf is visited ahead
    /// of the root, which changes the walk, so those rays walk the BVH.
    /// Both a fresh ray and a restored one start here.
    fn issue(&mut self, rid: RayId, task: usize, bounce: usize, lead: Option<NodeId>) -> Walk {
        if let (Some(tape), None) = (self.tape, lead) {
            return Walk::Replay(tape.cursor(task, bounce));
        }
        let call = &self.workload.tasks[task].rays[bounce];
        // Recycle a reclaimed stack arena (allocation-free once the pool
        // has warmed up).
        let arena =
            self.scratch.arena_pool.pop().unwrap_or_else(|| StackArena::with_capacity(16, 8));
        let mut ray = RayTraversal::new_in(rid, call.ray, self.bvh, TRACE_T_MIN, call.t_max, arena);
        if call.anyhit {
            ray.set_anyhit();
        }
        if let Some(leaf) = lead {
            ray.speculate(leaf);
        }
        Walk::Live(ray)
    }

    /// Enqueues a ray for a treelet, mirroring the hardware queue table.
    fn enqueue(&mut self, sm: usize, t: TreeletId, rid: RayId) {
        self.rt[sm].queues.push(t, rid);
        let (addr, _) = self.bvh.treelet_extent(t);
        let (entries, lanes) = (self.queue_table_entries, self.cfg.warp_size as u32);
        let _resident = self.rt[sm].hw_table.push(addr, entries, lanes);
    }

    /// Mirrors queue pops into the hardware queue table.
    fn dequeue_hw(&mut self, sm: usize, t: TreeletId, n: usize) {
        let (addr, _) = self.bvh.treelet_extent(t);
        for _ in 0..n {
            self.rt[sm].hw_table.pop(addr);
        }
    }

    /// A ray finished traversal at cycle `at`.
    fn complete_ray(&mut self, rid: RayId, at: u64) {
        let (RayMeta { cta: cta_id, task, bounce, sm, .. }, best_node, arena) =
            self.rays.complete(rid, self.tape);
        // Train the prediction table: the leaf whose triangle produced this
        // ray's accepted hit becomes the prediction for every future ray
        // quantizing to the same cell.
        if let Some(p) = self.predict {
            if let Some(leaf) = best_node {
                let call = &self.workload.tasks[task].rays[bounce];
                let key =
                    predict_key(&self.bvh.root_bounds(), &call.ray, p.origin_bits, p.dir_bits);
                self.rt[sm].predict.train(key, leaf, self.predict_entries);
            }
        }
        // Recycle a walked ray's stack storage for future rays.
        if let Some(arena) = arena {
            self.scratch.arena_pool.push(arena);
        }
        self.obs.stats.rays_completed += 1;
        self.rt[sm].rays_in_flight -= 1;
        let cta = &mut self.sched.ctas[cta_id];
        cta.outstanding -= 1;
        if cta.outstanding == 0 {
            match cta.phase {
                Phase::WaitTraversal => {
                    // Baseline: shade in place.
                    let sm = cta.sm;
                    self.sched.shader_active[sm] += 1;
                    self.obs.mark(sm);
                    let shade = self.sched.shader_phase_cycles(self.cfg, sm, self.cfg.shade_cycles);
                    self.enter_phase(cta_id, sm, Phase::Shade, at + shade);
                }
                Phase::Suspended => {
                    let sm = cta.sm;
                    self.enter_phase(cta_id, sm, Phase::ReadyToResume, at);
                }
                other => panic!("rays completed while CTA in phase {other:?}"),
            }
        }
    }

    // -- RT units -----------------------------------------------------------

    fn step_rt_units(&mut self) -> bool {
        let mut progress = false;
        for sm in 0..self.rt.len() {
            for slot in 0..self.rt[sm].slots.len() {
                loop {
                    if self.rt[sm].slots[slot].is_none() {
                        if !self.acquire_work(sm, slot) {
                            break;
                        }
                        self.obs.progress(sm, self.now);
                    }
                    if self.rt[sm].slots[slot].as_ref().is_some_and(|w| w.ready_at > self.now) {
                        break;
                    }
                    self.step_warp(sm, slot);
                    self.obs.progress(sm, self.now);
                    progress = true;
                }
            }
            if matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch) {
                progress |= self.maybe_prefetch(sm);
            }
        }
        progress
    }

    /// Installs `warp` in the SM's warp-buffer slot.
    fn install(&mut self, sm: usize, slot: usize, warp: Warp) {
        self.note_mode(sm, warp.mode);
        self.rt[sm].slots[slot] = Some(warp);
    }

    /// Tries to fill one of the SM's warp-buffer slots; returns `true` if a
    /// warp was installed.
    fn acquire_work(&mut self, sm: usize, slot: usize) -> bool {
        // 1. Freshly issued warps (initial traversal phase).
        if self.rt[sm].incoming.front().is_some_and(|(arrive, _)| *arrive <= self.now) {
            let (_, rays) = self.rt[sm].incoming.pop_front().expect("checked non-empty");
            let mode = if self.vtq.is_some() {
                TraversalMode::Initial
            } else {
                TraversalMode::RayStationary
            };
            let lanes = rays.into_iter().map(Some).collect();
            let warp =
                Warp { lanes, mode, restrict: None, ready_at: self.now, mem_ready_at: self.now };
            self.install(sm, slot, warp);
            return true;
        }
        let Some(vtq) = self.vtq else { return false };

        // 2. Treelet-stationary dispatch: the current queue, or the largest
        //    queue above the threshold.
        let target = match self.rt[sm].current_queue {
            Some(t) if self.rt[sm].queues.len_of(t) > 0 => Some(t),
            _ => {
                self.rt[sm].current_queue = None;
                let threshold = if vtq.group_underpopulated { vtq.queue_threshold } else { 1 };
                match self.rt[sm].queues.largest() {
                    Some((t, n)) if n >= threshold => Some(t),
                    _ => None,
                }
            }
        };
        if let Some(t) = target {
            let switching = self.rt[sm].current_queue != Some(t);
            self.rt[sm].current_queue = Some(t);
            let mut ready = self.now;
            if switching {
                self.obs.stats.treelet_dispatches += 1;
                ready = ready.max(self.load_treelet(sm, t));
            }
            let (lanes, fetched) =
                self.take_treelet_warp(sm, t, &vtq).expect("a dispatch target has queued rays");
            ready = ready.max(fetched);
            let warp = Warp {
                lanes,
                mode: TraversalMode::TreeletStationary,
                restrict: Some(t),
                ready_at: ready,
                mem_ready_at: ready,
            };
            self.install(sm, slot, warp);
            self.maybe_preload(sm, &vtq);
            return true;
        }

        // 3. Underpopulated queues: group stray rays into ray-stationary
        //    warps (§4.4). Disabled in the naive configuration, where case 2
        //    already dispatched any non-empty queue.
        if vtq.group_underpopulated && !self.rt[sm].queues.is_empty() {
            let grabbed = self.rt[sm].queues.pop_any(self.cfg.warp_size);
            self.charge_queue_overflow(sm, &vtq, grabbed.len());
            let mut ready = self.now;
            let mut lanes = Vec::with_capacity(grabbed.len());
            for (t, r) in grabbed {
                self.dequeue_hw(sm, t, 1);
                self.rays.enter_treelet(r, self.bvh, t);
                ready = ready.max(self.fetch_ray_record(sm, r));
                lanes.push(Some(r));
            }
            let (now, n_rays) = (self.now, lanes.len());
            self.emit(|| TraceEvent::GroupDispatch { cycle: now, sm, rays: n_rays });
            let warp = Warp {
                lanes,
                mode: TraversalMode::RayStationary,
                restrict: None,
                ready_at: ready,
                mem_ready_at: ready,
            };
            self.install(sm, slot, warp);
            return true;
        }
        false
    }

    /// Draws a treelet-stationary warp's lanes from the queue of `t`: pops
    /// up to a warp of rays (mirrored into the hardware table, spill
    /// traffic charged), activates each for the treelet and fetches its
    /// record. Returns the lanes and the cycle the last record arrives, or
    /// `None` when the queue is empty.
    fn take_treelet_warp(
        &mut self,
        sm: usize,
        t: TreeletId,
        vtq: &VtqParams,
    ) -> Option<(Vec<Option<RayId>>, u64)> {
        let rays = self.rt[sm].queues.pop_from(t, self.cfg.warp_size);
        if rays.is_empty() {
            return None;
        }
        self.dequeue_hw(sm, t, rays.len());
        self.charge_queue_overflow(sm, vtq, rays.len());
        let mut ready = self.now;
        for r in &rays {
            self.rays.enter_treelet(*r, self.bvh, t);
            ready = ready.max(self.fetch_ray_record(sm, *r));
        }
        let (now, n_rays) = (self.now, rays.len());
        self.emit(|| TraceEvent::TreeletDispatch { cycle: now, sm, treelet: t, rays: n_rays });
        Some((rays.into_iter().map(Some).collect(), ready))
    }

    /// One lockstep step of the resident warp.
    fn step_warp(&mut self, sm: usize, slot: usize) {
        let mut warp = self.rt[sm].slots[slot].take().expect("step_warp requires a resident warp");
        let vtq = self.vtq;

        // Initial-phase divergence check (§3.2 ①): terminate the warp into
        // the treelet queues once lanes spread over too many treelets.
        if warp.mode == TraversalMode::Initial {
            if let Some(v) = vtq {
                let mut treelets = std::mem::take(&mut self.scratch.treelets);
                treelets.clear();
                for lane in warp.lanes.iter().flatten() {
                    if let Some(t) = self.rays.pending_treelet(*lane, self.bvh, self.tape) {
                        if !treelets.contains(&t) {
                            treelets.push(t);
                        }
                    }
                }
                let diverged = treelets.len() > v.divergence_treelets;
                let n_treelets = treelets.len();
                self.scratch.treelets = treelets;
                if diverged {
                    let lanes: Vec<RayId> = warp.lanes.iter().flatten().copied().collect();
                    let (now, n_rays) = (self.now, lanes.len());
                    self.emit(|| TraceEvent::DivergenceSplit {
                        cycle: now,
                        sm,
                        treelets: n_treelets,
                        rays: n_rays,
                    });
                    for lane in lanes {
                        match self.rays.pending_treelet(lane, self.bvh, self.tape) {
                            Some(t) => self.enqueue(sm, t, lane),
                            None => self.complete_ray(lane, self.now),
                        }
                    }
                    self.charge_queue_overflow(sm, &v, warp.lanes.len());
                    return; // slot stays empty; acquire_work continues
                }
            }
        }

        // Warp repacking (§4.5): refill a drain-mode warp that has gone
        // under-occupied with new rays from the queues.
        if warp.mode == TraversalMode::RayStationary {
            if let Some(v) = vtq {
                let active = warp.lanes.iter().flatten().count();
                if v.repack_threshold > 0
                    && active > 0
                    && active < v.repack_threshold
                    && !self.rt[sm].queues.is_empty()
                {
                    let want = self.cfg.warp_size - active;
                    let grabbed = self.rt[sm].queues.pop_any(want);
                    if !grabbed.is_empty() {
                        self.obs.stats.repack_events += 1;
                        self.obs.stats.repacked_rays += grabbed.len() as u64;
                        let (now, added) = (self.now, grabbed.len());
                        self.emit(|| TraceEvent::Repack { cycle: now, sm, added });
                        for (t, _) in &grabbed {
                            self.dequeue_hw(sm, *t, 1);
                        }
                        let mut fetch_done = self.now;
                        let mut it = grabbed.into_iter();
                        for lane in warp.lanes.iter_mut() {
                            if lane.is_none() {
                                if let Some((t, r)) = it.next() {
                                    self.rays.enter_treelet(r, self.bvh, t);
                                    fetch_done = fetch_done.max(self.fetch_ray_record(sm, r));
                                    *lane = Some(r);
                                }
                            }
                        }
                        warp.ready_at = warp.ready_at.max(fetch_done);
                        if warp.ready_at > self.now {
                            warp.mem_ready_at = warp.ready_at;
                            self.rt[sm].slots[slot] = Some(warp);
                            return;
                        }
                    }
                }
            }
        }

        // Gather each active lane's next node (into pooled scratch so the
        // steady-state step allocates nothing).
        let mut visits = std::mem::take(&mut self.scratch.visits);
        visits.clear();
        let mut exits = std::mem::take(&mut self.scratch.exits);
        exits.clear();
        self.split(LoopPhase::RtUnits);
        for (i, lane) in warp.lanes.iter_mut().enumerate() {
            let Some(rid) = *lane else { continue };
            match self.rays.next_node(rid, self.bvh, self.tape, warp.restrict) {
                NextNode::Visit(n) => visits.push((i, rid, n)),
                NextNode::ExitTreelet(t) => {
                    exits.push((t, rid));
                    *lane = None;
                }
                NextNode::Done => {
                    self.complete_ray(rid, self.now);
                    *lane = None;
                }
            }
        }
        self.lap(Some(LoopPhase::Traverse));

        for &(t, rid) in &exits {
            self.enqueue(sm, t, rid);
        }
        self.scratch.exits = exits;

        if visits.is_empty() {
            self.scratch.visits = visits;
            // Warp drained: treelet warps refill from their queue;
            // everything else retires the warp.
            if warp.mode == TraversalMode::TreeletStationary {
                if let (Some(v), Some(t)) = (vtq, warp.restrict) {
                    if let Some((lanes, ready)) = self.take_treelet_warp(sm, t, &v) {
                        warp.lanes = lanes;
                        warp.ready_at = ready;
                        warp.mem_ready_at = ready;
                        self.rt[sm].slots[slot] = Some(warp);
                        self.maybe_preload(sm, &v);
                        return;
                    }
                    self.rt[sm].current_queue = None;
                }
            }
            let (now, mode) = (self.now, warp.mode);
            self.emit(|| TraceEvent::WarpRetire { cycle: now, sm, mode });
            return; // warp retires
        }

        // SIMT accounting (Figure 1b / 13b).
        self.obs.stats.active_lane_steps += visits.len() as u64;
        self.obs.stats.total_lane_steps += self.cfg.warp_size as u64;

        // Memory: fetch every distinct node record; warp advances when the
        // slowest lane's data arrives (lockstep).
        self.split(LoopPhase::RtUnits);
        let mut completion = self.now;
        let mut fetched = std::mem::take(&mut self.scratch.fetched);
        fetched.clear();
        for &(_, _, n) in &visits {
            if !fetched.contains(&n) {
                fetched.push(n);
            }
        }
        for (k, n) in fetched.iter().enumerate() {
            let addr = self.bvh.addr(*n);
            self.track_prefetch_use(sm, addr.offset, addr.size);
            // Optional memory-scheduler serialization: the k-th distinct
            // fetch of this step issues k/rate cycles after the first.
            let issue_at = match self.cfg.rt_mem_issue_per_cycle {
                0 => self.now,
                rate => self.now + (k as u64) / rate as u64,
            };
            completion = completion.max(self.mem.access(
                sm,
                addr.offset,
                addr.size,
                AccessKind::Bvh,
                CachePolicy::L1AndL2,
                issue_at,
            ));
        }
        self.lap(Some(LoopPhase::Mem));

        // Intersection (fixed-function) and stack updates.
        let mut tests = 0u64;
        for &(_, rid, n) in &visits {
            let cost = self.rays.visit(rid, self.bvh, self.triangles, self.tape, n);
            self.obs.stats.box_tests += cost.box_tests as u64;
            self.obs.stats.tri_tests += cost.tri_tests as u64;
            tests += (cost.box_tests + cost.tri_tests) as u64;
        }
        self.lap(Some(LoopPhase::Traverse));
        self.obs.stats.add_mode_isect(warp.mode, tests);
        self.scratch.visits = visits;

        // A step whose slowest line arrives well past L1 latency indicates a
        // burst of misses serialized behind DRAM; surface it to the sink.
        let stall = completion.saturating_sub(self.now);
        if stall > self.cfg.mem.l1.latency as u64 {
            let (now, mode, lines) = (self.now, warp.mode, fetched.len());
            self.emit(|| TraceEvent::MissBurst { cycle: now, sm, mode, lines, stall });
        }
        self.scratch.fetched = fetched;

        let ready = completion + self.cfg.isect_latency as u64;
        self.obs.stats.add_mode_cycles(warp.mode, ready - self.now);
        let window = self.cfg.sample_window_cycles;
        self.obs.sample_mode_cycles(window, self.now, warp.mode, ready - self.now);
        warp.ready_at = ready;
        warp.mem_ready_at = completion;
        self.rt[sm].slots[slot] = Some(warp);
    }

    // -- VTQ helpers ----------------------------------------------------------

    /// Loads treelet `t`'s bytes into the SM's L1 (missing lines only) as a
    /// controller bulk transfer; returns the completion cycle.
    fn load_treelet(&mut self, sm: usize, t: TreeletId) -> u64 {
        if self.rt[sm].preloaded == Some(t) {
            self.rt[sm].preloaded = None;
            // Already resident (bandwidth was charged at preload time).
            return self.now;
        }
        // The controller streams the whole treelet into the L1 (§4.2 ⑤);
        // lines already resident come back at cache latency, the rest pay
        // DRAM latency and bandwidth.
        let (start, end) = self.bvh.treelet_extent(t);
        self.mem.access(
            sm,
            start,
            (end - start).max(1) as u32,
            AccessKind::Prefetch,
            CachePolicy::L1AndL2,
            self.now,
        )
    }

    /// Preload the *next* treelet while the current queue drains (§4.3):
    /// triggered once the current queue is in its final warp.
    fn maybe_preload(&mut self, sm: usize, vtq: &VtqParams) {
        if !vtq.preload {
            return;
        }
        let Some(current) = self.rt[sm].current_queue else {
            return;
        };
        if self.rt[sm].queues.len_of(current) > self.cfg.warp_size {
            return; // more than one warp left; too early
        }
        // Find the largest other queue worth preloading.
        let candidate = self.rt[sm]
            .queues
            .largest()
            .filter(|(t, n)| *t != current && *n >= vtq.queue_threshold)
            .map(|(t, _)| t);
        let Some(t) = candidate else { return };
        if self.rt[sm].preloaded == Some(t) {
            return;
        }
        let (start, end) = self.bvh.treelet_extent(t);
        self.mem.access(
            sm,
            start,
            (end - start) as u32,
            AccessKind::Prefetch,
            CachePolicy::L1AndL2,
            self.now,
        );
        self.rt[sm].preloaded = Some(t);
    }

    /// Fetches one ray record from the reserved L2 region into the warp
    /// buffer; returns the completion cycle.
    fn fetch_ray_record(&mut self, sm: usize, r: RayId) -> u64 {
        self.mem.access(
            sm,
            ray_addr(self.cfg, r),
            self.cfg.ray_record_bytes,
            AccessKind::Ray,
            CachePolicy::RayReserve,
            self.now,
        )
    }

    /// Charges queue-table / count-table spill traffic when the hardware
    /// capacities are exceeded (§4.2, §6.5).
    fn charge_queue_overflow(&mut self, sm: usize, vtq: &VtqParams, ops: usize) {
        let over_rays = self.rt[sm].queues.overflow_rays(vtq.queue_table_entries);
        let over_queues = self.rt[sm].queues.overflow_queues(vtq.count_table_entries);
        if over_rays > 0 || over_queues > 0 {
            let lines = ops.max(1) as u32;
            self.mem.access(
                sm,
                QUEUE_REGION + sm as u64 * 0x10_0000,
                lines * self.cfg.mem.l1.line_bytes,
                AccessKind::QueueMeta,
                CachePolicy::BypassL1,
                self.now,
            );
        }
    }

    // -- TreeletPrefetch policy (Chou et al. [8]) -----------------------------

    /// Periodically prefetches the most popular pending treelet of the
    /// resident warp's rays.
    fn maybe_prefetch(&mut self, sm: usize) -> bool {
        if self.now < self.rt[sm].last_prefetch_at + self.cfg.prefetch_interval as u64 {
            return false;
        }
        let lanes: Vec<RayId> = self.rt[sm]
            .slots
            .iter()
            .flatten()
            .flat_map(|w| w.lanes.iter().flatten().copied())
            .collect();
        if lanes.is_empty() {
            return false;
        }
        // Vote: most common pending treelet.
        let mut votes: Vec<(TreeletId, usize)> = Vec::new();
        for r in lanes {
            if let Some(t) = self.rays.pending_treelet(r, self.bvh, self.tape) {
                match votes.iter_mut().find(|(vt, _)| *vt == t) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((t, 1)),
                }
            }
        }
        let Some((t, _)) = votes.into_iter().max_by_key(|(t, n)| (*n, std::cmp::Reverse(t.0)))
        else {
            return false;
        };
        self.rt[sm].last_prefetch_at = self.now;
        let (start, end) = self.bvh.treelet_extent(t);
        let line = self.cfg.mem.l1.line_bytes as u64;
        let mut addr = start / line * line;
        let mut issued = false;
        while addr < end {
            if self.mem.missing_l1_lines(sm, addr, 1) > 0 {
                self.mem.access(sm, addr, 1, AccessKind::Prefetch, CachePolicy::L1AndL2, self.now);
                self.rt[sm].prefetched.insert(addr, false);
                self.obs.stats.prefetch_lines += 1;
                issued = true;
            }
            addr += line;
        }
        if issued {
            self.obs.stats.prefetches_issued += 1;
        }
        issued
    }

    /// Marks prefetched lines that are now demanded (usefulness stat).
    fn track_prefetch_use(&mut self, sm: usize, addr: u64, size: u32) {
        if !matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch) {
            return;
        }
        let line = self.cfg.mem.l1.line_bytes as u64;
        let first = addr / line * line;
        let mut a = first;
        while a < addr + size as u64 {
            if let Some(used) = self.rt[sm].prefetched.get_mut(&a) {
                if !*used {
                    *used = true;
                    self.obs.stats.prefetch_lines_used += 1;
                }
            }
            a += line;
        }
    }

    // -- clock ----------------------------------------------------------------

    /// Earliest future event across CTAs and RT units.
    fn next_event(&self) -> Option<u64> {
        let timers = [self.sched.timers.peek(), self.sched.slot_release.peek()];
        let units = self.rt.iter().flat_map(RtUnit::wake_cycles);
        timers.into_iter().flatten().map(|(t, _)| t).chain(units).filter(|t| *t > self.now).min()
    }
}

fn ray_addr(cfg: &GpuConfig, r: RayId) -> u64 {
    RAY_REGION + r.0 as u64 * cfg.ray_record_bytes as u64
}

#[cfg(test)]
mod tests {
    use rtbvh::BvhConfig;
    use rtscene::lumibench::{self, SceneId};

    use super::*;

    /// The auditor's must-go-red: a cached queue counter that disagrees
    /// with the queues fails the run at the next audit.
    #[test]
    fn sabotaged_queue_counter_is_caught_by_the_auditor() {
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let workload = Workload {
            tasks: (0..16)
                .map(|i| PathTask {
                    rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
                })
                .collect(),
        };
        let cfg = GpuConfig::default();
        let mut engine = Engine::new(&bvh, scene.triangles(), &cfg, &workload, None);
        engine.audit_every = Some(1);
        engine.rt[0].queues.corrupt_total(3);
        match engine.run(None, None).expect_err("corrupted counter must trip the auditor") {
            SimError::Invariant(v) => {
                assert_eq!(v.site, "queue-accounting");
                assert!(v.detail.contains("recount"), "got: {}", v.detail);
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    /// The retired-CTA count's must-go-red: a count that disagrees with
    /// the CTAs' phases fails the run at the next audit, before the count
    /// can end the run early.
    #[test]
    fn skewed_retired_count_is_caught_by_the_auditor() {
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let primary = |i: u32| scene.camera().primary_ray(i % 16, i / 16, 16, 16, None).into();
        let workload =
            Workload { tasks: (0..256u32).map(|i| PathTask { rays: vec![primary(i)] }).collect() };
        let cfg = GpuConfig::default();
        let mut engine = Engine::new(&bvh, scene.triangles(), &cfg, &workload, None);
        assert!(engine.sched.ctas.len() > 1);
        engine.audit_every = Some(1);
        engine.sched.corrupt_retired(1);
        match engine.run(None, None).expect_err("a skewed count must trip the auditor") {
            SimError::Invariant(v) => {
                assert_eq!(v.site, "cta-retired");
                assert!(v.detail.contains("retired count 1 != 0"), "got: {}", v.detail);
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    /// The `stall-class` law's must-go-red: a change to what an RT unit's
    /// stall class reads, made without marking the unit, fails the run at
    /// the next audit instead of booking the old class.
    #[test]
    fn unmarked_unit_change_is_caught_by_the_auditor() {
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let workload = Workload {
            tasks: (0..16)
                .map(|i| PathTask {
                    rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
                })
                .collect(),
        };
        let cfg = GpuConfig::default();
        let mut engine = Engine::new(&bvh, scene.triangles(), &cfg, &workload, None);
        engine.audit_every = Some(1);
        // Classify every unit at cycle 0 (all idle), then start a shader
        // phase on the last SM, which the workload's one CTA never uses.
        let (rt, active) = (&engine.rt, &engine.sched.shader_active);
        engine.obs.book_marked(0, 0, |sm| rt[sm].stall_class(active[sm] > 0));
        let last = engine.rt.len() - 1;
        assert_eq!(engine.sched.ctas.len(), 1);
        engine.sched.corrupt_shader_active(last);
        match engine.run(None, None).expect_err("an unmarked change must trip the auditor") {
            SimError::Invariant(v) => {
                assert_eq!(v.site, "stall-class");
                assert!(v.detail.starts_with(&format!("sm {last}: ")), "got: {}", v.detail);
                assert!(v.detail.contains("QueueDrained"), "got: {}", v.detail);
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    /// Visit conservation's must-go-red: an active-lane step count that
    /// disagrees with the steps the rays took fails the run at the next
    /// audit.
    #[test]
    fn skewed_lane_step_count_is_caught_by_the_auditor() {
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let workload = Workload {
            tasks: (0..16)
                .map(|i| PathTask {
                    rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
                })
                .collect(),
        };
        let tape = Tape::record(&bvh, scene.triangles(), &workload);
        let cfg = GpuConfig::default();
        let mut engine = Engine::new(&bvh, scene.triangles(), &cfg, &workload, None);
        engine.tape = Some(&tape);
        engine.audit_every = Some(1);
        engine.obs.corrupt_lane_steps(1);
        match engine.run(None, None).expect_err("a skewed count must trip the auditor") {
            SimError::Invariant(v) => {
                assert_eq!(v.site, "visit-conservation");
                assert!(v.detail.contains("active lane steps"), "got: {}", v.detail);
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }
}
