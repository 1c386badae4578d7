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
use crate::ray::{NextNode, RayId, RayTraversal};
use crate::ray_table::{RayMeta, RayTable, Walk, MAX_CALLS_PER_TASK};
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
        if workload.max_bounces() > MAX_CALLS_PER_TASK {
            return Err(SimError::Workload(format!(
                "a task makes {} trace calls, more than the {MAX_CALLS_PER_TASK} a run holds",
                workload.max_bounces()
            )));
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
            prof::add(prof::Counter::UnitVisits, engine.unit_visits);
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
            hits: engine.rays.hits(),
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
    workload: &'a Workload,
    /// The recorded walks rays replay; `None` walks every ray.
    tape: Option<&'a Tape>,
    mem: MemorySystem,
    now: u64,
    sched: CtaScheduler,
    rays: RayTable,
    rt: Vec<RtUnit>,
    /// The wake agenda: per RT unit, the cycle it next has something to
    /// do at (`None`: nothing until a warp is sent to it). A unit is
    /// stepped only once its wake is due. Derived, never checkpointed:
    /// [`Engine::new`] and [`Engine::restore`] start every unit due. See
    /// DESIGN.md "Wake agenda".
    wake: Vec<Option<u64>>,
    /// RT-unit visits of `step_rt_units`, for the `unit_visits` counter.
    unit_visits: u64,
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
    /// Walks of finished walked rays, reset for fresh ones. The boxes are
    /// what a walked ray's 16-byte row points at, so the pool keeps them
    /// boxed: a fresh walk reuses the allocation as well as its stacks.
    #[allow(clippy::vec_box)]
    walk_pool: Vec<Box<RayTraversal>>,
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
        Engine {
            bvh,
            triangles,
            cfg,
            vtq,
            predict,
            workload,
            tape: None,
            mem: MemorySystem::new(&cfg.mem),
            now: 0,
            sched: CtaScheduler::new(cfg, workload),
            rays: RayTable::new(workload),
            rt: vec![RtUnit::new(cfg); cfg.num_sms()],
            wake: vec![Some(0); cfg.num_sms()],
            unit_visits: 0,
            obs: Observer::new(cfg.num_sms()),
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
            rt.add_table_stats(stats);
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
        check(ckpt.rays.validate(self.workload, self.sched.cta_count(), self.bvh))?;
        let (treelets, nodes) = (self.bvh.partition().len(), self.bvh.nodes().len());
        for (sm, (saved, fresh)) in ckpt.rt.iter().zip(&self.rt).enumerate() {
            let r = saved.validate(fresh, ckpt.rays.len(), treelets, nodes);
            check(r.map_err(|e| format!("sm {sm}: {e}")))?;
        }
        check(ckpt.obs.validate(self.rt.len()))?;
        let mut rays = RayTable::new(self.workload);
        rays.set_hits(&ckpt.rays.hits);
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
        self.wake.fill(Some(self.now));
        Ok(())
    }

    // -- integrity -----------------------------------------------------------

    /// Captures the structured machine state for a watchdog forensics dump.
    fn snapshot(&self) -> ForensicsSnapshot {
        let sms = self.rt.iter().enumerate().map(|(sm, unit)| SmSnapshot {
            last_progress_cycle: self.obs.last_progress[sm],
            ..unit.forensics(sm)
        });
        let mut snapshot = ForensicsSnapshot {
            cycle: self.now,
            rays_created: self.rays.len() as u64,
            rays_completed: self.obs.stats.rays_completed,
            mem_in_flight: self.mem.in_flight_requests(self.now),
            sms: sms.collect(),
            ..ForensicsSnapshot::default()
        };
        self.sched.forensics(&mut snapshot);
        snapshot
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
        let in_flight: usize = self.rt.iter().map(RtUnit::rays_in_flight).sum();
        let stats = &self.obs.stats;
        let lane_steps = stats.active_lane_steps;
        self.rays.audit(stats.rays_completed, in_flight, lane_steps, self.tape).map_err(fail)?;
        for (sm, unit) in self.rt.iter().enumerate() {
            let on_sm = |(site, detail): (&str, String)| fail((site, format!("sm {sm}: {detail}")));
            unit.audit(self.cfg.warp_size).map_err(on_sm)?;
            self.audit_wake(sm).map_err(|detail| on_sm(("unit-wake", detail)))?;
            let fresh = unit.stall_class(self.sched.shading(sm));
            self.obs.audit(sm, self.now, fresh).map_err(on_sm)?;
        }
        self.sched.audit(self.cfg.max_ctas_per_sm).map_err(fail)?;
        self.mem.audit().map_err(|detail| fail(("mem-accounting", detail)))
    }

    /// The `unit-wake` law: the agenda never sleeps through work. No
    /// unit's cached wake is later than the earliest of its
    /// [`RtUnit::wake_cycles`] from now on, and no unit has rays queued
    /// beside an empty warp-buffer slot (what a unit's own step leaves for
    /// a slot it already passed, which is why a unit that stepped stays
    /// due). An audit runs right after a clock advance, when a wake cycle
    /// before now can only be an incoming warp that arrived while every
    /// slot was busy: work for no cycle.
    fn audit_wake(&self, sm: usize) -> Result<(), String> {
        let unit = &self.rt[sm];
        let due = unit.wake_cycles().filter(|at| *at >= self.now).min();
        let cached = self.wake[sm];
        if let Some(due) = due.filter(|due| cached.is_none_or(|at| at > *due)) {
            return Err(format!("cached wake {cached:?} is later than the unit's work at {due}"));
        }
        match unit.stranded_rays() {
            0 => Ok(()),
            rays => Err(format!("{rays} rays queued beside an empty slot, cached wake {cached:?}")),
        }
    }

    /// Sets unit `sm`'s cached wake one cycle past its earliest work from
    /// now on, so the agenda would sleep through that work and the next
    /// audit trips the `unit-wake` law.
    #[cfg(test)]
    fn oversleep(&mut self, sm: usize) {
        let due = self.rt[sm].wake_cycles().filter(|at| *at >= self.now).min();
        self.wake[sm] = due.map(|at| at + 1);
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
        let (rt, sched) = (&self.rt, &self.sched);
        self.obs.book_marked(self.now, window, |sm| rt[sm].stall_class(sched.shading(sm)));
        if window == 0 {
            return;
        }
        // Rays in flight on all units, by the `ray-conservation` law.
        let rays = self.rays.len() as u64 - self.obs.stats.rays_completed;
        let occupied = self.sched.occupied_slots(self.cfg.max_ctas_per_sm);
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
    fn emit(&mut self, make: impl FnOnce(u64) -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            self.obs.sink_events += 1;
            sink.record(&make(self.now));
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
        // starves the pipeline. Every CTA is admitted anywhere and nothing
        // here frees a slot, so the first miss ends the loop.
        while let Some((id, sm)) = self.sched.resume() {
            let charge = self.vtq.is_none_or(|v| v.charge_virtualization);
            let restore_done = if charge { self.transfer_cta_state(sm, id) } else { self.now };
            self.obs.stats.cta_resumes += 1;
            self.emit(|cycle| TraceEvent::CtaResume { cycle, cta: id, sm });
            self.enter_shader(id, Phase::Shade, restore_done);
            progress = true;
        }
        // Fresh launches.
        loop {
            let cap = self.vtq.map(|v| (v.max_virtual_rays, self.cfg.cta_size));
            let rt = &self.rt;
            let Some((id, sm)) = self.sched.launch(cap, |sm| rt[sm].rays_in_flight()) else {
                break;
            };
            self.emit(|cycle| TraceEvent::CtaLaunch { cycle, cta: id, sm });
            self.enter_shader(id, Phase::Raygen, self.now);
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

    /// CTA `id` starts a shader `phase` in its slot at `start`: the one
    /// path into raygen or shading. One of the two places the scheduler
    /// state an RT unit's stall class reads changes (`shading` rises);
    /// `process_cta_phases` is the other.
    fn enter_shader(&mut self, id: usize, phase: Phase, start: u64) {
        let sm = self.sched.start_shader(self.cfg, id, phase, start);
        self.obs.mark(sm);
    }

    /// Completes Raygen/Shade phases whose timers expired and queues
    /// CTAs whose traversal finished for resume.
    fn process_cta_phases(&mut self) -> bool {
        let mut progress = false;
        while let Some((cta, sm)) = self.sched.pop_due(self.now, &mut progress) {
            self.obs.mark(sm);
            self.issue_trace(cta);
            progress = true;
        }
        progress
    }

    /// The CTA's warps call traceRayEXT for the current bounce.
    fn issue_trace(&mut self, id: usize) {
        let reserved = if self.vtq.is_some() { self.cfg.cta_size } else { 0 };
        let (tasks, bounce, sm) = self.sched.trace_issue(id, reserved);
        // Collect live threads (tasks that still have a ray this bounce).
        let mut new_rays = std::mem::take(&mut self.scratch.new_rays);
        new_rays.clear();
        for t in tasks {
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
            self.emit(|cycle| TraceEvent::CtaRetire { cycle, cta: id, sm });
            return;
        }

        let in_flight = self.rt[sm].add_rays(new_rays.len());
        self.obs.stats.peak_rays_in_flight = self.obs.stats.peak_rays_in_flight.max(in_flight);

        // With virtualization the ray records are written to the reserved
        // L2 region at issue (§4.2 ①).
        if self.vtq.is_some() {
            for r in &new_rays {
                self.ray_record(sm, *r);
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
            // A warp that heads the unit's incoming queue is its next
            // arrival: the unit wakes for it.
            if self.rt[sm].send(arrive, chunk) {
                self.wake[sm] = Some(self.wake[sm].map_or(arrive, |at| at.min(arrive)));
            }
            self.obs.stats.warps_issued += 1;
            self.emit(|cycle| TraceEvent::WarpIssue { cycle, sm, cta: id, rays: chunk.len() });
        }

        match self.vtq {
            Some(v) => {
                // Suspend: save CTA state and free the slot (§4.1). The
                // stores themselves drain asynchronously (their DRAM
                // traffic and bandwidth are charged), but the register
                // file backing the slot can only be reallocated once its
                // values have been read out into the store path — one
                // 64-byte register-file read per cycle.
                self.obs.stats.cta_suspends += 1;
                let rays = new_rays.len();
                self.emit(|cycle| TraceEvent::CtaSuspend { cycle, cta: id, sm, rays });
                let slot_free_at = v.charge_virtualization.then(|| {
                    self.transfer_cta_state(sm, id);
                    self.now + (self.cfg.cta_state_bytes() as u64).div_ceil(64)
                });
                self.sched.suspend(id, rays, slot_free_at);
            }
            None => self.sched.wait(id, new_rays.len()),
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
        self.rt[sm].predict_lookup(key)
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
        // Reset a finished walk (allocation-free once the pool has warmed
        // up).
        let mut ray = match self.scratch.walk_pool.pop() {
            Some(mut ray) => {
                ray.reset(rid, call.ray, self.bvh, TRACE_T_MIN, call.t_max);
                ray
            }
            None => Box::new(RayTraversal::new(rid, call.ray, self.bvh, TRACE_T_MIN, call.t_max)),
        };
        if call.anyhit {
            ray.set_anyhit();
        }
        if let Some(leaf) = lead {
            ray.speculate(leaf);
        }
        Walk::Live(ray)
    }

    /// A ray finished traversal at cycle `at`.
    fn complete_ray(&mut self, rid: RayId, at: u64) {
        let (RayMeta { cta, task, bounce, sm, .. }, best_node, walk) =
            self.rays.complete(rid, self.tape);
        // Train the prediction table: the leaf whose triangle produced this
        // ray's accepted hit becomes the prediction for every future ray
        // quantizing to the same cell.
        if let Some(p) = self.predict {
            if let Some(leaf) = best_node {
                let call = &self.workload.tasks[task].rays[bounce];
                let key =
                    predict_key(&self.bvh.root_bounds(), &call.ray, p.origin_bits, p.dir_bits);
                self.rt[sm].predict_train(self.cfg, key, leaf);
            }
        }
        // Recycle a walked ray's traversal for future rays.
        if let Some(walk) = walk {
            self.scratch.walk_pool.push(walk);
        }
        self.obs.stats.rays_completed += 1;
        self.rt[sm].finish_ray();
        if self.sched.complete_ray(cta, at) {
            self.enter_shader(cta, Phase::Shade, at);
        }
    }

    // -- RT units -----------------------------------------------------------

    /// Visits the RT units whose wake is due — under TreeletPrefetch every
    /// unit, whose prefetch clock is not an event — and steps their warps.
    /// A unit that stepped stays due: its own steps may have queued work
    /// for a slot it already passed. Any other visited unit sleeps until
    /// the earliest of its [`RtUnit::wake_cycles`] after now.
    fn step_rt_units(&mut self) -> bool {
        let prefetch = matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch);
        let mut progress = false;
        for sm in 0..self.rt.len() {
            if !prefetch && self.wake[sm].is_none_or(|at| at > self.now) {
                continue;
            }
            self.unit_visits += 1;
            let stepped = self.step_unit(sm);
            self.wake[sm] = if stepped {
                Some(self.now)
            } else {
                self.rt[sm].wake_cycles().filter(|at| *at > self.now).min()
            };
            progress |= stepped;
            if prefetch {
                progress |= self.maybe_prefetch(sm);
            }
        }
        progress
    }

    /// Fills and steps the SM's warp-buffer slots until every one is
    /// empty with nothing to take, or waits; returns whether a warp
    /// stepped.
    fn step_unit(&mut self, sm: usize) -> bool {
        let mut stepped = false;
        for slot in 0..self.rt[sm].slot_count() {
            loop {
                if self.rt[sm].ready_at(slot).is_none() {
                    if !self.acquire_work(sm, slot) {
                        break;
                    }
                    self.obs.progress(sm, self.now);
                }
                if self.rt[sm].ready_at(slot).is_some_and(|at| at > self.now) {
                    break;
                }
                self.step_warp(sm, slot);
                self.obs.progress(sm, self.now);
                stepped = true;
            }
        }
        stepped
    }

    /// Installs `warp` in the SM's warp-buffer slot, emitting a
    /// mode-transition event when its mode differs from the last warp's.
    fn install(&mut self, sm: usize, slot: usize, warp: Warp) {
        let to = warp.mode;
        if let Some(from) = self.rt[sm].install(slot, warp) {
            self.emit(|cycle| TraceEvent::ModeTransition { cycle, sm, from, to });
        }
    }

    /// Tries to fill one of the SM's warp-buffer slots; returns `true` if a
    /// warp was installed.
    fn acquire_work(&mut self, sm: usize, slot: usize) -> bool {
        // 1. Freshly issued warps (initial traversal phase).
        if let Some(rays) = self.rt[sm].take_arrived(self.now) {
            let mode = if self.vtq.is_some() {
                TraversalMode::Initial
            } else {
                TraversalMode::RayStationary
            };
            let lanes = rays.into_iter().map(Some).collect();
            self.install(sm, slot, Warp::new(lanes, mode, None, self.now));
            return true;
        }
        let Some(vtq) = self.vtq else { return false };

        // 2. Treelet-stationary dispatch: the current queue, or the largest
        //    queue above the threshold.
        if let Some((t, switching)) = self.rt[sm].dispatch_target(&vtq) {
            let mut loaded = self.now;
            if switching {
                self.obs.stats.treelet_dispatches += 1;
                loaded = self.load_treelet(sm, t);
            }
            let warp = self.take_warp(sm, Some(t), loaded).expect("a dispatch target has rays");
            self.install(sm, slot, warp);
            self.maybe_preload(sm, &vtq);
            return true;
        }

        // 3. Underpopulated queues: group stray rays into ray-stationary
        //    warps (§4.4). Disabled in the naive configuration, where case 2
        //    already dispatched any non-empty queue.
        if vtq.group_underpopulated {
            if let Some(warp) = self.take_warp(sm, None, self.now) {
                self.install(sm, slot, warp);
                return true;
            }
        }
        false
    }

    /// Draws a warp from the queues: a treelet-stationary warp from the
    /// queue of `from`, or with `None` a ray-stationary warp grouped from
    /// the most populated queues (§4.4). The pops are charged spill
    /// traffic, then each ray is activated and its record fetched; the
    /// warp is ready when the last record arrives, and not before
    /// `not_before` (a treelet load). `None` when there was nothing to pop.
    fn take_warp(&mut self, sm: usize, from: Option<TreeletId>, not_before: u64) -> Option<Warp> {
        let rays = self.rt[sm].pop(self.bvh, from, self.cfg.warp_size);
        if rays.is_empty() {
            return None;
        }
        self.charge_queue_overflow(sm, rays.len());
        let ready = self.activate(sm, &rays).max(not_before);
        let n = rays.len();
        let lanes = rays.into_iter().map(|(_, r)| Some(r)).collect();
        Some(match from {
            Some(treelet) => {
                self.emit(|cycle| TraceEvent::TreeletDispatch { cycle, sm, treelet, rays: n });
                Warp::new(lanes, TraversalMode::TreeletStationary, from, ready)
            }
            None => {
                self.emit(|cycle| TraceEvent::GroupDispatch { cycle, sm, rays: n });
                Warp::new(lanes, TraversalMode::RayStationary, None, ready)
            }
        })
    }

    /// Activates rays popped from the queues, each for the treelet it was
    /// queued for, and fetches their records from the reserved L2 region
    /// into the warp buffer; returns the cycle the last record arrives.
    fn activate(&mut self, sm: usize, rays: &[(TreeletId, RayId)]) -> u64 {
        let mut ready = self.now;
        for &(t, r) in rays {
            self.rays.enter_treelet(r, self.bvh, t);
            ready = ready.max(self.ray_record(sm, r));
        }
        ready
    }

    /// Moves ray `r`'s record between the warp buffer and the reserved L2
    /// region (the write at issue, the fetch at activation); returns the
    /// completion cycle.
    fn ray_record(&mut self, sm: usize, r: RayId) -> u64 {
        let bytes = self.cfg.ray_record_bytes;
        let addr = RAY_REGION + r.0 as u64 * bytes as u64;
        self.mem.access(sm, addr, bytes, AccessKind::Ray, CachePolicy::RayReserve, self.now)
    }

    /// One lockstep step of the resident warp.
    fn step_warp(&mut self, sm: usize, slot: usize) {
        let mut warp = self.rt[sm].take_warp(slot);
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
                    self.emit(|cycle| TraceEvent::DivergenceSplit {
                        cycle,
                        sm,
                        treelets: n_treelets,
                        rays: lanes.len(),
                    });
                    for lane in lanes {
                        match self.rays.pending_treelet(lane, self.bvh, self.tape) {
                            Some(t) => self.rt[sm].push(self.cfg, self.bvh, t, lane),
                            None => self.complete_ray(lane, self.now),
                        }
                    }
                    self.charge_queue_overflow(sm, warp.lanes.len());
                    return; // slot stays empty; acquire_work continues
                }
            }
        }

        // Warp repacking (§4.5): refill the vacant lanes of a drain-mode
        // warp that has gone under-occupied with rays from the queues (a
        // grouped warp may be narrower than `warp_size`). Repack pops are
        // never charged spill traffic (DESIGN.md "Queue spill traffic").
        if warp.mode == TraversalMode::RayStationary {
            if let Some(v) = vtq {
                let active = warp.lanes.iter().flatten().count();
                if v.repack_threshold > 0 && active > 0 && active < v.repack_threshold {
                    let grabbed = self.rt[sm].pop(self.bvh, None, warp.lanes.len() - active);
                    if !grabbed.is_empty() {
                        self.obs.stats.repack_events += 1;
                        self.obs.stats.repacked_rays += grabbed.len() as u64;
                        self.emit(|cycle| TraceEvent::Repack { cycle, sm, added: grabbed.len() });
                        let fetch_done = self.activate(sm, &grabbed);
                        let vacant = warp.lanes.iter_mut().filter(|lane| lane.is_none());
                        for (lane, (_, r)) in vacant.zip(grabbed) {
                            *lane = Some(r);
                        }
                        warp.ready_at = warp.ready_at.max(fetch_done);
                        if warp.ready_at > self.now {
                            warp.mem_ready_at = warp.ready_at;
                            self.rt[sm].put_warp(slot, warp);
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

        // Treelet-exit pushes are never charged spill traffic (DESIGN.md
        // "Queue spill traffic").
        for &(t, rid) in &exits {
            self.rt[sm].push(self.cfg, self.bvh, t, rid);
        }
        self.scratch.exits = exits;

        if visits.is_empty() {
            self.scratch.visits = visits;
            // Warp drained: treelet warps refill from their queue;
            // everything else retires the warp.
            if warp.mode == TraversalMode::TreeletStationary {
                if let (Some(v), Some(t)) = (vtq, warp.restrict) {
                    if let Some(refill) = self.take_warp(sm, Some(t), self.now) {
                        self.rt[sm].put_warp(slot, refill);
                        self.maybe_preload(sm, &v);
                        return;
                    }
                    self.rt[sm].end_dispatch();
                }
            }
            self.emit(|cycle| TraceEvent::WarpRetire { cycle, sm, mode: warp.mode });
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
            if matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch) {
                let line = self.cfg.mem.l1.line_bytes as u64;
                self.obs.stats.prefetch_lines_used +=
                    self.rt[sm].use_prefetched(addr.offset, addr.size, line);
            }
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
            let (mode, lines) = (warp.mode, fetched.len());
            self.emit(|cycle| TraceEvent::MissBurst { cycle, sm, mode, lines, stall });
        }
        self.scratch.fetched = fetched;

        let ready = completion + self.cfg.isect_latency as u64;
        self.obs.stats.add_mode_cycles(warp.mode, ready - self.now);
        let window = self.cfg.sample_window_cycles;
        self.obs.sample_mode_cycles(window, self.now, warp.mode, ready - self.now);
        warp.ready_at = ready;
        warp.mem_ready_at = completion;
        self.rt[sm].put_warp(slot, warp);
    }

    // -- VTQ helpers ----------------------------------------------------------

    /// Loads treelet `t` for a dispatch on `sm` unless it was preloaded
    /// (its bandwidth was charged then); returns the completion cycle.
    fn load_treelet(&mut self, sm: usize, t: TreeletId) -> u64 {
        if self.rt[sm].take_preloaded(t) {
            return self.now;
        }
        self.stream_treelet(sm, t)
    }

    /// Preloads the *next* treelet while the current queue drains (§4.3).
    fn maybe_preload(&mut self, sm: usize, vtq: &VtqParams) {
        if let Some(t) = self.rt[sm].preload(self.cfg, vtq) {
            self.stream_treelet(sm, t);
        }
    }

    /// The controller streams treelet `t`'s bytes into the SM's L1 as one
    /// bulk transfer (§4.2 ⑤): lines already resident come back at cache
    /// latency, the rest pay DRAM latency and bandwidth. Returns the
    /// completion cycle.
    fn stream_treelet(&mut self, sm: usize, t: TreeletId) -> u64 {
        let (start, end) = self.bvh.treelet_extent(t);
        let bytes = (end - start).max(1) as u32;
        self.mem.access(sm, start, bytes, AccessKind::Prefetch, CachePolicy::L1AndL2, self.now)
    }

    /// Charges queue-table / count-table spill traffic when the hardware
    /// capacities are exceeded (§4.2, §6.5).
    fn charge_queue_overflow(&mut self, sm: usize, ops: usize) {
        if self.rt[sm].spills(self.cfg) {
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
        let (rays, bvh, tape) = (&mut self.rays, self.bvh, self.tape);
        let pending = |r| rays.pending_treelet(r, bvh, tape);
        let interval = self.cfg.prefetch_interval as u64;
        let Some(t) = self.rt[sm].prefetch_target(self.now, interval, pending) else {
            return false;
        };
        let (start, end) = self.bvh.treelet_extent(t);
        let line = self.cfg.mem.l1.line_bytes as u64;
        let mut lines = Vec::new();
        let mut addr = start / line * line;
        while addr < end {
            if self.mem.missing_l1_lines(sm, addr, 1) > 0 {
                self.mem.access(sm, addr, 1, AccessKind::Prefetch, CachePolicy::L1AndL2, self.now);
                lines.push(addr);
            }
            addr += line;
        }
        self.rt[sm].prefetched(&lines);
        self.obs.stats.prefetch_lines += lines.len() as u64;
        self.obs.stats.prefetches_issued += u64::from(!lines.is_empty());
        !lines.is_empty()
    }

    // -- clock ----------------------------------------------------------------

    /// Earliest future event across CTAs and RT units: the scheduler's
    /// timers and the wake agenda.
    fn next_event(&self) -> Option<u64> {
        let units = self.wake.iter().flatten().copied();
        self.sched.wake_cycles().chain(units).filter(|t| *t > self.now).min()
    }
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
        engine.rt[0].corrupt_queue_total(3);
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
        assert!(engine.sched.cta_count() > 1);
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
        let (rt, sched) = (&engine.rt, &engine.sched);
        engine.obs.book_marked(0, 0, |sm| rt[sm].stall_class(sched.shading(sm)));
        let last = engine.rt.len() - 1;
        assert_eq!(engine.sched.cta_count(), 1);
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

    /// The `unit-wake` law's must-go-red: a unit whose cached wake is later
    /// than its next work fails the audit. The law holds where `run`
    /// audits, right after a clock advance, so the test audits restored
    /// checkpoints, which are taken there.
    #[test]
    fn an_oversleeping_unit_is_caught_by_the_auditor() {
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let primary = |i: u32| scene.camera().primary_ray(i % 16, i / 16, 16, 16, None).into();
        let workload =
            Workload { tasks: (0..256u32).map(|i| PathTask { rays: vec![primary(i)] }).collect() };
        let cfg = GpuConfig::default();
        let sim = Simulator::new(&bvh, scene.triangles(), cfg);
        let mut ckpts = Vec::new();
        sim.try_run_checkpointed(&workload, 100, &mut |c| ckpts.push(c)).unwrap();
        for ckpt in &ckpts {
            let mut engine = Engine::new(&bvh, scene.triangles(), &cfg, &workload, None);
            engine.restore(ckpt).unwrap();
            engine.audit_invariants().expect("a restored engine keeps every law");
            let now = engine.now;
            let busy =
                (0..engine.rt.len()).find(|&sm| engine.rt[sm].wake_cycles().any(|at| at >= now));
            let Some(sm) = busy else { continue };
            engine.oversleep(sm);
            let v =
                engine.audit_invariants().expect_err("an oversleeping unit must trip the auditor");
            assert_eq!(v.site, "unit-wake");
            assert!(v.detail.starts_with(&format!("sm {sm}: cached wake")), "got: {}", v.detail);
            return;
        }
        panic!("no snapshot has a unit with work ahead");
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
