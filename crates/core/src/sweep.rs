//! Parallel sweep engine: a declarative run matrix executed on a
//! work-stealing thread pool with prepared-scene caching.
//!
//! The paper's evaluation is an embarrassingly parallel run matrix —
//! every figure simulates scene × policy cells that share nothing but the
//! prepared scene (geometry, BVH, workload). This module turns that shape
//! into an API:
//!
//! * [`RunMatrix`] declares the cells (scene × [`TraversalPolicy`] ×
//!   config overrides) of one experiment,
//! * [`PreparedCache`] memoizes the five stages of a [`Prepared`] scene
//!   (scene, tree, workload, layout, tape), each keyed on only the
//!   configuration fields it reads, so each is built **once per
//!   process** no matter how many figures and presets touch it,
//! * [`SweepEngine`] executes the matrix on a hand-rolled work-stealing
//!   pool over [`std::thread::scope`] (no dependencies), sized by
//!   [`std::thread::available_parallelism`] unless overridden.
//!
//! # Determinism contract
//!
//! Results are collected **in matrix order** regardless of execution
//! interleaving: cell `i`'s result is always at index `i` of the returned
//! vector. Simulation itself is single-threaded per cell and seeded, so a
//! sweep at `--jobs N` is bit-identical to `--jobs 1` — same cycle counts,
//! same stall buckets, same exported bytes. Only *stderr* progress lines
//! may interleave differently.
//!
//! # Failure isolation
//!
//! A cell that panics is caught ([`std::panic::catch_unwind`]) and
//! surfaced as a [`CellError`] carrying the cell index, label and panic
//! payload; the remaining cells still run to completion.
//!
//! # Durability
//!
//! An engine can carry a [`SweepJournal`]: every cell then gets a stable
//! key (`scope/wave/index/label[#config-fingerprint]`) and its
//! disposition is journaled as it settles. Under a *resumed* journal,
//! cells already journaled `done` are skipped and surface as
//! [`CellErrorKind::Skipped`] (their artifacts are already on disk from
//! the interrupted run). When [`crate::durable::request_cancel`] fires —
//! e.g. from a SIGINT handler — in-flight cells drain normally and
//! not-yet-started cells settle as [`CellErrorKind::Interrupted`], so the
//! journal stays consistent for the next `--resume`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hasher as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gpusim::{SimReport, Tape, TraversalPolicy, Workload};
use rtbvh::{Builder, Bvh, WideTree};
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;

use crate::durable::{cancel_requested, CancelToken, CellDisposition, SweepJournal};
use crate::experiment::{ExperimentConfig, Prepared};
use crate::jsonl::Fnv1a;
use crate::workload::{Image, PathTracer};

/// Global progress-line switch set by `vtq-bench --quiet`: suppresses
/// the stderr `[prepare]`-style chatter (useful under CI and when
/// timing). Results and tables on stdout are unaffected.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Enables or disables stderr progress lines process-wide.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// `true` when progress lines are suppressed (`--quiet`).
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// A boxed pool task (label shown in errors lives alongside it).
type Task<'t, T> = Box<dyn FnOnce() -> T + Send + 't>;

// ---------------------------------------------------------------------------
// Config fingerprinting & the prepared-scene cache
// ---------------------------------------------------------------------------

/// FNV-1a over the derived `Debug` rendering of `fields`: every field of
/// the config tree is plain data whose `Debug` form holds every bit.
fn fingerprint(fields: impl fmt::Debug) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(format!("{fields:?}").as_bytes());
    hash.finish()
}

/// Fingerprints everything about an [`ExperimentConfig`] except the
/// traversal *policy*: scene detail, resolution, bounces, BVH and GPU
/// parameters. The policy is normalized out because
/// [`Prepared::run_policy`] sets it per run. Journal keys and the
/// `vtq-serve` result cache address cells by it; the [`PreparedCache`]
/// keys each stage on only the fields that stage reads.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> u64 {
    let mut canonical = *cfg;
    canonical.gpu.policy = TraversalPolicy::Baseline;
    fingerprint(canonical)
}

/// Fingerprints one [`Cell`] for journal keys: the config fingerprint
/// plus the exact policy (parameters included), so ablation cells sharing
/// a label ("REF/vtq" at nine different [`gpusim::VtqParams`]) journal as
/// distinct cells. Public because the `vtq-serve` result cache addresses
/// its entries by `scene + this fingerprint`. A [`RunMatrix`] computes it
/// once per cell, as the cell is added ([`RunMatrix::keys`]).
pub fn cell_key_fingerprint(cell: &Cell) -> u64 {
    cell_key(config_fingerprint(&cell.config), &cell.policy)
}

/// [`cell_key_fingerprint`] of a cell whose config fingerprints to
/// `config_fp`: cells sharing a configuration hash it once.
pub fn cell_key(config_fp: u64, policy: &TraversalPolicy) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(&config_fp.to_le_bytes());
    hash.write(format!("{policy:?}").as_bytes());
    hash.finish()
}

/// One memoized preparation stage: a build-once slot per key, and how
/// many keys were built.
#[derive(Debug)]
struct Stage<V> {
    slots: Mutex<HashMap<u64, Arc<OnceLock<V>>>>,
    misses: AtomicUsize,
}

impl<V> Default for Stage<V> {
    fn default() -> Stage<V> {
        Stage { slots: Mutex::default(), misses: AtomicUsize::new(0) }
    }
}

impl<V: Clone> Stage<V> {
    /// The product for `key`, from `build` (profiled as `prepare/<name>`)
    /// on first use. Concurrent requests for one key block on one build
    /// instead of duplicating it; different keys build in parallel.
    fn get(&self, key: u64, name: &str, build: impl FnOnce() -> V) -> V {
        let slot = {
            let mut slots = self.slots.lock().expect("prepared cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let build = || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            prof::add(prof::Counter::PreparedBuilds, 1);
            let _prepare = prof::span("prepare");
            let _stage = prof::span(name);
            build()
        };
        // A worker that blocks here on another worker's build is not
        // using its core, so the build may fork onto it (`prof::par`).
        prof::par::waiting(|| slot.get_or_init(|| prof::par::working(build))).clone()
    }

    fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// How many products each preparation stage of a [`PreparedCache`] built:
/// its misses (a hit builds nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounts {
    /// Scenes generated.
    pub scenes: usize,
    /// Wide trees built (binned SAH, then the 4-wide collapse).
    pub trees: usize,
    /// Workloads path-traced and put in ray order, with their images.
    pub workloads: usize,
    /// Layouts of a tree: node format, treelet partition, byte addresses.
    pub layouts: usize,
    /// Tapes recorded, one per layout × workload.
    pub tapes: usize,
}

impl fmt::Display for StageCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let StageCounts { scenes, trees, workloads, layouts, tapes } = self;
        write!(
            f,
            "{scenes} scenes, {trees} wide trees, {workloads} workloads, {layouts} layouts, \
             {tapes} tapes"
        )
    }
}

/// Memoizes the five stages of a [`Prepared`] scene, each keyed on only
/// the configuration fields it reads, folded with the keys of the stages
/// it builds on:
///
/// 1. **scene** — `lumibench::build_scaled`;
/// 2. **tree** — the binned-SAH BVH2 collapsed into a [`WideTree`];
/// 3. **workload** — the path trace on that tree, in the cell's ray
///    order, and its image;
/// 4. **layout** — [`Bvh::lay_out`] of the tree under the cell's node
///    format and treelet budget;
/// 5. **tape** — [`Tape::record`] of the workload on the layout.
///
/// So a quantized or treelet-budget cell adds a layout and a tape to the
/// scene, tree and workload the default cells built, and a cell that
/// changes only GPU parameters builds nothing. The workload is traced on
/// the tree, never on a layout, so which cell asks first cannot change
/// it. Entries stay alive for the whole process, and later figures get
/// them for free.
#[derive(Debug, Default)]
pub struct PreparedCache {
    scenes: Stage<Arc<Scene>>,
    trees: Stage<Arc<WideTree>>,
    workloads: Stage<(Arc<Workload>, Arc<Image>)>,
    layouts: Stage<Arc<Bvh>>,
    tapes: Stage<Arc<Tape>>,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> PreparedCache {
        PreparedCache::default()
    }

    /// Returns the prepared scene for `(id, cfg)`, building the stages it
    /// lacks. A workload it path-traces prints a `[prepare]` progress
    /// line to stderr.
    pub fn get(&self, id: SceneId, cfg: &ExperimentConfig) -> Arc<Prepared> {
        Arc::new(self.prepare(id, cfg))
    }

    pub(crate) fn prepare(&self, id: SceneId, cfg: &ExperimentConfig) -> Prepared {
        let b = &cfg.bvh;
        let scene_key = fingerprint((id, cfg.detail_divisor));
        let scene = self
            .scenes
            .get(scene_key, "scene", || Arc::new(lumibench::build_scaled(id, cfg.detail_divisor)));
        let tree_key = fingerprint((
            scene_key,
            b.sah_bins,
            b.max_leaf_prims,
            b.max_leaf_prims_hard,
            b.traversal_cost,
        ));
        let tree = self.trees.get(tree_key, "tree", || {
            Arc::new(WideTree::build(scene.triangles(), b, Builder::BinnedSah))
        });
        // No layout field: every layout of a tree traces the same calls
        // (`tests/prepare_stages.rs`).
        let workload_key = fingerprint((
            tree_key,
            cfg.resolution,
            cfg.max_bounces,
            cfg.spp,
            cfg.shadow_rays,
            cfg.ray_order,
        ));
        let (workload, image) = self.workloads.get(workload_key, "workload", || {
            if !quiet() {
                eprintln!(
                    "[prepare] {id} (detail 1/{}, {}x{} @ {} bounces)",
                    cfg.detail_divisor, cfg.resolution, cfg.resolution, cfg.max_bounces
                );
            }
            let mut tracer = PathTracer::new(cfg.resolution, cfg.max_bounces).with_spp(cfg.spp);
            if cfg.shadow_rays {
                tracer = tracer.with_shadow_rays();
            }
            let (workload, image) = tracer.run(&scene, &tree);
            (Arc::new(cfg.ray_order.apply(workload, &scene, &tree)), Arc::new(image))
        });
        let layout_key = fingerprint((tree_key, b.node_format, b.treelet_bytes, b.layout));
        let bvh = self.layouts.get(layout_key, "layout", || Arc::new(Bvh::lay_out(tree, b)));
        let tape = self.tapes.get(fingerprint((layout_key, workload_key)), "tape", || {
            Arc::new(Tape::record(&bvh, scene.triangles(), &workload))
        });
        Prepared { id, scene, bvh, workload, image, tape, gpu: cfg.gpu }
    }

    /// How many products each stage built (its cache misses).
    pub fn misses(&self) -> StageCounts {
        StageCounts {
            scenes: self.scenes.misses(),
            trees: self.trees.misses(),
            workloads: self.workloads.misses(),
            layouts: self.layouts.misses(),
            tapes: self.tapes.misses(),
        }
    }
}

// ---------------------------------------------------------------------------
// The run matrix
// ---------------------------------------------------------------------------

/// One simulation cell: a scene, the full experiment configuration
/// (carrying any GPU/BVH overrides) and the traversal policy to run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scene to simulate.
    pub scene: SceneId,
    /// Configuration (GPU overrides ride in `config.gpu`, including
    /// [`gpusim::VtqParams`] inside a [`TraversalPolicy::Vtq`]).
    pub config: ExperimentConfig,
    /// Traversal architecture for this cell.
    pub policy: TraversalPolicy,
    /// Human-readable label, used in errors and progress output.
    pub label: String,
}

/// A declarative matrix of simulation cells. Cell indices are stable:
/// the engine returns results in exactly this order.
///
/// Each cell's [`cell_key_fingerprint`] is computed when the cell is
/// added and kept beside it, so the journal, the `vtq-serve` result
/// cache and everything else that addresses a cell read [`keys`]
/// instead of re-hashing its configuration.
///
/// [`keys`]: RunMatrix::keys
#[derive(Debug, Clone, Default)]
pub struct RunMatrix {
    cells: Vec<Cell>,
    /// `keys[i]` is `cell_key_fingerprint(&cells[i])`.
    keys: Vec<u64>,
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> RunMatrix {
        RunMatrix::default()
    }

    /// Appends a cell; returns its stable index.
    pub fn push(&mut self, cell: Cell) -> usize {
        let key = cell_key_fingerprint(&cell);
        self.push_keyed(cell, key)
    }

    fn push_keyed(&mut self, cell: Cell, key: u64) -> usize {
        self.cells.push(cell);
        self.keys.push(key);
        self.cells.len() - 1
    }

    /// Appends a `(scene, config, policy)` cell with a `scene/policy`
    /// label; returns its stable index.
    pub fn add(
        &mut self,
        scene: SceneId,
        config: &ExperimentConfig,
        policy: TraversalPolicy,
    ) -> usize {
        self.add_keyed(scene, config, policy, cell_key(config_fingerprint(config), &policy))
    }

    fn add_keyed(
        &mut self,
        scene: SceneId,
        config: &ExperimentConfig,
        policy: TraversalPolicy,
        key: u64,
    ) -> usize {
        let label = format!("{}/{}", scene.name(), policy.label());
        self.push_keyed(Cell { scene, config: *config, policy, label }, key)
    }

    /// Appends the full cross product `scenes × policies` under one
    /// configuration (scene-major order, matching row-major result
    /// grouping). Returns the configuration's [`config_fingerprint`],
    /// which it computes once for all the cells.
    pub fn cross(
        &mut self,
        scenes: &[SceneId],
        config: &ExperimentConfig,
        policies: &[TraversalPolicy],
    ) -> u64 {
        let config_fp = config_fingerprint(config);
        let keys: Vec<u64> = policies.iter().map(|policy| cell_key(config_fp, policy)).collect();
        for &scene in scenes {
            for (&policy, &key) in policies.iter().zip(&keys) {
                self.add_keyed(scene, config, policy, key);
            }
        }
        config_fp
    }

    /// Keeps only the cells for which `keep(cell, key)` holds, in their
    /// order; the kept cells are renumbered from 0.
    pub fn retain(&mut self, mut keep: impl FnMut(&Cell, u64) -> bool) {
        let (mut cells, mut keys) = (Vec::new(), Vec::new());
        for (cell, key) in self.cells.drain(..).zip(self.keys.drain(..)) {
            if keep(&cell, key) {
                cells.push(cell);
                keys.push(key);
            }
        }
        (self.cells, self.keys) = (cells, keys);
    }

    /// The cells, in index order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Each cell's [`cell_key_fingerprint`], in index order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Cell errors
// ---------------------------------------------------------------------------

/// Why a cell produced no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell's closure panicked; `message` carries the payload.
    Panic,
    /// Cancellation ([`crate::durable::request_cancel`]) arrived before
    /// the cell started; it was journaled `interrupted` and will re-run
    /// on `--resume`.
    Interrupted,
    /// The engine's resumed [`SweepJournal`] already records this cell as
    /// `done`; its artifacts are on disk from the earlier run.
    Skipped,
}

/// A cell that produced no payload — panicked, interrupted by a
/// cancellation request, or skipped because a resumed journal already has
/// it — surfaced as data instead of killing the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Stable index of the failed cell in its matrix / task list.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// The panic payload (stringified); empty for non-panics.
    pub message: String,
    /// What happened to the cell.
    pub kind: CellErrorKind,
}

impl CellError {
    fn panicked(index: usize, label: String, message: String) -> CellError {
        CellError { index, label, message, kind: CellErrorKind::Panic }
    }

    fn interrupted(index: usize, label: String) -> CellError {
        CellError {
            index,
            label,
            message: "cancellation requested before the cell started".to_string(),
            kind: CellErrorKind::Interrupted,
        }
    }

    fn skipped(index: usize, label: String) -> CellError {
        CellError {
            index,
            label,
            message: "journaled done by an earlier run".to_string(),
            kind: CellErrorKind::Skipped,
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CellErrorKind::Panic => {
                write!(f, "cell {} ({}) panicked: {}", self.index, self.label, self.message)
            }
            CellErrorKind::Interrupted => {
                write!(f, "cell {} ({}) interrupted: {}", self.index, self.label, self.message)
            }
            CellErrorKind::Skipped => {
                write!(f, "cell {} ({}) skipped: {}", self.index, self.label, self.message)
            }
        }
    }
}

impl std::error::Error for CellError {}

/// Per-cell outcome of a sweep.
pub type CellResult<T> = Result<T, CellError>;

/// The outcome of a task run under [`SweepEngine::run_tasks_retrying`]:
/// the final result plus how many retries it took to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retried<T, E> {
    /// The last attempt's result (`Ok`, or the error that exhausted the
    /// retry budget / was declared non-retryable).
    pub result: Result<T, E>,
    /// Retries consumed (0 = first attempt settled it).
    pub retries: u32,
}

/// Best-effort journal append: a full disk must not kill the sweep, but
/// the operator must know resume data is incomplete — every dropped
/// write bumps the journal's drop counter (surfaced in the CLI's
/// end-of-run summary and interrupted-exit path) and the
/// [`prof::Counter::JournalWriteDrops`] counter.
fn journal_write(
    journal: &SweepJournal,
    key: &str,
    disposition: CellDisposition,
    retries: u32,
    detail: &str,
) {
    if let Err(e) = journal.record(key, disposition, retries, detail) {
        journal.note_drop();
        prof::add(prof::Counter::JournalWriteDrops, 1);
        eprintln!("[journal] write failed for `{key}`: {e}");
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Executes [`RunMatrix`]es on a work-stealing pool with a shared
/// [`PreparedCache`].
///
/// Cloning the engine shares the cache, so one engine per process is the
/// intended shape: every figure submitted through it reuses the scenes
/// earlier figures prepared.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    jobs: usize,
    cache: Arc<PreparedCache>,
    journal: Option<Arc<SweepJournal>>,
    /// Per-job cooperative cancellation: checked at every cell boundary
    /// alongside the process-global flag, so one job can be cancelled or
    /// deadline-expired without draining the whole process.
    cancel: Option<CancelToken>,
    /// Key namespace (typically the CLI subcommand) so identical labels
    /// from different commands never collide in one journal.
    scope: String,
    /// Monotone per-engine counter of `execute` calls; part of each cell
    /// key so multi-wave commands (matrix + follow-up scene pass) stay
    /// collision-free. Shared across clones, deterministic across
    /// identical invocations.
    wave: Arc<AtomicUsize>,
}

impl Default for SweepEngine {
    fn default() -> SweepEngine {
        SweepEngine::new(0)
    }
}

impl SweepEngine {
    /// An engine with `jobs` workers (`0` = [`default_jobs`]) and a fresh
    /// cache.
    pub fn new(jobs: usize) -> SweepEngine {
        SweepEngine::with_cache(jobs, Arc::new(PreparedCache::new()))
    }

    /// An engine sharing an existing cache.
    pub fn with_cache(jobs: usize, cache: Arc<PreparedCache>) -> SweepEngine {
        SweepEngine {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
            cache,
            journal: None,
            cancel: None,
            scope: "sweep".to_string(),
            wave: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Attaches a cell journal: dispositions are recorded as cells settle
    /// and (for a journal opened with [`SweepJournal::resume`]) cells
    /// already journaled `done` are skipped.
    pub fn with_journal(mut self, journal: Arc<SweepJournal>) -> SweepEngine {
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<SweepJournal>> {
        self.journal.as_ref()
    }

    /// Attaches a per-job [`CancelToken`]: the engine checks it before
    /// starting each cell, so a cancelled or deadline-expired token makes
    /// in-flight cells drain and unstarted cells settle as
    /// [`CellErrorKind::Interrupted`] (journaled `interrupted` when a
    /// journal is attached).
    pub fn with_cancel(mut self, token: CancelToken) -> SweepEngine {
        self.cancel = Some(token);
        self
    }

    /// A clone of this engine whose cell keys live under `scope` (shares
    /// the cache, journal and wave counter). Scope once per CLI command
    /// so "REF/vtq" from `fig10` and "REF/vtq" from `fig12` journal as
    /// distinct cells.
    pub fn scoped(&self, scope: &str) -> SweepEngine {
        let mut engine = self.clone();
        engine.scope = scope.to_string();
        engine
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared prepared-scene cache.
    pub fn cache(&self) -> &Arc<PreparedCache> {
        &self.cache
    }

    /// Runs every cell of `matrix` — `Prepared` from the cache, then
    /// [`Prepared::run_policy`] under the cell's policy — and returns the
    /// reports in matrix order.
    pub fn run(&self, matrix: &RunMatrix) -> Vec<CellResult<SimReport>> {
        self.run_map(matrix, |cell, prepared| prepared.run_policy(cell.policy))
    }

    /// Runs `f(cell, prepared)` for every cell of `matrix` on the pool;
    /// results come back in matrix order. The closure observes the cell's
    /// cached [`Prepared`]; use this when a figure needs more than a
    /// [`SimReport`] (traces, time series, custom derived rows).
    pub fn run_map<T, F>(&self, matrix: &RunMatrix, f: F) -> Vec<CellResult<T>>
    where
        T: Send,
        F: Fn(&Cell, &Prepared) -> T + Sync,
    {
        self.run_cells(matrix, |cell, _| f(cell, &self.cache.get(cell.scene, &cell.config)))
    }

    /// [`run_map`](Self::run_map) without the up-front [`Prepared`]: same
    /// pool, journal keys and result order, but `f` sees only the cell
    /// and its [`cell_key_fingerprint`] (from [`RunMatrix::keys`]). For
    /// callers that can often settle a cell without its scene (the
    /// `vtq-serve` result cache) and fetch from [`cache`](Self::cache)
    /// themselves when they cannot.
    pub fn run_cells<T, F>(&self, matrix: &RunMatrix, f: F) -> Vec<CellResult<T>>
    where
        T: Send,
        F: Fn(&Cell, u64) -> T + Sync,
    {
        let f = &f;
        let tasks: Vec<(String, String, Task<'_, T>)> = matrix
            .cells()
            .iter()
            .zip(matrix.keys())
            .map(|(cell, &key)| {
                let key_base = format!("{}#{key:016x}", cell.label);
                let task = Box::new(move || f(cell, key)) as Task<'_, T>;
                (key_base, cell.label.clone(), task)
            })
            .collect();
        self.execute(tasks)
    }

    /// Runs one task per scene (one cache entry each, no policy) — the
    /// shape of figures that derive everything from the prepared scene
    /// itself rather than a simulation run.
    pub fn run_scenes<T, F>(
        &self,
        scenes: &[SceneId],
        config: &ExperimentConfig,
        f: F,
    ) -> Vec<CellResult<T>>
    where
        T: Send,
        F: Fn(&Prepared) -> T + Sync,
    {
        let mut matrix = RunMatrix::new();
        for &scene in scenes {
            matrix.push(Cell {
                scene,
                config: *config,
                policy: TraversalPolicy::Baseline,
                label: scene.name().to_string(),
            });
        }
        self.run_map(&matrix, |_, prepared| f(prepared))
    }

    /// Runs arbitrary labelled closures on the pool; results in input
    /// order. The lowest-level entry point — no cache involvement.
    pub fn run_tasks<T, F>(&self, tasks: Vec<(String, F)>) -> Vec<CellResult<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.execute(
            tasks
                .into_iter()
                .map(|(label, f)| (label.clone(), label, Box::new(f) as Task<'_, T>))
                .collect(),
        )
    }

    /// Like [`SweepEngine::run_tasks`], but for fallible tasks with a
    /// bounded retry loop: a task returning `Err(e)` with `retry_if(&e)`
    /// true is re-invoked (up to `max_retries` times) with the attempt
    /// index, letting callers escalate per attempt — e.g. doubling a
    /// cycle budget. Panics still short-circuit to [`CellError`]s; typed
    /// errors come back inside [`Retried`].
    pub fn run_tasks_retrying<T, E, F, P>(
        &self,
        tasks: Vec<(String, F)>,
        max_retries: u32,
        retry_if: P,
    ) -> Vec<CellResult<Retried<T, E>>>
    where
        T: Send,
        E: Send,
        F: Fn(u32) -> Result<T, E> + Send,
        P: Fn(&E) -> bool + Sync,
    {
        let retry_if = &retry_if;
        let journal = self.journal.clone();
        let scope = self.scope.clone();
        self.run_tasks(
            tasks
                .into_iter()
                .map(|(label, f)| {
                    let journal = journal.clone();
                    let retry_key = format!("{scope}/retry/{label}");
                    let attempt = move || {
                        let mut retries = 0;
                        loop {
                            match f(retries) {
                                Err(e) if retries < max_retries && retry_if(&e) => retries += 1,
                                result => {
                                    // Make escalated cells visible in the
                                    // journal (informational record; never
                                    // enters the done-set).
                                    if retries > 0 {
                                        if let Some(j) = &journal {
                                            journal_write(
                                                j,
                                                &retry_key,
                                                CellDisposition::Retry,
                                                retries,
                                                "budget escalated after retryable errors",
                                            );
                                        }
                                    }
                                    return Retried { result, retries };
                                }
                            }
                        }
                    };
                    (label, attempt)
                })
                .collect(),
        )
    }

    /// The pool: per-worker deques plus stealing. Task `i`'s outcome lands
    /// at index `i` whatever the interleaving; panics become [`CellError`]s.
    /// Each task arrives as `(key_base, label, closure)`; the full journal
    /// key is `scope/wN/index/key_base`.
    fn execute<'t, T: Send>(
        &self,
        tasks: Vec<(String, String, Task<'t, T>)>,
    ) -> Vec<CellResult<T>> {
        let n = tasks.len();
        let wave = self.wave.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            return Vec::new();
        }
        let mut keys = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut slots: Vec<Mutex<Option<Task<'t, T>>>> = Vec::with_capacity(n);
        for (index, (key_base, label, task)) in tasks.into_iter().enumerate() {
            keys.push(format!("{}/w{wave}/{index}/{key_base}", self.scope));
            labels.push(label);
            slots.push(Mutex::new(Some(task)));
        }
        let journal = self.journal.as_deref();
        let cancel = self.cancel.as_ref();
        let run_one = |index: usize| -> CellResult<T> {
            let key = keys[index].as_str();
            if journal.map(|j| j.completed(key)).unwrap_or(false) {
                return Err(CellError::skipped(index, labels[index].clone()));
            }
            // Two cancellation sources compose here: the process-global
            // flag (SIGINT drain — only meaningful on journaled engines,
            // since the CLI installs its handler only when a journal
            // exists) and the engine's per-job token (explicit cancel or
            // deadline expiry), which applies regardless of journaling.
            let cancelled = (journal.is_some() && cancel_requested())
                || cancel.map(CancelToken::is_cancelled).unwrap_or(false);
            if cancelled {
                if let Some(j) = journal {
                    journal_write(j, key, CellDisposition::Interrupted, 0, "");
                }
                return Err(CellError::interrupted(index, labels[index].clone()));
            }
            let task = slots[index]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("task executed twice");
            let outcome = {
                // Whole-cell span: prepare, simulate and any per-cell
                // export all nest under `cell/...` in profiles.
                let _cell = prof::span("cell");
                panic::catch_unwind(AssertUnwindSafe(|| prof::par::working(task)))
            };
            match outcome {
                Ok(value) => {
                    prof::add(prof::Counter::CellsCompleted, 1);
                    if let Some(j) = journal {
                        journal_write(j, key, CellDisposition::Done, 0, "");
                    }
                    Ok(value)
                }
                Err(payload) => {
                    let message = payload_message(payload);
                    if let Some(j) = journal {
                        journal_write(j, key, CellDisposition::Failed, 0, &message);
                    }
                    Err(CellError::panicked(index, labels[index].clone(), message))
                }
            }
        };

        let workers = self.jobs.min(n).max(1);
        if workers == 1 {
            return (0..n).map(run_one).collect();
        }

        // Round-robin deal into per-worker deques; workers pop their own
        // front (preserving rough submission order) and steal from the
        // back of the busiest remaining queue when empty. No task creates
        // new tasks, so "all deques empty" is a safe exit condition.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for index in 0..n {
            queues[index % workers].lock().expect("queue poisoned").push_back(index);
        }
        let results: Vec<Mutex<Option<CellResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = &queues;
                let results = &results;
                let run_one = &run_one;
                scope.spawn(move || loop {
                    let mine = queues[me].lock().expect("queue poisoned").pop_front();
                    let index = match mine {
                        Some(index) => index,
                        None => {
                            // Steal from the longest victim queue.
                            let victim = (0..queues.len())
                                .filter(|&v| v != me)
                                .max_by_key(|&v| queues[v].lock().expect("queue poisoned").len());
                            match victim
                                .and_then(|v| queues[v].lock().expect("queue poisoned").pop_back())
                            {
                                Some(index) => index,
                                None => return,
                            }
                        }
                    };
                    *results[index].lock().expect("result slot poisoned") = Some(run_one(index));
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("result slot poisoned").expect("task never executed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn fingerprint_ignores_policy_only() {
        let cfg = ExperimentConfig::quick();
        let mut vtq = cfg;
        vtq.gpu.policy = TraversalPolicy::Vtq(gpusim::VtqParams::default());
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&vtq));
        let mut other = cfg;
        other.resolution += 1;
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&other));
    }

    #[test]
    fn a_worker_blocked_on_anothers_build_lends_it_its_core() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            return; // one hardware thread: there is no core to lend
        }
        // Two pool workers on two cores (the limit stands in for the
        // cores). The second asks for the key only once the first is
        // inside its build, so it blocks in `get`; the build then sees both
        // cores, and only because the waiter stopped counting as working.
        // Other tests' workers may hold a core for a while: the build
        // polls until they are gone, and a waiter that still counts keeps
        // it at one core until the deadline.
        let stage = Stage::<usize>::default();
        let building = std::sync::Barrier::new(2);
        prof::par::set_limit(2);
        let cores = std::thread::scope(|s| {
            let builder = s.spawn(|| {
                prof::par::working(|| {
                    stage.get(1, "build", || {
                        building.wait();
                        let deadline = std::time::Instant::now() + Duration::from_secs(120);
                        while prof::par::threads() < 2 && std::time::Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        prof::par::threads()
                    })
                })
            });
            let waiter = s.spawn(|| {
                prof::par::working(|| {
                    building.wait();
                    stage.get(1, "build", || unreachable!("the key is being built"))
                })
            });
            let cores = builder.join().unwrap();
            assert_eq!(waiter.join().unwrap(), cores);
            cores
        });
        prof::par::set_limit(usize::MAX);
        assert_eq!(cores, 2, "the blocked worker's core went unused");
        assert_eq!(stage.misses(), 1);
    }

    #[test]
    fn matrix_indices_are_stable() {
        let cfg = ExperimentConfig::quick();
        let mut m = RunMatrix::new();
        assert_eq!(m.add(SceneId::Ref, &cfg, TraversalPolicy::Baseline), 0);
        assert_eq!(m.add(SceneId::Ref, &cfg, TraversalPolicy::TreeletPrefetch), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.cells()[1].label, "REF/prefetch");
    }

    #[test]
    fn tasks_return_in_submission_order() {
        let engine = SweepEngine::new(8);
        let tasks: Vec<(String, _)> = (0..100).map(|i| (format!("t{i}"), move || i * 2)).collect();
        let out = engine.run_tasks(tasks);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        let engine = SweepEngine::new(4);
        let tasks: Vec<(String, Box<dyn FnOnce() -> usize + Send>)> = vec![
            ("ok0".into(), Box::new(|| 0)),
            ("boom".into(), Box::new(|| panic!("poisoned cell"))),
            ("ok2".into(), Box::new(|| 2)),
        ];
        let out = engine.run_tasks(tasks);
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.label, "boom");
        assert!(err.message.contains("poisoned cell"), "got: {}", err.message);
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn retrying_tasks_escalate_then_settle() {
        let engine = SweepEngine::new(4);
        // Task i succeeds on attempt i (0-based): task 0 immediately,
        // task 3 after three retries.
        let tasks: Vec<(String, _)> = (0u32..4)
            .map(|i| {
                let f = move |attempt: u32| -> Result<u32, String> {
                    if attempt >= i {
                        Ok(i * 10 + attempt)
                    } else {
                        Err(format!("attempt {attempt} too small"))
                    }
                };
                (format!("t{i}"), f)
            })
            .collect();
        let out = engine.run_tasks_retrying(tasks, 5, |_| true);
        for (i, r) in out.iter().enumerate() {
            let retried = r.as_ref().unwrap();
            assert_eq!(retried.retries, i as u32);
            assert_eq!(retried.result, Ok(i as u32 * 10 + i as u32));
        }
    }

    #[test]
    fn retry_budget_and_predicate_are_honored() {
        let engine = SweepEngine::new(1);
        let always: fn(u32) -> Result<(), String> = |a| Err(format!("fail {a}"));
        let out = engine.run_tasks_retrying(vec![("budget".into(), always)], 2, |_| true);
        let retried = out[0].as_ref().unwrap();
        assert_eq!(retried.retries, 2);
        assert_eq!(retried.result, Err("fail 2".to_string()));

        // A non-retryable error settles on the first attempt.
        let out = engine.run_tasks_retrying(vec![("norerun".into(), always)], 2, |_| false);
        let retried = out[0].as_ref().unwrap();
        assert_eq!(retried.retries, 0);
        assert_eq!(retried.result, Err("fail 0".to_string()));
    }

    #[test]
    fn cancel_token_interrupts_remaining_cells() {
        let token = CancelToken::new();
        let engine = SweepEngine::new(1).with_cancel(token.clone());
        let executed = AtomicUsize::new(0);
        let tasks: Vec<(String, _)> = (0..5)
            .map(|i| {
                let executed = &executed;
                let token = token.clone();
                (format!("t{i}"), move || {
                    executed.fetch_add(1, Ordering::SeqCst);
                    if i == 1 {
                        token.cancel();
                    }
                    i
                })
            })
            .collect();
        let out = engine.run_tasks(tasks);
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[1].as_ref().unwrap(), 1, "in-flight cell drains");
        for r in &out[2..] {
            assert_eq!(r.as_ref().unwrap_err().kind, CellErrorKind::Interrupted);
        }
        assert_eq!(executed.load(Ordering::SeqCst), 2, "cancelled cells never start");
    }

    #[test]
    fn cancel_token_deadline_expires() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(token.deadline_expired(), "expiry is distinguishable from explicit cancel");
        assert_eq!(token.remaining(), Some(Duration::ZERO));

        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().expect("armed") > Duration::from_secs(3000));
        token.cancel();
        assert!(token.is_cancelled());
        assert!(!token.deadline_expired(), "explicit cancel wins the diagnosis");

        // Tokenless engines and tokens without deadlines never cancel.
        assert_eq!(CancelToken::new().remaining(), None);
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let engine = SweepEngine::new(0);
        assert!(engine.jobs() >= 1);
        assert_eq!(engine.jobs(), default_jobs());
    }

    #[test]
    fn cell_keys_distinguish_policy_parameters() {
        let cfg = ExperimentConfig::quick();
        let a = Cell {
            scene: SceneId::Ref,
            config: cfg,
            policy: TraversalPolicy::Vtq(gpusim::VtqParams::default()),
            label: "REF/vtq".to_string(),
        };
        let b = Cell {
            policy: TraversalPolicy::Vtq(gpusim::VtqParams {
                max_virtual_rays: 7,
                ..Default::default()
            }),
            ..a.clone()
        };
        // Same label, same config, different policy parameters: the
        // journal key fingerprint must still tell them apart.
        assert_eq!(a.label, b.label);
        assert_ne!(cell_key_fingerprint(&a), cell_key_fingerprint(&b));
        assert_eq!(cell_key_fingerprint(&a), cell_key_fingerprint(&a.clone()));
    }

    #[test]
    fn journaled_engine_drains_on_cancel_and_resumes_without_rerunning() {
        use crate::durable::{request_cancel, reset_cancel, SweepJournal, CANCEL_TEST_LOCK};

        let _guard = CANCEL_TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("vtq-sweep-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        reset_cancel();

        let executed = AtomicUsize::new(0);
        let mk = |i: usize, cancel_after: usize| {
            let executed = &executed;
            (format!("t{i}"), move || {
                let seen = executed.fetch_add(1, Ordering::SeqCst) + 1;
                if seen == cancel_after {
                    request_cancel();
                }
                i * 10
            })
        };

        // Phase 1: "SIGINT" fires while cell 1 is in flight (jobs = 1 for
        // a deterministic cut). In-flight work drains, the rest settles
        // as interrupted.
        let journal = Arc::new(SweepJournal::start(&dir).expect("start journal"));
        let engine = SweepEngine::new(1).with_journal(Arc::clone(&journal)).scoped("demo");
        let out = engine.run_tasks((0..5).map(|i| mk(i, 2)).collect());
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[1].as_ref().unwrap(), 10, "in-flight cell drains to completion");
        for r in &out[2..] {
            assert_eq!(r.as_ref().unwrap_err().kind, CellErrorKind::Interrupted);
        }
        assert_eq!(executed.load(Ordering::SeqCst), 2);
        drop(engine);
        drop(journal);
        reset_cancel();

        // Phase 2: resume skips the two journaled-done cells and runs
        // exactly the remaining three.
        let journal = Arc::new(SweepJournal::resume(&dir).expect("resume journal"));
        let engine = SweepEngine::new(1).with_journal(Arc::clone(&journal)).scoped("demo");
        let out = engine.run_tasks((0..5).map(|i| mk(i, usize::MAX)).collect());
        for r in &out[..2] {
            assert_eq!(r.as_ref().unwrap_err().kind, CellErrorKind::Skipped);
        }
        for (i, r) in out.iter().enumerate().skip(2) {
            assert_eq!(*r.as_ref().unwrap(), i * 10);
        }
        assert_eq!(executed.load(Ordering::SeqCst), 5, "no completed cell re-executed");
        assert_eq!(journal.completed_count(), 5);

        // A second resume over the merged journal skips everything.
        drop(engine);
        drop(journal);
        let journal = Arc::new(SweepJournal::resume(&dir).expect("resume again"));
        let engine = SweepEngine::new(2).with_journal(journal).scoped("demo");
        let out = engine.run_tasks((0..5).map(|i| mk(i, usize::MAX)).collect());
        assert!(out.iter().all(|r| r.as_ref().unwrap_err().kind == CellErrorKind::Skipped));
        assert_eq!(executed.load(Ordering::SeqCst), 5, "fully journaled sweep runs nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
