//! The paper's tables and figures as runnable experiments.
//!
//! [`Prepared`] bundles everything one scene needs (scene, BVH, workload,
//! reference image, and the workload's node-visit tape). [`presets`] lists
//! every labelled variant the evaluation simulates — a policy plus what it
//! changes about the configuration; [`FIGURES`] declares each scene × preset table once, the
//! paper's figures and the extension experiments alike — its default
//! scenes, its presets and its columns — and [`run_figures`] runs any set
//! of them as one deduplicated sweep. The `vtq-bench` CLI prints the
//! resulting [`FigureTable`]s in the paper's format; EXPERIMENTS.md records
//! the paper-vs-measured comparison. Figure 5 (analytical model), Figure 11
//! (time series) and Table 2 are not scene × preset tables and have their
//! own runners below.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use gpumem::{AccessKind, WindowPoint};
use gpusim::export::{metrics_json, series_csv, stall_csv};
use gpusim::{
    ConfigError, GpuConfig, PredictParams, SimReport, SimStats, Simulator, Tape, TraversalMode,
    TraversalPolicy, VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig, NodeFormat};
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;

use crate::analytical;
use crate::reorder::RayOrder;
use crate::sweep::{Cell, CellError, CellResult, PreparedCache, RunMatrix, SweepEngine};
use crate::workload::{Image, MAX_SPP};

/// Shared experiment parameters (defaults = the paper's §5 methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Image resolution per side (paper: 256).
    pub resolution: u32,
    /// Maximum secondary bounces (paper: 3).
    pub max_bounces: u32,
    /// Scene detail divisor (1 = the full scaled suite; tests use more).
    pub detail_divisor: u32,
    /// GPU configuration; the policy field is overridden per run.
    pub gpu: GpuConfig,
    /// BVH build configuration.
    pub bvh: BvhConfig,
    /// Trace next-event-estimation shadow rays (anyhit calls) after each
    /// diffuse hit. Off in the paper's §5.1 workload; on for the NEE
    /// experiment.
    pub shadow_rays: bool,
    /// Samples (threads) per pixel (paper: 1; the §6.4 sensitivity study
    /// raises it).
    pub spp: u32,
    /// The order the threads launch in (paper: pixel order; the §7.2.1
    /// reordering study sorts or shuffles them).
    pub ray_order: RayOrder,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        // Scale-model methodology: scenes are ~1/64 the paper's size, so
        // cache capacities are scaled down to keep BVH:L1 ratios in the
        // paper's regime, and treelets stay half the (scaled) L1.
        ExperimentConfig {
            resolution: 256,
            max_bounces: 3,
            detail_divisor: 1,
            gpu: GpuConfig::scale_model(),
            bvh: BvhConfig { treelet_bytes: 2048, ..Default::default() },
            shadow_rays: false,
            spp: 1,
            ray_order: RayOrder::Pixel,
        }
    }
}

impl ExperimentConfig {
    /// The unscaled Table 1 configuration (16 KB L1 / 128 KB L2 / 8 KB
    /// treelets); the `table1+*` [`presets`] run under its memory
    /// hierarchy and treelet budget.
    pub fn table1() -> ExperimentConfig {
        ExperimentConfig {
            gpu: GpuConfig::default(),
            bvh: BvhConfig::default(),
            ..Default::default()
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast smoke runs and CI: low detail,
    /// small image, 4 SMs. The *shape* of the results matches the full
    /// configuration; magnitudes are noisier.
    pub fn quick() -> ExperimentConfig {
        let mut cfg = ExperimentConfig {
            resolution: 64,
            max_bounces: 2,
            detail_divisor: 8,
            gpu: GpuConfig::default(),
            bvh: BvhConfig { treelet_bytes: 2048, ..Default::default() },
            shadow_rays: false,
            spp: 1,
            ray_order: RayOrder::Pixel,
        };
        cfg.gpu.mem.num_sms = 4;
        cfg
    }

    /// Checks what [`Prepared::build`] and the simulator assume: an image
    /// of at least one pixel, a sample count the path tracer accepts, and
    /// a consistent [`GpuConfig`] ([`GpuConfig::validate`]). Called where
    /// a configuration arrives from outside the program — CLI flags, a
    /// daemon submission, a reproducer file — so bad input is refused
    /// there instead of panicking a cell.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.resolution == 0 {
            return Err(ConfigError::new("resolution must be at least 1 pixel per side"));
        }
        if !(1..=MAX_SPP).contains(&self.spp) {
            return Err(ConfigError::new(format!(
                "spp ({}) must be between 1 and {MAX_SPP}",
                self.spp
            )));
        }
        self.gpu.validate()
    }
}

/// A scene prepared for simulation: geometry, BVH, workload, the
/// functional render and the workload's tape.
///
/// Each part is the shared product of one preparation stage (see
/// [`PreparedCache`]), so cells whose configurations differ only in what
/// a later stage reads hold the same scene, tree and workload.
#[derive(Debug)]
pub struct Prepared {
    /// Which LumiBench-like scene this is.
    pub id: SceneId,
    /// The scene.
    pub scene: Arc<Scene>,
    /// Its BVH: the scene's wide tree laid out under the cell's node
    /// format and treelet budget.
    pub bvh: Arc<Bvh>,
    /// The path-tracing workload (one task per pixel sample, in
    /// [`ExperimentConfig::ray_order`]), traced on the wide tree `bvh`
    /// was laid out from.
    pub workload: Arc<Workload>,
    /// The CPU-rendered reference image.
    pub image: Arc<Image>,
    /// Every trace call's node-visit sequence on `bvh`, which every
    /// simulation of `workload` replays instead of walking the BVH again.
    pub tape: Arc<Tape>,
    /// The machine the cell simulates; the policy is set per run.
    pub(crate) gpu: GpuConfig,
}

impl Prepared {
    /// Builds scene, BVH, workload and tape for `id` under `cfg`: every
    /// stage of a fresh [`PreparedCache`] once.
    pub fn build(id: SceneId, cfg: &ExperimentConfig) -> Prepared {
        PreparedCache::new().prepare(id, cfg)
    }

    /// A simulator over this scene and workload's BVH under `policy`,
    /// replaying [`Prepared::tape`], for callers that want more than
    /// [`Prepared::run_policy`]'s report: typed errors, the hit capture, a
    /// trace sink.
    pub fn simulator(&self, policy: TraversalPolicy) -> Simulator<'_> {
        Simulator::new(&self.bvh, self.scene.triangles(), self.gpu.with_policy(policy))
            .with_tape(&self.tape)
    }

    /// Simulates the workload under `policy`.
    ///
    /// # Panics
    ///
    /// Panics on any [`gpusim::SimError`].
    pub fn run_policy(&self, policy: TraversalPolicy) -> SimReport {
        self.simulator(policy).try_run(&self.workload).unwrap_or_else(|e| panic!("{e}"))
    }
}

// ---------------------------------------------------------------------------
// Persistence & aggregation
// ---------------------------------------------------------------------------

/// Merges the [`SimStats`] of several runs (per-scene kernels of one
/// experiment) into one aggregate via [`SimStats::merge`]: throughput
/// counters add, capacity peaks take the max, stall breakdowns and series
/// windows accumulate position-wise.
pub fn aggregate_stats<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> SimStats {
    let mut agg = SimStats::default();
    for report in reports {
        agg.merge(&report.stats);
    }
    agg
}

/// Persists one run's machine-readable metrics under `dir`:
///
/// * `<label>.series.csv` — the time-series windows
///   ([`gpusim::export::series_csv`]); skipped when sampling was disabled,
/// * `<label>.stalls.csv` — per-RT-unit stall attribution,
/// * one line appended to `metrics.jsonl` — the flat
///   [`gpusim::export::metrics_json`] object.
///
/// `label` is sanitized for the filesystem (`/` → `-`). Creates `dir` if
/// missing.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the files.
pub fn export_run(dir: &Path, label: &str, report: &SimReport) -> std::io::Result<()> {
    let _export = prof::span("export");
    fs::create_dir_all(dir)?;
    let stem: String =
        label.chars().map(|c| if c == '/' || c.is_whitespace() { '-' } else { c }).collect();
    let mut bytes = 0u64;
    if !report.stats.series.is_empty() {
        let series = series_csv(&report.stats.series);
        bytes += series.len() as u64;
        fs::write(dir.join(format!("{stem}.series.csv")), series)?;
    }
    let stalls = stall_csv(&report.stats.stall);
    bytes += stalls.len() as u64;
    fs::write(dir.join(format!("{stem}.stalls.csv")), stalls)?;
    let mut metrics =
        fs::OpenOptions::new().create(true).append(true).open(dir.join("metrics.jsonl"))?;
    let line = metrics_json(label, report);
    bytes += line.len() as u64 + 1;
    writeln!(metrics, "{line}")?;
    prof::add(prof::Counter::BytesExported, bytes);
    Ok(())
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// The fig11 contrast configuration: permanently treelet-stationary —
/// diverge instantly, dispatch any queue, never drain into ray-stationary
/// warps.
pub fn always_stationary_params() -> VtqParams {
    VtqParams {
        divergence_treelets: 0,
        queue_threshold: 1,
        group_underpopulated: false,
        repack_threshold: 0,
        ..Default::default()
    }
}

/// The paper's *naive* treelet queues (Figure 12 strawman): no grouping,
/// no repacking.
pub fn naive_params() -> VtqParams {
    VtqParams { group_underpopulated: false, repack_threshold: 0, ..Default::default() }
}

/// Grouping enabled at `queue_threshold`, repacking disabled (Figure 12's
/// sweep points).
pub fn grouped_params(queue_threshold: usize) -> VtqParams {
    VtqParams { queue_threshold, repack_threshold: 0, ..Default::default() }
}

/// Full VTQ at an explicit `repack_threshold` (Figure 13's sweep points;
/// `0` disables repacking).
pub fn repack_params(repack_threshold: usize) -> VtqParams {
    VtqParams { repack_threshold, ..Default::default() }
}

/// Full VTQ with idealized ("free") virtualization (Figures 16/17).
pub fn free_virtualization_params() -> VtqParams {
    VtqParams { charge_virtualization: false, ..Default::default() }
}

/// The same experiment with the BVH laid out in quantized
/// ([`rtbvh::QBvh4Node`]) interior nodes: another layout of the wide
/// cells' tree, over their scene and workload, so quantized cells coexist
/// with wide cells in one sweep.
pub fn quantized_config(cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut q = *cfg;
    q.bvh.node_format = NodeFormat::Quantized;
    q
}

/// One labelled simulation preset: the traversal policy a cell runs
/// under, plus what it changes about the configuration the cell's scene
/// is built and simulated with.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Stable label (`baseline`, `vtq-repack-8`, `qnode`, `nee+vtq`, ...):
    /// what [`Figure::presets`] and the conformance matrix name it by.
    pub label: &'static str,
    /// Traversal architecture.
    pub policy: TraversalPolicy,
    /// The preset's change to the base configuration — another BVH build,
    /// workload or GPU parameter — if it makes one.
    pub delta: Option<fn(&mut ExperimentConfig)>,
}

impl Preset {
    /// The cell configuration this preset runs under: `base` with the
    /// preset's delta applied.
    pub fn config(&self, base: &ExperimentConfig) -> ExperimentConfig {
        let mut cfg = *base;
        if let Some(delta) = self.delta {
            delta(&mut cfg);
        }
        cfg
    }

    /// The sweep cell that runs this preset on `scene`, labelled
    /// `<scene>/<label>`.
    pub fn cell(&self, scene: SceneId, base: &ExperimentConfig, label: &str) -> Cell {
        let label = format!("{}/{label}", scene.name());
        Cell { scene, config: self.config(base), policy: self.policy, label }
    }
}

/// Every preset the figures simulate and the conformance matrix checks:
/// the paper's three headline architectures, the grouping / repacking /
/// virtualization variants its figures sweep (thresholds included: a
/// threshold a figure plots is a preset here), ray-path prediction, the
/// quantized-node build, and the variants of the extension experiments —
/// NEE shadow rays, sorted and shuffled threads, the §6.4 workload
/// points, the ablation knobs, and the unscaled Table 1 configuration.
/// No two presets are the same simulation (policy and configuration),
/// so naming a preset names a distinct cell; a knob's default point is
/// therefore the preset that already runs it, not a new one.
///
/// `vtq-norepack` is also Figure 12's `thr=128` point (128 is the default
/// queue threshold) and the mechanism ablation's "no repacking", `vtq`
/// Figure 13's `t=22` (the default repack threshold), `vtq-naive` the
/// ablation's "no grouping".
pub fn presets() -> Vec<Preset> {
    use TraversalPolicy::Baseline;
    type Delta = fn(&mut ExperimentConfig);
    let plain = |label, policy| Preset { label, policy, delta: None };
    let vtq = |label, params| plain(label, TraversalPolicy::Vtq(params));
    let diverge = |label, divergence_treelets| {
        vtq(label, VtqParams { divergence_treelets, ..Default::default() })
    };
    let maxrays =
        |label, max_virtual_rays| vtq(label, VtqParams { max_virtual_rays, ..Default::default() });
    let with = |label, policy, delta: Delta| Preset { label, policy, delta: Some(delta) };
    let full = TraversalPolicy::Vtq(VtqParams::default());
    let quantized: Delta = |cfg| *cfg = quantized_config(cfg);
    let nee: Delta = |cfg| cfg.shadow_rays = true;
    let sorted: Delta = |cfg| cfg.ray_order = RayOrder::FirstHitSorted;
    let shuffled: Delta = |cfg| cfg.ray_order = RayOrder::Shuffled;
    let table1: Delta = |cfg| {
        let table1 = ExperimentConfig::table1();
        cfg.gpu.mem = table1.gpu.mem;
        cfg.bvh.treelet_bytes = table1.bvh.treelet_bytes;
    };
    vec![
        plain("baseline", Baseline),
        plain("prefetch", TraversalPolicy::TreeletPrefetch),
        plain("vtq", full),
        vtq("vtq-norepack", repack_params(0)),
        vtq("vtq-naive", naive_params()),
        vtq("vtq-grouped-32", grouped_params(32)),
        vtq("vtq-grouped-64", grouped_params(64)),
        vtq("vtq-repack-8", repack_params(8)),
        vtq("vtq-repack-16", repack_params(16)),
        vtq("vtq-repack-24", repack_params(24)),
        vtq("vtq-stationary", always_stationary_params()),
        vtq("vtq-free-virt", free_virtualization_params()),
        plain("predict", TraversalPolicy::Predict(PredictParams::default())),
        with("qnode", Baseline, quantized),
        // The extension experiments: workload and build variants.
        with("qnode+vtq", full, quantized),
        with("nee+baseline", Baseline, nee),
        with("nee+vtq", full, nee),
        with("sorted+baseline", Baseline, sorted),
        with("sorted+vtq", full, sorted),
        with("shuffled+baseline", Baseline, shuffled),
        with("shuffled+vtq", full, shuffled),
        with("spp-2", full, |cfg| cfg.spp = 2),
        with("spp-4", full, |cfg| cfg.spp = 4),
        with("bounces-1", full, |cfg| cfg.max_bounces = 1),
        with("bounces-5", full, |cfg| cfg.max_bounces = 5),
        // The ablation knobs, default points excepted.
        with("budget-1k+baseline", Baseline, |cfg| cfg.bvh.treelet_bytes = 1024),
        with("budget-1k+vtq", full, |cfg| cfg.bvh.treelet_bytes = 1024),
        with("budget-4k+baseline", Baseline, |cfg| cfg.bvh.treelet_bytes = 4096),
        with("budget-4k+vtq", full, |cfg| cfg.bvh.treelet_bytes = 4096),
        with("budget-8k+baseline", Baseline, |cfg| cfg.bvh.treelet_bytes = 8192),
        with("budget-8k+vtq", full, |cfg| cfg.bvh.treelet_bytes = 8192),
        with("wbuf-2", Baseline, |cfg| cfg.gpu.warp_buffer_slots = 2),
        with("wbuf-4", Baseline, |cfg| cfg.gpu.warp_buffer_slots = 4),
        with("wbuf-8", Baseline, |cfg| cfg.gpu.warp_buffer_slots = 8),
        with("issue-4", Baseline, |cfg| cfg.gpu.rt_mem_issue_per_cycle = 4),
        with("issue-2", Baseline, |cfg| cfg.gpu.rt_mem_issue_per_cycle = 2),
        with("issue-1", Baseline, |cfg| cfg.gpu.rt_mem_issue_per_cycle = 1),
        with("shader-8", Baseline, |cfg| cfg.gpu.shader_slots_per_sm = 8),
        with("shader-4", Baseline, |cfg| cfg.gpu.shader_slots_per_sm = 4),
        with("shader-2", Baseline, |cfg| cfg.gpu.shader_slots_per_sm = 2),
        vtq("vtq-nopreload", VtqParams { preload: false, ..Default::default() }),
        diverge("vtq-diverge-0", 0),
        diverge("vtq-diverge-1", 1),
        diverge("vtq-diverge-4", 4),
        diverge("vtq-diverge-8", 8),
        maxrays("vtq-maxrays-1k", 1024),
        maxrays("vtq-maxrays-2k", 2048),
        maxrays("vtq-maxrays-8k", 8192),
        // Figure 16 on the unscaled Table 1 memory hierarchy.
        with("table1+baseline", Baseline, table1),
        with("table1+vtq", full, table1),
        with("table1+vtq-free-virt", TraversalPolicy::Vtq(free_virtualization_params()), table1),
    ]
}

/// The reports of one wave of `(scene, preset)` cells.
#[derive(Debug)]
pub struct PresetRun {
    /// The scenes every table of this wave has a row for; `None` when
    /// each figure ran on its own [`Figure::scenes`].
    rows: Option<Vec<SceneId>>,
    /// What each cell simulated: scene-major, presets in [`presets`]
    /// order within a scene.
    keys: Vec<(SceneId, &'static str)>,
    cells: Vec<CellResult<SimReport>>,
}

/// Simulates every `(scene, preset label)` pair of `wanted` — each once,
/// however often it is named; scenes in order of first mention, presets
/// in [`presets`] order — as a single [`RunMatrix`] wave, whatever the
/// presets change about build or workload.
///
/// # Panics
///
/// Panics on a label [`presets`] does not list.
fn run_pairs(
    engine: &SweepEngine,
    wanted: &[(SceneId, &str)],
    rows: Option<&[SceneId]>,
    cfg: &ExperimentConfig,
) -> PresetRun {
    let presets = presets();
    if let Some((_, unknown)) = wanted.iter().find(|(_, l)| !presets.iter().any(|p| p.label == *l))
    {
        panic!("no preset is labelled `{unknown}`");
    }
    let mut scenes: Vec<SceneId> = Vec::new();
    for (scene, _) in wanted {
        if !scenes.contains(scene) {
            scenes.push(*scene);
        }
    }
    let mut matrix = RunMatrix::new();
    let mut keys = Vec::new();
    for scene in scenes {
        for preset in presets.iter().filter(|p| wanted.contains(&(scene, p.label))) {
            // Journal labels are the policy's (`REF/vtq` for every VTQ
            // variant; the key's fingerprint tells them apart), except
            // where the preset changes the configuration.
            let label = if preset.delta.is_some() { preset.label } else { preset.policy.label() };
            matrix.push(preset.cell(scene, cfg, label));
            keys.push((scene, preset.label));
        }
    }
    PresetRun { rows: rows.map(<[SceneId]>::to_vec), keys, cells: engine.run(&matrix) }
}

/// Simulates every scene under every preset `labels` names; see
/// [`run_pairs`].
pub fn run_presets(
    engine: &SweepEngine,
    labels: &[&str],
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> PresetRun {
    let wanted: Vec<(SceneId, &str)> =
        scenes.iter().flat_map(|&scene| labels.iter().map(move |&label| (scene, label))).collect();
    run_pairs(engine, &wanted, Some(scenes), cfg)
}

impl PresetRun {
    /// The scenes swept, in cell order.
    pub fn scenes(&self) -> Vec<SceneId> {
        let mut scenes: Vec<SceneId> = self.keys.iter().map(|(scene, _)| *scene).collect();
        scenes.dedup();
        scenes
    }

    /// `scene`'s reports under the presets `labels`, in that order — or
    /// the first of those cells that produced none.
    ///
    /// # Panics
    ///
    /// Panics on a `(scene, preset)` pair this wave did not simulate.
    pub fn reports(&self, scene: SceneId, labels: &[&str]) -> Result<Vec<&SimReport>, &CellError> {
        let cell = |label: &&str| {
            let at = self.keys.iter().position(|key| *key == (scene, *label));
            self.cells[at.expect("a cell of this wave")].as_ref()
        };
        labels.iter().map(cell).collect()
    }

    /// `scene`'s report under the preset `label`, if that cell produced
    /// one.
    pub fn report(&self, scene: SceneId, label: &str) -> Option<&SimReport> {
        self.reports(scene, &[label]).ok().map(|reports| reports[0])
    }

    /// Every cell's outcome, scene-major, presets in [`presets`] order.
    pub fn cells(&self) -> &[CellResult<SimReport>] {
        &self.cells
    }

    /// Every cell that produced no report, in matrix order.
    pub fn failures(&self) -> impl Iterator<Item = &CellError> {
        self.cells.iter().filter_map(|cell| cell.as_ref().err())
    }

    /// `figure`'s table over this wave: one row per scene the figure ran
    /// on whose every cell it needs produced a report.
    pub fn table(&self, figure: &'static Figure) -> FigureTable {
        let scenes = self.rows.as_deref().unwrap_or(figure.scenes);
        let rows = scenes.iter().filter_map(|&scene| {
            let reports = self.reports(scene, figure.presets).ok()?;
            Some((scene, figure.columns.iter().map(|c| (c.value)(&reports)).collect()))
        });
        FigureTable { figure, rows: rows.collect() }
    }
}

// ---------------------------------------------------------------------------
// The scene × preset tables, declared once
//
// A figure is data: the scenes it runs on by default, the presets it
// simulates per scene and a list of columns, each a function of those
// reports with a format, a summary rule and (when its value is pinned by
// a golden snapshot) a tolerance.
// `vtq-bench <figure>`, the sections of `vtq-bench all` and the
// `golden/<name>.json` snapshots are all renderings of [`FIGURES`]; adding
// a figure or an extension experiment is adding an entry (and a preset
// per new variant).
// ---------------------------------------------------------------------------

/// How a column's values print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// A count (cycles), as an integer.
    Int,
    /// A ratio as `1.23x`.
    Times2,
    /// A ratio as `1.234x`.
    Times3,
    /// A fraction or ratio as `0.123`.
    Ratio3,
    /// A fraction as `12.3%`.
    Percent1,
}

impl Format {
    /// `value` as this format prints it.
    pub fn text(self, value: f64) -> String {
        match self {
            Format::Int => format!("{}", value as u64),
            Format::Times2 => format!("{value:.2}x"),
            Format::Times3 => format!("{value:.3}x"),
            Format::Ratio3 => format!("{value:.3}"),
            Format::Percent1 => format!("{:.1}%", value * 100.0),
        }
    }
}

/// How a column's cells fold into the table's closing row: always over
/// the defined cells only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// Arithmetic mean (fractions, rates).
    Mean,
    /// Geometric mean (the paper's average for speedups).
    Geomean,
}

impl Summary {
    /// `mean` / `geomean`: the row label, and the `agg/<name>_<key>`
    /// prefix of golden keys.
    pub fn name(self) -> &'static str {
        match self {
            Summary::Mean => "mean",
            Summary::Geomean => "geomean",
        }
    }

    /// Folds `cells`; `None` without a defined cell.
    pub fn of(self, cells: &[Option<f64>]) -> Option<f64> {
        match self {
            Summary::Mean => mean_opt(cells),
            Summary::Geomean => {
                let defined: Vec<f64> = cells.iter().copied().flatten().collect();
                (!defined.is_empty()).then(|| geomean(&defined))
            }
        }
    }
}

/// Geometric mean (the paper's average for speedups).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Arithmetic mean over the *defined* rates only: `None` entries (a rate
/// whose denominator was zero) are excluded rather than averaged in as
/// zero. Returns `None` when no entry is defined.
pub fn mean_opt(values: &[Option<f64>]) -> Option<f64> {
    let defined: Vec<f64> = values.iter().copied().flatten().collect();
    if defined.is_empty() {
        None
    } else {
        Some(mean(&defined))
    }
}

/// Which golden tolerance band pins a column (the widths are
/// [`crate::conformance::REL_TOL`] and [`crate::conformance::ABS_TOL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tolerance {
    /// Relative to the snapshotted value: cycle-derived ratios.
    Rel,
    /// Absolute: fraction-valued statistics.
    Abs,
}

/// A column's value for one scene, from the figure's own reports (in
/// [`Figure::presets`] order); `None` where it is undefined (a rate whose
/// denominator was zero).
pub type ColumnValue = fn(&[&SimReport]) -> Option<f64>;

/// One column of a figure.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Printed header; empty for a column that is pinned but not printed.
    pub header: &'static str,
    /// What tests and golden snapshots (`scene/<scene>/<key>`,
    /// `agg/<summary>_<key>`) name the column by: the golden key when the
    /// column is pinned, the header otherwise.
    pub key: &'static str,
    /// The per-scene value.
    pub value: ColumnValue,
    /// How values print.
    pub format: Format,
    /// The closing-row rule, for the columns that have a summary cell.
    pub summary: Option<Summary>,
    /// The golden band, for the columns a snapshot pins.
    pub tolerance: Option<Tolerance>,
}

impl Column {
    const fn new(header: &'static str, format: Format, value: ColumnValue) -> Column {
        Column { header, key: header, value, format, summary: None, tolerance: None }
    }

    const fn mean(mut self) -> Column {
        self.summary = Some(Summary::Mean);
        self
    }

    const fn geomean(mut self) -> Column {
        self.summary = Some(Summary::Geomean);
        self
    }

    /// Pins the column in the figure's snapshot under `key`, ±5 %.
    const fn rel(mut self, key: &'static str) -> Column {
        self.key = key;
        self.tolerance = Some(Tolerance::Rel);
        self
    }

    /// Pins the column in the figure's snapshot under `key`, ±0.02.
    const fn abs(mut self, key: &'static str) -> Column {
        self.key = key;
        self.tolerance = Some(Tolerance::Abs);
        self
    }
}

/// One scene × preset table of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// Subcommand name and snapshot file stem (`fig10`); `ablations-budget`
    /// is a section of the `ablations` subcommand.
    pub name: &'static str,
    /// Section title in the `vtq-bench all` report.
    pub title: &'static str,
    /// The scenes it runs on when none are asked for: all fourteen for
    /// the paper's figures, a few for an extension experiment.
    pub scenes: &'static [SceneId],
    /// The [`presets`] labels simulated per scene; columns index their
    /// reports in this order.
    pub presets: &'static [&'static str],
    /// The columns. Printed left to right; snapshot entries follow the
    /// same order, so a pinned column whose snapshot position differs
    /// from its printed one is listed twice (once unprinted, once
    /// unpinned).
    pub columns: &'static [Column],
}

/// The figure named `name`, if [`FIGURES`] declares one.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

fn cycles(r: &SimReport) -> Option<f64> {
    Some(r.stats.cycles as f64)
}

/// How many times faster than `base` the run `other` finished.
fn speedup(base: &SimReport, other: &SimReport) -> Option<f64> {
    Some(base.stats.cycles as f64 / other.stats.cycles as f64)
}

fn simt(r: &SimReport) -> Option<f64> {
    r.stats.simt_efficiency_opt()
}

/// The share of `count` (cycles or intersection tests per traversal
/// mode) that fell to the `mode`-th of [`TraversalMode::ALL`].
fn mode_share(
    r: &SimReport,
    count: fn(&SimStats, TraversalMode) -> u64,
    mode: usize,
) -> Option<f64> {
    let total: u64 = TraversalMode::ALL.iter().map(|&m| count(&r.stats, m)).sum();
    Some(count(&r.stats, TraversalMode::ALL[mode]) as f64 / total.max(1) as f64)
}

/// The share of intersection tests outside ray-stationary mode.
fn coherent_share(r: &SimReport) -> Option<f64> {
    Some(1.0 - mode_share(r, SimStats::isect_in, 2)?)
}

/// How much slower the run charged for CTA state movement finished than
/// the one with free virtualization.
fn virtualization_overhead(charged: &SimReport, free: &SimReport) -> Option<f64> {
    Some(speedup(charged, free)? - 1.0)
}

fn energy_vs(base: &SimReport, other: &SimReport) -> Option<f64> {
    Some(other.energy.total_pj() / base.energy.total_pj())
}

fn bvh_dram_lines(r: &SimReport) -> u64 {
    r.mem.kind(AccessKind::Bvh).dram
}

use Format::{Int, Percent1, Ratio3, Times2, Times3};

/// Every scene × preset table, in report order: the paper's figures, then
/// the extension experiments.
pub static FIGURES: [Figure; 21] = [
    // Baseline RT-unit bottlenecks. Paper: mean miss rate 58% (up to
    // 70%), low SIMT efficiency (~0.37).
    Figure {
        name: "fig01",
        title: "Figure 1 — baseline L1 BVH miss rate & SIMT efficiency",
        scenes: &SceneId::ALL,
        presets: &["baseline"],
        columns: &[
            Column::new("l1_bvh_miss", Ratio3, |r| {
                r[0].mem.kind(AccessKind::Bvh).l1_miss_rate_opt()
            })
            .mean()
            .abs("l1_bvh_miss"),
            Column::new("simt_eff", Ratio3, |r| simt(r[0])).mean().abs("simt_eff"),
        ],
    },
    // VTQ (4096 concurrent rays) vs the baseline and vs Treelet
    // Prefetching [8]. Paper: 95% mean speedup over baseline, 43% over
    // prefetching.
    Figure {
        name: "fig10",
        title: "Figure 10 — overall speedup",
        scenes: &SceneId::ALL,
        presets: &["baseline", "prefetch", "vtq"],
        columns: &[
            Column::new("base_cyc", Int, |r| cycles(r[0])),
            Column::new("pref_cyc", Int, |r| cycles(r[1])),
            Column::new("vtq_cyc", Int, |r| cycles(r[2])),
            Column::new("vtq_speedup", Times2, |r| speedup(r[0], r[2]))
                .geomean()
                .rel("vtq_speedup"),
            Column::new("pref_speedup", Times2, |r| speedup(r[0], r[1]))
                .geomean()
                .rel("prefetch_speedup"),
            Column::new("vtq/pref", Times2, |r| speedup(r[1], r[2])).geomean(),
        ],
    },
    // Grouping underpopulated treelet queues, repacking disabled
    // throughout so the grouping effect is isolated. Paper: grouping at a
    // 128-ray threshold is ~8× faster than naive treelet queues yet still
    // ~5% slower than the baseline (repacking closes the gap, Figure 13).
    Figure {
        name: "fig12",
        title: "Figure 12 — grouping underpopulated queues (speedup vs baseline)",
        scenes: &SceneId::ALL,
        presets: &["baseline", "vtq-naive", "vtq-grouped-32", "vtq-grouped-64", "vtq-norepack"],
        columns: &[
            Column::new("naive", Times3, |r| speedup(r[0], r[1])).geomean().rel("naive_speedup"),
            Column::new("thr=32", Times3, |r| speedup(r[0], r[2]))
                .geomean()
                .rel("grouped_32_speedup"),
            Column::new("thr=64", Times3, |r| speedup(r[0], r[3]))
                .geomean()
                .rel("grouped_64_speedup"),
            Column::new("thr=128", Times3, |r| speedup(r[0], r[4]))
                .geomean()
                .rel("grouped_128_speedup"),
        ],
    },
    // Warp repacking: (a) speedup over baseline per repack threshold,
    // (b) SIMT efficiency. Paper: no-repack is ~5% below baseline;
    // threshold 22 reaches 95% speedup and SIMT efficiency ~0.82. The
    // snapshot pins the SIMT efficiency of every threshold, beside its
    // speedup; the table prints three of them, after the speedups.
    Figure {
        name: "fig13",
        title: "Figure 13 — warp repacking (speedup vs baseline / SIMT efficiency)",
        scenes: &SceneId::ALL,
        presets: &[
            "baseline",
            "vtq-norepack",
            "vtq-repack-8",
            "vtq-repack-16",
            "vtq",
            "vtq-repack-24",
        ],
        columns: &[
            Column::new("norepack", Times3, |r| speedup(r[0], r[1]))
                .geomean()
                .rel("speedup_norepack"),
            Column::new("", Ratio3, |r| simt(r[1])).abs("simt_norepack"),
            Column::new("t=8", Times3, |r| speedup(r[0], r[2])).geomean().rel("speedup_repack_8"),
            Column::new("", Ratio3, |r| simt(r[2])).abs("simt_repack_8"),
            Column::new("t=16", Times3, |r| speedup(r[0], r[3])).geomean().rel("speedup_repack_16"),
            Column::new("", Ratio3, |r| simt(r[3])).abs("simt_repack_16"),
            Column::new("t=22", Times3, |r| speedup(r[0], r[4])).geomean().rel("speedup_repack_22"),
            Column::new("", Ratio3, |r| simt(r[4])).abs("simt_repack_22"),
            Column::new("t=24", Times3, |r| speedup(r[0], r[5])).geomean().rel("speedup_repack_24"),
            Column::new("", Ratio3, |r| simt(r[5])).abs("simt_repack_24"),
            Column::new("simt_base", Ratio3, |r| simt(r[0])).mean(),
            Column::new("simt_nore", Ratio3, |r| simt(r[1])).mean(),
            Column::new("simt_t22", Ratio3, |r| simt(r[4])).mean(),
        ],
    },
    // Cycle distribution over the three traversal modes. Paper: a short
    // initial phase, then ray-stationary dominates the cycle count.
    Figure {
        name: "fig14",
        title: "Figure 14 — cycles by traversal mode",
        scenes: &SceneId::ALL,
        presets: &["vtq"],
        columns: &[
            Column::new("initial", Ratio3, |r| mode_share(r[0], SimStats::cycles_in, 0))
                .mean()
                .abs("initial_fraction"),
            Column::new("treelet", Ratio3, |r| mode_share(r[0], SimStats::cycles_in, 1))
                .mean()
                .abs("treelet_fraction"),
            Column::new("ray", Ratio3, |r| mode_share(r[0], SimStats::cycles_in, 2))
                .mean()
                .abs("ray_fraction"),
        ],
    },
    // Intersection tests processed under each traversal mode. Paper:
    // treelet-stationary handles up to 52% with a 15% mean;
    // ray-stationary takes the rest.
    Figure {
        name: "fig15",
        title: "Figure 15 — intersection tests by traversal mode",
        scenes: &SceneId::ALL,
        presets: &["vtq"],
        columns: &[
            Column::new("initial", Ratio3, |r| mode_share(r[0], SimStats::isect_in, 0))
                .mean()
                .abs("initial_fraction"),
            Column::new("treelet", Ratio3, |r| mode_share(r[0], SimStats::isect_in, 1))
                .mean()
                .abs("treelet_fraction"),
            Column::new("ray", Ratio3, |r| mode_share(r[0], SimStats::isect_in, 2))
                .mean()
                .abs("ray_fraction"),
        ],
    },
    // VTQ with CTA state save/restore charged vs idealized ("free")
    // virtualization. Paper: ~10% mean slowdown.
    Figure {
        name: "fig16",
        title: "Figure 16 — ray virtualization overhead",
        scenes: &SceneId::ALL,
        presets: &["vtq", "vtq-free-virt"],
        columns: &[
            Column::new("charged_cyc", Int, |r| cycles(r[0])),
            Column::new("free_cyc", Int, |r| cycles(r[1])),
            Column::new("overhead", Percent1, |r| virtualization_overhead(r[0], r[1]))
                .mean()
                .abs("overhead"),
        ],
    },
    // Energy with and without virtualization charges. Paper: ~60% energy
    // savings overall; virtualization consumes ~11% of the design's
    // energy.
    Figure {
        name: "fig17",
        title: "Figure 17 — energy (normalized to baseline)",
        scenes: &SceneId::ALL,
        presets: &["baseline", "vtq", "vtq-free-virt"],
        columns: &[
            Column::new("vtq/base", Ratio3, |r| energy_vs(r[0], r[1])).mean().rel("vtq_energy"),
            Column::new("novirt/base", Ratio3, |r| energy_vs(r[0], r[2])).rel("novirt_energy"),
            Column::new("virt_frac", Percent1, |r| Some(r[1].energy.virtualization_fraction()))
                .mean()
                .abs("virt_frac"),
        ],
    },
    // Ray-path prediction and quantized BVH4 nodes vs the wide-node
    // baseline — the one figure whose cells differ in BVH build, not just
    // policy. Both presets are oracle-proven (`vtq-bench conformance`);
    // this reports what they buy: cycles, prediction hit rate, and BVH
    // DRAM traffic of the compressed layout (< 1 = the smaller nodes cut
    // traffic).
    Figure {
        name: "figpolicies",
        title: "Policy experiments — ray-path prediction & quantized nodes",
        scenes: &SceneId::ALL,
        presets: &["baseline", "predict", "qnode"],
        columns: &[
            Column::new("base_cyc", Int, |r| cycles(r[0])),
            Column::new("pred_cyc", Int, |r| cycles(r[1])),
            Column::new("qnode_cyc", Int, |r| cycles(r[2])),
            Column::new("pred_speedup", Times2, |r| speedup(r[0], r[1]))
                .geomean()
                .rel("predict_speedup"),
            Column::new("pred_hit", Percent1, |r| r[1].stats.predict_hit_rate_opt()),
            Column::new("qnode_speedup", Times2, |r| speedup(r[0], r[2]))
                .geomean()
                .rel("qnode_speedup"),
            Column::new("", Percent1, |r| r[1].stats.predict_hit_rate_opt())
                .mean()
                .abs("predict_hit_rate"),
            Column::new("qnode_traffic", Times2, |r| {
                Some(bvh_dram_lines(r[2]) as f64 / bvh_dram_lines(r[0]).max(1) as f64)
            })
            .geomean()
            .rel("qnode_traffic_ratio"),
        ],
    },
    // Real integrations trace an anyhit shadow ray from every diffuse hit
    // (§2.1.2); the paper's workload (§5.1) is plain path tracing. Does
    // VTQ's win carry over to the shadow-ray-heavy kernel?
    Figure {
        name: "nee",
        title: "NEE — VTQ gain on the plain and the shadow-ray workload",
        scenes: &[SceneId::Bath, SceneId::Lands],
        presets: &["baseline", "vtq", "nee+baseline", "nee+vtq"],
        columns: &[
            Column::new("rays", Int, |r| Some(r[0].stats.rays_completed as f64)),
            Column::new("nee_rays", Int, |r| Some(r[2].stats.rays_completed as f64)),
            Column::new("vtq_gain", Times2, |r| speedup(r[0], r[1])).geomean(),
            Column::new("nee_gain", Times2, |r| speedup(r[2], r[3])).geomean().rel("nee_gain"),
        ],
    },
    // §7.2.1: treelet queues group rays dynamically, "essentially
    // achieving a similar goal" to sorting them "but without the high
    // overhead". First-hit Morton sorting is the static alternative, a
    // shuffle the stress test; the cost columns are each side's cycles
    // relative to its own pixel-order run.
    Figure {
        name: "reorder",
        title: "Ray reordering (§7.2.1) — VTQ gain per thread order, cycles vs pixel order",
        scenes: &[SceneId::Lands, SceneId::Park],
        presets: &[
            "baseline",
            "vtq",
            "sorted+baseline",
            "sorted+vtq",
            "shuffled+baseline",
            "shuffled+vtq",
        ],
        columns: &[
            Column::new("pixel", Times2, |r| speedup(r[0], r[1])).geomean(),
            Column::new("sorted", Times2, |r| speedup(r[2], r[3])).geomean().rel("sorted_gain"),
            Column::new("shuffled", Times2, |r| speedup(r[4], r[5])).geomean().rel("shuffled_gain"),
            Column::new("base_sorted", Times2, |r| speedup(r[2], r[0])).geomean(),
            Column::new("vtq_sorted", Times2, |r| speedup(r[3], r[1])).geomean(),
            Column::new("base_shuf", Times2, |r| speedup(r[4], r[0])).geomean(),
            Column::new("vtq_shuf", Times2, |r| speedup(r[5], r[1])).geomean(),
        ],
    },
    // §6.4 predicts the share of intersection tests the treelet machinery
    // captures rises with samples per pixel (more coherent batches) and
    // falls with bounces (more divergent rays): the treelet-stationary
    // share, then the coherent (initial + treelet-stationary) share, at
    // the default point and with one axis moved.
    Figure {
        name: "sensitivity",
        title: "Workload sensitivity (§6.4) — intersection-test shares under VTQ",
        scenes: &[SceneId::Lands],
        presets: &["vtq", "spp-2", "spp-4", "bounces-1", "bounces-5"],
        columns: &[
            Column::new("treelet", Ratio3, |r| mode_share(r[0], SimStats::isect_in, 1)),
            Column::new("trl_spp=2", Ratio3, |r| mode_share(r[1], SimStats::isect_in, 1)),
            Column::new("trl_spp=4", Ratio3, |r| mode_share(r[2], SimStats::isect_in, 1)),
            Column::new("trl_b=1", Ratio3, |r| mode_share(r[3], SimStats::isect_in, 1)),
            Column::new("trl_b=5", Ratio3, |r| mode_share(r[4], SimStats::isect_in, 1)),
            Column::new("coherent", Ratio3, |r| coherent_share(r[0])),
            Column::new("coh_spp=2", Ratio3, |r| coherent_share(r[1])).abs("coherent_spp_2"),
            Column::new("coh_spp=4", Ratio3, |r| coherent_share(r[2])).abs("coherent_spp_4"),
            Column::new("coh_b=1", Ratio3, |r| coherent_share(r[3])).abs("coherent_bounces_1"),
            Column::new("coh_b=5", Ratio3, |r| coherent_share(r[4])).abs("coherent_bounces_5"),
        ],
    },
    // §7.3: BVH compression "can be used in conjunction with our
    // proposal". Quantized nodes (after Grauer et al.) under both
    // policies, against the wide-node baseline; `vs_vtq` is what the
    // smaller, conservatively widened nodes add to wide-node VTQ.
    Figure {
        name: "compression",
        title: "BVH compression (§7.3) — quantized nodes with VTQ (speedup vs wide baseline)",
        scenes: &[SceneId::Lands, SceneId::Car],
        presets: &["baseline", "vtq", "qnode", "qnode+vtq"],
        columns: &[
            Column::new("vtq", Times2, |r| speedup(r[0], r[1])).geomean(),
            Column::new("qnode", Times2, |r| speedup(r[0], r[2])).geomean(),
            Column::new("qnode+vtq", Times2, |r| speedup(r[0], r[3]))
                .geomean()
                .rel("qnode_vtq_speedup"),
            Column::new("vtq_on_qnode", Times2, |r| speedup(r[2], r[3])).geomean(),
            Column::new("vs_vtq", Times2, |r| speedup(r[1], r[3])).geomean(),
        ],
    },
    // The ablations of the design choices DESIGN.md calls out, one
    // section per knob; the knob's default point is the preset that
    // already runs it.
    Figure {
        name: "ablations-budget",
        title: "Ablation — treelet byte budget (VTQ speedup vs the same-budget baseline)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &[
            "budget-1k+baseline",
            "budget-1k+vtq",
            "baseline",
            "vtq",
            "budget-4k+baseline",
            "budget-4k+vtq",
            "budget-8k+baseline",
            "budget-8k+vtq",
        ],
        columns: &[
            Column::new("1KB", Times3, |r| speedup(r[0], r[1])).geomean().rel("budget_1k"),
            Column::new("2KB", Times3, |r| speedup(r[2], r[3])).geomean(),
            Column::new("4KB", Times3, |r| speedup(r[4], r[5])).geomean().rel("budget_4k"),
            Column::new("8KB", Times3, |r| speedup(r[6], r[7])).geomean().rel("budget_8k"),
        ],
    },
    Figure {
        name: "ablations-wbuf",
        title: "Ablation — RT-unit warp buffer slots (baseline policy, speedup vs 1 slot)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &["baseline", "wbuf-2", "wbuf-4", "wbuf-8"],
        columns: &[
            Column::new("slots=2", Times3, |r| speedup(r[0], r[1])).geomean().rel("wbuf_2"),
            Column::new("slots=4", Times3, |r| speedup(r[0], r[2])).geomean().rel("wbuf_4"),
            Column::new("slots=8", Times3, |r| speedup(r[0], r[3])).geomean().rel("wbuf_8"),
        ],
    },
    Figure {
        name: "ablations-issue",
        title: "Ablation — RT-unit memory-scheduler issue rate (baseline policy, vs unlimited)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &["baseline", "issue-4", "issue-2", "issue-1"],
        columns: &[
            Column::new("4/cyc", Times3, |r| speedup(r[0], r[1])).geomean(),
            Column::new("2/cyc", Times3, |r| speedup(r[0], r[2])).geomean(),
            Column::new("1/cyc", Times3, |r| speedup(r[0], r[3])).geomean().rel("issue_1"),
        ],
    },
    Figure {
        name: "ablations-shader",
        title: "Ablation — CUDA-core shader slots per SM (baseline policy, vs unlimited)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &["baseline", "shader-8", "shader-4", "shader-2"],
        columns: &[
            Column::new("8/SM", Times3, |r| speedup(r[0], r[1])).geomean(),
            Column::new("4/SM", Times3, |r| speedup(r[0], r[2])).geomean(),
            Column::new("2/SM", Times3, |r| speedup(r[0], r[3])).geomean().rel("shader_2"),
        ],
    },
    Figure {
        name: "ablations-mechanism",
        title:
            "Ablation — VTQ mechanisms off one at a time (speedup vs baseline / SIMT efficiency)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &["baseline", "vtq", "vtq-nopreload", "vtq-norepack", "vtq-naive"],
        columns: &[
            Column::new("full", Times3, |r| speedup(r[0], r[1])).geomean(),
            Column::new("no-preload", Times3, |r| speedup(r[0], r[2])).geomean().rel("nopreload"),
            Column::new("no-repack", Times3, |r| speedup(r[0], r[3])).geomean(),
            Column::new("no-group", Times3, |r| speedup(r[0], r[4])).geomean(),
            Column::new("simt_full", Ratio3, |r| simt(r[1])).mean(),
            Column::new("simt_nopre", Ratio3, |r| simt(r[2])).mean(),
            Column::new("simt_norep", Ratio3, |r| simt(r[3])).mean(),
            Column::new("simt_nogrp", Ratio3, |r| simt(r[4])).mean(),
        ],
    },
    Figure {
        name: "ablations-diverge",
        title: "Ablation — divergence threshold in distinct treelets (speedup vs baseline)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &[
            "baseline",
            "vtq-diverge-0",
            "vtq-diverge-1",
            "vtq",
            "vtq-diverge-4",
            "vtq-diverge-8",
        ],
        columns: &[
            Column::new("d=0", Times3, |r| speedup(r[0], r[1])).geomean().rel("diverge_0"),
            Column::new("d=1", Times3, |r| speedup(r[0], r[2])).geomean().rel("diverge_1"),
            Column::new("d=2", Times3, |r| speedup(r[0], r[3])).geomean(),
            Column::new("d=4", Times3, |r| speedup(r[0], r[4])).geomean().rel("diverge_4"),
            Column::new("d=8", Times3, |r| speedup(r[0], r[5])).geomean().rel("diverge_8"),
        ],
    },
    Figure {
        name: "ablations-maxrays",
        title: "Ablation — virtual-ray cap per SM (speedup vs baseline)",
        scenes: &[SceneId::Lands, SceneId::Frst],
        presets: &["baseline", "vtq-maxrays-1k", "vtq-maxrays-2k", "vtq", "vtq-maxrays-8k"],
        columns: &[
            Column::new("1K", Times3, |r| speedup(r[0], r[1])).geomean().rel("maxrays_1k"),
            Column::new("2K", Times3, |r| speedup(r[0], r[2])).geomean(),
            Column::new("4K", Times3, |r| speedup(r[0], r[3])).geomean(),
            Column::new("8K", Times3, |r| speedup(r[0], r[4])).geomean().rel("maxrays_8k"),
        ],
    },
    // Figure 16 again, on the unscaled Table 1 memory hierarchy (16 KB
    // L1, 128 KB L2, 8 KB treelets) the scale model shrinks: the
    // overhead EXPERIMENTS.md quotes in Figure 16's defence.
    Figure {
        name: "fig16-table1",
        title: "Figure 16 on the unscaled Table 1 configuration",
        scenes: &[SceneId::Spnza, SceneId::Lands, SceneId::Robot],
        presets: &["table1+baseline", "table1+vtq", "table1+vtq-free-virt"],
        columns: &[
            Column::new("charged_cyc", Int, |r| cycles(r[1])),
            Column::new("free_cyc", Int, |r| cycles(r[2])),
            Column::new("overhead", Percent1, |r| virtualization_overhead(r[1], r[2]))
                .mean()
                .abs("overhead"),
            Column::new("vtq_speedup", Times2, |r| speedup(r[0], r[1])).geomean(),
        ],
    },
];

/// Simulates the union of the cells `figures` need — every preset once
/// per scene, however many figures read it — as one wave: on `scenes`
/// when given, otherwise each figure on its own [`Figure::scenes`].
pub fn run_figures<'f>(
    engine: &SweepEngine,
    figures: impl IntoIterator<Item = &'f Figure>,
    scenes: Option<&[SceneId]>,
    cfg: &ExperimentConfig,
) -> PresetRun {
    let mut wanted = Vec::new();
    for figure in figures {
        for &scene in scenes.unwrap_or(figure.scenes) {
            wanted.extend(figure.presets.iter().map(|&label| (scene, label)));
        }
    }
    run_pairs(engine, &wanted, scenes, cfg)
}

/// One figure's values over a sweep; see [`PresetRun::table`].
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// The figure.
    pub figure: &'static Figure,
    /// Per surviving scene, one value per [`Figure::columns`] entry.
    pub rows: Vec<(SceneId, Vec<Option<f64>>)>,
}

impl FigureTable {
    /// The value of the column keyed `key` in `scene`'s row.
    pub fn value(&self, scene: SceneId, key: &str) -> Option<f64> {
        let column = self.figure.columns.iter().position(|c| c.key == key)?;
        self.rows.iter().find(|(s, _)| *s == scene)?.1[column]
    }

    /// The `column`-th column's summary over the rows, per its rule.
    pub fn summary(&self, column: usize) -> Option<f64> {
        let cells: Vec<Option<f64>> = self.rows.iter().map(|(_, values)| values[column]).collect();
        self.figure.columns[column].summary?.of(&cells)
    }

    /// The printed columns, with their index in [`Figure::columns`].
    fn printed(&self) -> impl Iterator<Item = (usize, &'static Column)> {
        self.figure.columns.iter().enumerate().filter(|(_, c)| !c.header.is_empty())
    }

    /// The header row: `scene`, then the printed columns.
    pub fn header(&self) -> Vec<&'static str> {
        std::iter::once("scene").chain(self.printed().map(|(_, c)| c.header)).collect()
    }

    /// The body rows as printed: scene name, then one cell per printed
    /// column (`n/a` where the value is undefined).
    pub fn body(&self) -> Vec<Vec<String>> {
        let cell =
            |value: Option<f64>, c: &Column| value.map_or("n/a".into(), |v| c.format.text(v));
        self.rows
            .iter()
            .map(|(scene, values)| {
                std::iter::once(scene.name().to_string())
                    .chain(self.printed().map(|(i, c)| cell(values[i], c)))
                    .collect()
            })
            .collect()
    }

    /// The closing row — `GEOMEAN` when every summarised column printed
    /// is a geometric mean, `MEAN` otherwise, then one cell per printed
    /// column (empty without a rule, `n/a` without a defined value) — or
    /// `None` for a table without rows or without a summarised column.
    pub fn summary_row(&self) -> Option<Vec<String>> {
        let rules: Vec<Summary> = self.printed().filter_map(|(_, c)| c.summary).collect();
        if rules.is_empty() || self.rows.is_empty() {
            return None;
        }
        let all_geomean = rules.iter().all(|rule| *rule == Summary::Geomean);
        let label = if all_geomean { "GEOMEAN" } else { "MEAN" };
        let cell = |i: usize, c: &Column| match (c.summary, self.summary(i)) {
            (None, _) => String::new(),
            (_, Some(v)) => c.format.text(v),
            (_, None) => "n/a".to_string(),
        };
        let cells = self.printed().map(|(i, c)| cell(i, c));
        Some(std::iter::once(label.to_string()).chain(cells).collect())
    }
}

/// Figure 5: analytical treelet speedup vs concurrent rays.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Scene.
    pub scene: SceneId,
    /// `(concurrent rays, estimated speedup)` pairs.
    pub speedups: Vec<(usize, f64)>,
}

/// Evaluates the §2.4 analytical model on this scene's traces.
pub fn fig05(p: &Prepared, batch_sizes: &[usize]) -> Fig5Row {
    let traces = analytical::record_traces(&p.bvh, p.scene.triangles(), &p.workload);
    Fig5Row { scene: p.id, speedups: analytical::analytical_speedups(&p.bvh, &traces, batch_sizes) }
}

/// Figure 5 across `scenes` through the sweep engine (one trace-recording
/// task per scene — no simulation runs).
pub fn fig05_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
    batch_sizes: &[usize],
) -> Vec<CellResult<Fig5Row>> {
    engine.run_scenes(scenes, cfg, |p| fig05(p, batch_sizes))
}

/// Figure 11: L1 BVH miss rate over time, baseline vs permanently
/// treelet-stationary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Data {
    /// Scene (the paper uses LANDS).
    pub scene: SceneId,
    /// Baseline time series.
    pub baseline: Vec<WindowPoint>,
    /// Always-treelet-stationary time series.
    pub treelet_stationary: Vec<WindowPoint>,
}

/// Figure 11 across `scenes`: the baseline, then VTQ "if it were to
/// operate permanently in treelet-stationary mode" (the `vtq-stationary`
/// preset). A scene with a failed cell yields that cell's error.
pub fn fig11_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig11Data>> {
    const PRESETS: [&str; 2] = ["baseline", "vtq-stationary"];
    let run = run_presets(engine, &PRESETS, scenes, cfg);
    scenes
        .iter()
        .map(|&scene| match run.reports(scene, &PRESETS) {
            Ok(reports) => Ok(Fig11Data {
                scene,
                baseline: reports[0].mem.bvh_l1_windows.clone(),
                treelet_stationary: reports[1].mem.bvh_l1_windows.clone(),
            }),
            Err(e) => Err(e.clone()),
        })
        .collect()
}

/// Table 2 row: scene statistics, ours vs the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Scene.
    pub scene: SceneId,
    /// Our triangle count.
    pub triangles: usize,
    /// Our BVH size in bytes.
    pub bvh_bytes: u64,
    /// The paper's triangle count.
    pub paper_triangles: u64,
    /// The paper's BVH size in MB.
    pub paper_bvh_mb: f32,
}

/// Builds a Table 2 row (does not need a workload).
pub fn table2(id: SceneId, cfg: &ExperimentConfig) -> Table2Row {
    let scene = lumibench::build_scaled(id, cfg.detail_divisor);
    let bvh = Bvh::build(scene.triangles(), &cfg.bvh);
    Table2Row {
        scene: id,
        triangles: scene.triangles().len(),
        bvh_bytes: bvh.total_bytes(),
        paper_triangles: id.paper_triangles(),
        paper_bvh_mb: id.paper_bvh_mb(),
    }
}

/// Table 2 across `scenes` through the sweep engine. Scene + BVH builds
/// only — no workload, no simulation — so this bypasses the prepared
/// cache and runs plain pool tasks.
pub fn table2_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Table2Row>> {
    engine.run_tasks(
        scenes.iter().map(|&id| (id.name().to_string(), move || table2(id, cfg))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder;
    use crate::sweep::cell_key_fingerprint;
    use crate::workload::PathTracer;

    fn quick_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.resolution = 48;
        cfg
    }

    fn quick(id: SceneId) -> Prepared {
        Prepared::build(id, &quick_cfg())
    }

    /// Runs the figure `name` on REF and returns its row, read by column
    /// key.
    fn ref_row(name: &'static str) -> impl Fn(&str) -> f64 {
        let figure = figure(name).expect("declared");
        let figures = std::slice::from_ref(figure);
        let run = run_figures(&SweepEngine::new(1), figures, Some(&[SceneId::Ref]), &quick_cfg());
        let table = run.table(figure);
        assert_eq!(table.rows.len(), 1, "{name}: {:?}", run.failures().collect::<Vec<_>>());
        move |key| table.value(SceneId::Ref, key).unwrap_or_else(|| panic!("{name}: no {key}"))
    }

    #[test]
    fn fig01_reports_rates_in_range() {
        let row = ref_row("fig01");
        assert!(row("l1_bvh_miss") > 0.0 && row("l1_bvh_miss") <= 1.0);
        assert!(row("simt_eff") > 0.0 && row("simt_eff") <= 1.0);
    }

    #[test]
    fn fig10_speedups_are_positive() {
        let row = ref_row("fig10");
        assert!(row("vtq_speedup") > 0.0);
        assert!(row("prefetch_speedup") > 0.0);
        assert!(row("vtq/pref") > 0.0);
        assert_eq!(row("vtq_speedup"), row("base_cyc") / row("vtq_cyc"));
    }

    #[test]
    fn fig11_produces_two_series() {
        let rows = fig11_sweep(&SweepEngine::new(1), &[SceneId::Ref], &quick_cfg());
        let d = rows[0].as_ref().expect("both cells run");
        assert!(!d.baseline.is_empty());
        assert!(!d.treelet_stationary.is_empty());
    }

    #[test]
    fn fig12_naive_is_slower_than_grouped() {
        let row = ref_row("fig12");
        assert!(
            row("naive_speedup") < row("grouped_32_speedup"),
            "naive {} should be slower than grouped {}",
            row("naive_speedup"),
            row("grouped_32_speedup")
        );
    }

    #[test]
    fn fig13_reports_sweep() {
        let row = ref_row("fig13");
        for t in [8, 16, 22, 24] {
            assert!(row(&format!("speedup_repack_{t}")) > 0.0);
            let simt = row(&format!("simt_repack_{t}"));
            assert!(simt > 0.0 && simt <= 1.0);
        }
        // The printed SIMT columns repeat two of the pinned ones.
        assert_eq!(row("simt_nore"), row("simt_norepack"));
        assert_eq!(row("simt_t22"), row("simt_repack_22"));
    }

    #[test]
    fn mode_fractions_sum_to_one() {
        for name in ["fig14", "fig15"] {
            let row = ref_row(name);
            let sum = row("initial_fraction") + row("treelet_fraction") + row("ray_fraction");
            assert!((sum - 1.0).abs() < 1e-9, "{name}: {sum}");
        }
    }

    #[test]
    fn fig16_overhead_is_bounded() {
        // Charging CTA state movement usually slows things down, but the
        // throttled CTA issue it causes can *improve* drain-phase
        // coherence on some scenes (see EXPERIMENTS.md), so the sign is
        // not guaranteed. On the tiny quick-config scene the relative
        // overhead is also much larger than at full scale, because
        // traversal is cheap while restore latency is fixed — so this only
        // pins that the comparison runs and stays within a loose band.
        let row = ref_row("fig16");
        assert!(row("charged_cyc") > 0.0 && row("free_cyc") > 0.0);
        assert!(
            row("overhead") > -0.5 && row("overhead") < 2.0,
            "overhead {:.3} out of range",
            row("overhead")
        );
    }

    #[test]
    fn fig17_reports_positive_energy() {
        let row = ref_row("fig17");
        assert!(row("vtq_energy") > 0.0);
        assert!(row("novirt_energy") > 0.0);
        assert!(row("novirt_energy") <= row("vtq_energy"));
        assert!((0.0..1.0).contains(&row("virt_frac")));
    }

    #[test]
    fn figpolicies_rows_are_consistent() {
        let row = ref_row("figpolicies");
        assert!(row("predict_speedup") > 0.0);
        assert!(row("qnode_speedup") > 0.0);
        assert!((0.0..=1.0).contains(&row("predict_hit_rate")));
        assert_eq!(row("pred_hit"), row("predict_hit_rate"));
        assert!(row("base_cyc") > 0.0 && row("pred_cyc") > 0.0 && row("qnode_cyc") > 0.0);
        // Quantized interior nodes are smaller than wide ones, so the BVH
        // working set shrinks; traffic must not balloon.
        assert!(
            row("qnode_traffic_ratio") > 0.0 && row("qnode_traffic_ratio") < 1.5,
            "quantized traffic ratio {:.2} out of band",
            row("qnode_traffic_ratio")
        );
    }

    /// The union of several figures' cells runs each preset once; that is
    /// only the same simulation set if no two labels name one cell.
    #[test]
    fn preset_labels_are_unique_and_policies_distinct() {
        let presets = presets();
        for base in [ExperimentConfig::default(), ExperimentConfig::quick()] {
            let keys: Vec<u64> = (presets.iter())
                .map(|p| cell_key_fingerprint(&p.cell(SceneId::Ref, &base, p.label)))
                .collect();
            for (i, a) in presets.iter().enumerate() {
                for (j, b) in presets.iter().enumerate().skip(i + 1) {
                    assert_ne!(a.label, b.label);
                    assert_ne!(keys[i], keys[j], "{} and {} are one simulation", a.label, b.label);
                }
            }
        }
    }

    /// Presets are plain field edits; what each adds up to on every base —
    /// its policy's parameters against the machine's — must be a
    /// configuration the simulator accepts.
    #[test]
    fn every_preset_validates_on_every_base_configuration() {
        let bases =
            [ExperimentConfig::default(), ExperimentConfig::quick(), ExperimentConfig::table1()];
        for base in bases {
            assert_eq!(base.validate(), Ok(()));
            for preset in presets() {
                let mut cfg = preset.config(&base);
                cfg.gpu.policy = preset.policy;
                assert_eq!(cfg.validate(), Ok(()), "{}", preset.label);
            }
        }
        let unrunnable = |edit: fn(&mut ExperimentConfig)| {
            let mut cfg = ExperimentConfig::quick();
            edit(&mut cfg);
            cfg.validate().unwrap_err().to_string()
        };
        assert!(unrunnable(|cfg| cfg.resolution = 0).contains("resolution"));
        assert!(unrunnable(|cfg| cfg.spp = 0).contains("spp"));
        assert!(unrunnable(|cfg| cfg.spp = MAX_SPP + 1).contains("spp"));
        assert!(unrunnable(|cfg| cfg.gpu.mem.num_sms = 0).contains("num_sms"));
    }

    /// On the full configuration the `table1+*` presets run exactly
    /// [`ExperimentConfig::table1`]; on any other base they keep its
    /// scene scale and workload.
    #[test]
    fn table1_presets_run_the_table1_configuration() {
        let presets = presets();
        let table1: Vec<&Preset> =
            presets.iter().filter(|p| p.label.starts_with("table1+")).collect();
        assert_eq!(table1.len(), 3);
        let quick = quick_cfg();
        for preset in table1 {
            assert_eq!(preset.config(&ExperimentConfig::default()), ExperimentConfig::table1());
            let scaled = preset.config(&quick);
            assert_eq!(scaled.gpu.mem, ExperimentConfig::table1().gpu.mem);
            assert_eq!((scaled.detail_divisor, scaled.resolution), (8, quick.resolution));
        }
    }

    /// The two workload parameters of the configuration are the calls the
    /// extension commands used to make by hand.
    #[test]
    fn prepared_build_applies_the_ray_order_and_the_sample_count() {
        // Neither type compares; their renderings hold every bit.
        let calls = |w: &Workload| format!("{w:?}");
        let pixels = |image: &Image| format!("{image:?}");
        let pixel = quick(SceneId::Bunny);
        let build = |cfg| Prepared::build(SceneId::Bunny, &cfg);

        let sorted = build(ExperimentConfig { ray_order: RayOrder::FirstHitSorted, ..quick_cfg() });
        let by_hand = reorder::sort_by_first_hit(&pixel.workload, &pixel.scene, &pixel.bvh);
        assert_eq!(calls(&sorted.workload), calls(&by_hand));
        assert_ne!(calls(&sorted.workload), calls(&pixel.workload));
        let shuffled = build(ExperimentConfig { ray_order: RayOrder::Shuffled, ..quick_cfg() });
        assert_eq!(calls(&shuffled.workload), calls(&reorder::shuffle(&pixel.workload, 0x5EED)));
        assert_ne!(calls(&shuffled.workload), calls(&pixel.workload));
        assert_eq!(pixels(&sorted.image), pixels(&pixel.image));
        assert_eq!(pixels(&shuffled.image), pixels(&pixel.image));

        let spp4 = build(ExperimentConfig { spp: 4, ..quick_cfg() });
        let cfg = quick_cfg();
        let (workload, image) = PathTracer::new(cfg.resolution, cfg.max_bounces)
            .with_spp(4)
            .run(&pixel.scene, &pixel.bvh);
        assert_eq!(spp4.workload.tasks.len(), 4 * pixel.workload.tasks.len());
        assert_eq!(calls(&spp4.workload), calls(&workload));
        assert_eq!(pixels(&spp4.image), pixels(&image));
    }

    #[test]
    fn figures_name_only_listed_presets_and_key_their_columns_uniquely() {
        let presets = presets();
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[i + 1..].iter().all(|g| g.name != f.name), "{} twice", f.name);
            for label in f.presets {
                assert!(presets.iter().any(|p| p.label == *label), "{}: {label}", f.name);
            }
            for (j, c) in f.columns.iter().enumerate() {
                assert!(!c.key.is_empty(), "{}: column {j} has no key", f.name);
                assert!(f.columns[j + 1..].iter().all(|d| d.key != c.key), "{}: {}", f.name, c.key);
                assert!(
                    !c.header.is_empty() || c.tolerance.is_some(),
                    "{}: {} is dead",
                    f.name,
                    c.key
                );
            }
        }
    }

    #[test]
    fn summaries_cover_defined_cells_only() {
        let mut table = FigureTable {
            figure: figure("fig01").expect("declared"),
            rows: vec![
                (SceneId::Ref, vec![Some(0.5), None]),
                (SceneId::Bunny, vec![Some(0.25), None]),
                (SceneId::Lands, vec![None, None]),
            ],
        };
        assert_eq!(table.header(), ["scene", "l1_bvh_miss", "simt_eff"]);
        assert_eq!(table.body()[2], ["LANDS", "n/a", "n/a"]);
        assert_eq!(table.summary(0), Some(0.375));
        assert_eq!(table.summary_row().expect("rows"), ["MEAN", "0.375", "n/a"]);
        // No surviving row: a header-only table, no summary of nothing.
        table.rows.clear();
        assert_eq!(table.summary_row(), None);
        assert_eq!(Summary::Geomean.of(&[Some(1.0), None, Some(4.0)]), Some(2.0));
        assert_eq!(Summary::Geomean.of(&[None]), None);
    }

    #[test]
    fn summary_row_is_labelled_by_its_rules() {
        let label = |name: &str| {
            let figure = figure(name).expect("declared");
            let row = vec![Some(1.0); figure.columns.len()];
            let table = FigureTable { figure, rows: vec![(SceneId::Ref, row)] };
            table.summary_row().expect("summarised")[0].clone()
        };
        // All geometric means; a mix; all arithmetic means; and a figure
        // whose only arithmetic mean is not printed.
        assert_eq!(label("fig10"), "GEOMEAN");
        assert_eq!(label("fig13"), "MEAN");
        assert_eq!(label("fig16"), "MEAN");
        assert_eq!(label("figpolicies"), "GEOMEAN");
    }

    #[test]
    fn aggregate_stats_merges_scene_runs() {
        let p = quick(SceneId::Ref);
        let a = p.run_policy(TraversalPolicy::Baseline);
        let b = p.run_policy(TraversalPolicy::Vtq(VtqParams::default()));
        let agg = aggregate_stats([&a, &b]);
        assert_eq!(agg.rays_completed, a.stats.rays_completed + b.stats.rays_completed);
        assert_eq!(agg.cycles, a.stats.cycles.max(b.stats.cycles));
        for (i, unit) in agg.stall.iter().enumerate() {
            assert_eq!(unit.total(), a.stats.stall[i].total() + b.stats.stall[i].total());
        }
    }

    #[test]
    fn export_run_writes_all_artifacts() {
        let p = quick(SceneId::Ref);
        let report = p.run_policy(TraversalPolicy::Vtq(VtqParams::default()));
        let dir = std::env::temp_dir().join(format!("vtq_export_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_run(&dir, "ref/vtq", &report).expect("export");
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics");
        assert!(metrics.trim().starts_with("{\"label\":\"ref/vtq\""));
        let stalls = std::fs::read_to_string(dir.join("ref-vtq.stalls.csv")).expect("stalls");
        assert!(stalls.starts_with("sm,busy,"));
        if !report.stats.series.is_empty() {
            let series = std::fs::read_to_string(dir.join("ref-vtq.series.csv")).expect("series");
            assert!(series.starts_with("start_cycle,"));
        }
        // Appending a second run grows the metrics log.
        export_run(&dir, "ref/base", &report).expect("export 2");
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics 2");
        assert_eq!(metrics.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table2_matches_scene_registry() {
        let row = table2(SceneId::Bunny, &ExperimentConfig::quick());
        assert!(row.triangles > 0);
        assert!(row.bvh_bytes > 0);
        assert_eq!(row.paper_bvh_mb, SceneId::Bunny.paper_bvh_mb());
    }
}
