//! Differential conformance harness: functional oracle, cross-policy hit
//! equivalence, and golden-figure regression.
//!
//! The paper's whole argument (§6, Figures 10–16) rests on one invariant:
//! VTQ's mode switching, queue grouping and warp repacking change *when*
//! rays traverse — never *what* they hit. This module proves it end to
//! end:
//!
//! 1. **Functional oracle** ([`oracle_run`]) — a timing-free executor of
//!    the exact same [`Workload`]/`PathTask` stream the simulator replays,
//!    using only [`rtbvh::WideTree::intersect`] / [`rtbvh::WideTree::occluded`] with
//!    the simulator's [`gpusim::TRACE_T_MIN`] epsilon.
//! 2. **Differential runner** ([`run_differential`]) — for every scene ×
//!    every preset (baseline, prefetch, VTQ and its grouping / repacking /
//!    virtualization variants, ray-path prediction, and the
//!    quantized-node BVH build), extracts the per-ray
//!    [`PrimHit`] records of the run a figure makes of that cell — it
//!    replays the prepared scene's tape — and
//!    asserts **bit-equal** `(prim, t)` agreement with the oracle for
//!    closest-hit queries (hit-vs-miss agreement for anyhit queries,
//!    whose terminating occluder is order-dependent by design). The first
//!    divergent ray is reported with a forensics-style [`Divergence`]
//!    dump.
//! 3. **Golden-figure regression** ([`check_golden`] / [`write_golden`])
//!    — every column of [`FIGURES`] that carries a tolerance (speedups
//!    and their geomeans, mode-cycle fractions, per-mode intersection
//!    shares, virtualization overhead, energy ratios, ...) is snapshotted
//!    into a checked-in `golden/<figure>.json` file with per-entry
//!    tolerance bands, turning EXPERIMENTS.md claims into executable
//!    assertions.
//!
//! The `vtq-bench conformance [--quick] [--update-golden]` subcommand
//! drives all three, riding [`SweepEngine`] for parallelism and exiting
//! nonzero on any divergence or out-of-band golden value.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::Path;

use gpusim::{HitCapture, PathTask, SimError, TraceCall, TraversalPolicy, Workload, TRACE_T_MIN};
use rtbvh::{Bvh, NodeFormat, PrimHit};
use rtscene::lumibench::SceneId;
use rtscene::Triangle;

use crate::experiment::{
    presets, run_figures, ExperimentConfig, FigureTable, Prepared, Summary, Tolerance, FIGURES,
};
use crate::jsonl::{check_line, frame_line, parse_line, Record};
use crate::sweep::{config_fingerprint, Cell, RunMatrix, SweepEngine};
use crate::workload::PARALLEL_MIN_TASKS;

// ---------------------------------------------------------------------------
// Functional oracle
// ---------------------------------------------------------------------------

/// Timing-free functional answer to one [`TraceCall`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleAnswer {
    /// Closest-hit query: the closest intersection in
    /// `(TRACE_T_MIN, t_max)`, equal-`t` ties broken by lowest prim id.
    Closest(Option<PrimHit>),
    /// Anyhit (occlusion) query: whether *anything* intersects the
    /// interval. Which occluder terminates hardware traversal first is
    /// visit-order dependent, so only the boolean is contract.
    Occluded(bool),
}

/// The oracle's answers for a whole workload: `answers[task][call]`
/// mirrors the shape of [`gpusim::HitCapture`].
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRun {
    /// Per-task, per-trace-call answers, in workload order.
    pub answers: Vec<Vec<OracleAnswer>>,
}

impl OracleRun {
    /// Total trace calls answered.
    pub fn total_calls(&self) -> usize {
        self.answers.iter().map(|t| t.len()).sum()
    }
}

/// Executes `workload` functionally — no timing, no policies, no queues —
/// using only the CPU reference traversal. This is the promotion of the
/// ad-hoc `run_free` helpers from `gpusim`'s ray tests into a first-class
/// oracle: the simulator under *any* [`TraversalPolicy`] must reproduce
/// these answers exactly (see [`compare_hits`]).
///
/// Every answer is a pure function of its call, so a large workload is
/// replayed on [`prof::par::threads`] threads by ranges of tasks; the
/// answers come back in workload order whatever the thread count.
pub fn oracle_run(bvh: &Bvh, triangles: &[Triangle], workload: &Workload) -> OracleRun {
    let threads = prof::par::threads_for(workload.tasks.len(), PARALLEL_MIN_TASKS);
    oracle_run_on(threads, bvh, triangles, workload)
}

/// [`oracle_run`] on exactly `threads` threads.
fn oracle_run_on(
    threads: usize,
    bvh: &Bvh,
    triangles: &[Triangle],
    workload: &Workload,
) -> OracleRun {
    /// Tasks per unit of work handed to a thread.
    const RANGE_TASKS: usize = 2048;
    let _oracle = prof::span("oracle");
    prof::add(prof::Counter::OracleRays, workload.total_rays() as u64);
    let answer = |call: &TraceCall| {
        if call.anyhit {
            OracleAnswer::Occluded(bvh.occluded(triangles, &call.ray, TRACE_T_MIN, call.t_max))
        } else {
            OracleAnswer::Closest(bvh.intersect(triangles, &call.ray, TRACE_T_MIN, call.t_max))
        }
    };
    let ranges: Vec<&[PathTask]> = workload.tasks.chunks(RANGE_TASKS).collect();
    let answered = prof::par::map(threads, ranges, |tasks| {
        tasks.iter().map(|task| task.rays.iter().map(answer).collect()).collect::<Vec<_>>()
    });
    OracleRun { answers: answered.into_iter().flatten().collect() }
}

// ---------------------------------------------------------------------------
// Differential comparison
// ---------------------------------------------------------------------------

/// Tallies of one clean scene × policy comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Equivalence {
    /// Trace calls compared.
    pub calls_checked: usize,
    /// Closest-hit calls among them.
    pub closest_calls: usize,
    /// Anyhit calls among them.
    pub anyhit_calls: usize,
    /// Calls on which both sides reported a hit.
    pub hits: usize,
}

/// Forensics dump of the first divergent ray of a scene × policy cell.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scene under comparison.
    pub scene: SceneId,
    /// Preset label (see [`presets`]).
    pub policy: String,
    /// Workload task (pixel × sample) index.
    pub task: usize,
    /// Trace-call index within the task (bounce order).
    pub call: usize,
    /// The diverging trace call itself (ray, interval, query kind).
    pub trace: TraceCall,
    /// What the oracle computed.
    pub expected: OracleAnswer,
    /// What the simulator captured.
    pub got: Option<PrimHit>,
}

fn fmt_hit(hit: &Option<PrimHit>) -> String {
    match hit {
        Some(h) => format!("prim {} at t={} (bits {:#010x})", h.prim, h.t, h.t.to_bits()),
        None => "miss".to_string(),
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hit divergence: scene {} policy {}", self.scene.name(), self.policy)?;
        writeln!(
            f,
            "  task {} call {} ({})",
            self.task,
            self.call,
            if self.trace.anyhit { "anyhit" } else { "closest" }
        )?;
        writeln!(f, "  ray: origin {:?} dir {:?}", self.trace.ray.origin, self.trace.ray.dir)?;
        writeln!(f, "  interval: ({TRACE_T_MIN}, {})", self.trace.t_max)?;
        match &self.expected {
            OracleAnswer::Closest(h) => writeln!(f, "  oracle:    {}", fmt_hit(h))?,
            OracleAnswer::Occluded(o) => {
                writeln!(f, "  oracle:    {}", if *o { "occluded" } else { "unoccluded" })?
            }
        }
        write!(f, "  simulator: {}", fmt_hit(&self.got))
    }
}

/// Compares a simulator [`HitCapture`] against the oracle, call by call.
///
/// Closest-hit calls must agree **bit for bit** on `(prim, t)`; anyhit
/// calls must agree on hit-vs-miss. The first disagreement aborts the
/// comparison with a [`Divergence`] dump.
///
/// # Errors
///
/// The first divergent call — including shape mismatches (a call the
/// capture is missing entirely).
pub fn compare_hits(
    scene: SceneId,
    policy: &str,
    workload: &Workload,
    oracle: &OracleRun,
    capture: &HitCapture,
) -> Result<Equivalence, Box<Divergence>> {
    let mut eq = Equivalence::default();
    for (task, calls) in workload.tasks.iter().enumerate() {
        for (call, trace) in calls.rays.iter().enumerate() {
            let expected = oracle.answers[task][call];
            let diverge = |got: Option<PrimHit>| {
                Box::new(Divergence {
                    scene,
                    policy: policy.to_string(),
                    task,
                    call,
                    trace: *trace,
                    expected,
                    got,
                })
            };
            let Some(got) = capture.get(task, call) else {
                return Err(diverge(None));
            };
            let agree = match expected {
                OracleAnswer::Closest(want) => match (want, got) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.prim == b.prim && a.t.to_bits() == b.t.to_bits(),
                    _ => false,
                },
                OracleAnswer::Occluded(want) => want == got.is_some(),
            };
            if !agree {
                return Err(diverge(got));
            }
            eq.calls_checked += 1;
            if trace.anyhit {
                eq.anyhit_calls += 1;
            } else {
                eq.closest_calls += 1;
            }
            if got.is_some() {
                eq.hits += 1;
            }
        }
    }
    Ok(eq)
}

// ---------------------------------------------------------------------------
// Differential runner (scene × policy sweep)
// ---------------------------------------------------------------------------

/// The conformance matrix is the preset list: whatever a figure may
/// simulate is checked. Every preset is compared against the *wide-node*
/// oracle of its own workload ([`oracle_config`]) — policies and GPU
/// parameters may only change traversal order, and quantized nodes
/// only conservatively inflate interior bounds (a superset of leaves
/// visited; triangle tests are exact and ties break identically), so
/// closest-hit `(prim, t)` answers must stay bit-equal either way.
pub use crate::experiment::{presets as conformance_presets, Preset as ConformancePreset};

/// The differential matrix: every scene under every one of `presets`,
/// scene-major, cells labelled `<scene>/<preset label>`.
fn differential_matrix(
    scenes: &[SceneId],
    presets: &[ConformancePreset],
    cfg: &ExperimentConfig,
) -> RunMatrix {
    let mut matrix = RunMatrix::new();
    for &scene in scenes {
        for preset in presets {
            matrix.push(preset.cell(scene, cfg, preset.label));
        }
    }
    matrix
}

/// Outcome of one scene × policy differential cell.
#[derive(Debug, Clone)]
pub enum CellVerdict {
    /// Simulator and oracle agree on every call.
    Agree(Equivalence),
    /// First divergent ray, with forensics.
    Diverged(Box<Divergence>),
    /// The cell could not run (simulation error or worker panic).
    Error(String),
}

/// One row of a [`ConformanceReport`].
#[derive(Debug, Clone)]
pub struct ConformanceCell {
    /// Scene.
    pub scene: SceneId,
    /// Policy label.
    pub policy: &'static str,
    /// What happened.
    pub verdict: CellVerdict,
}

/// Every scene × policy verdict of one differential run, in matrix order.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Per-cell verdicts (scene-major, [`presets`] order).
    pub cells: Vec<ConformanceCell>,
}

impl ConformanceReport {
    /// `true` when every cell agreed.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| matches!(c.verdict, CellVerdict::Agree(_)))
    }

    /// The cells that did not agree.
    pub fn failures(&self) -> impl Iterator<Item = &ConformanceCell> {
        self.cells.iter().filter(|c| !matches!(c.verdict, CellVerdict::Agree(_)))
    }

    /// Total calls checked across agreeing cells.
    pub fn calls_checked(&self) -> usize {
        self.cells
            .iter()
            .map(|c| match &c.verdict {
                CellVerdict::Agree(eq) => eq.calls_checked,
                _ => 0,
            })
            .sum()
    }
}

/// The configuration whose prepared scene answers for `cell`'s oracle:
/// the cell's own workload (resolution, bounces, samples, shadow rays,
/// thread order) traced over the wide-node BVH. GPU parameters shape no
/// workload, so they are `base`'s and cells that differ only there share
/// one oracle.
fn oracle_config(cell: &Cell, base: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = cell.config;
    cfg.gpu = base.gpu;
    cfg.bvh.node_format = NodeFormat::Wide;
    cfg
}

/// Runs the full differential matrix: one oracle pass per scene and
/// distinct workload, then every scene × preset simulation with hit
/// capture, compared call by call. All cells ride `engine`'s
/// work-stealing pool; results come back in deterministic matrix order
/// regardless of `--jobs`.
///
/// Each cell runs the way the figures run it
/// ([`Prepared::simulator`]`(policy).try_run`): the matrix checks the
/// engine path that produces every figure and golden, including the
/// walks of the rays the ray-path predictor speculates for.
pub fn run_differential(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> ConformanceReport {
    differential(engine, scenes, &presets(), cfg, |cell, prepared| {
        let report = prepared.simulator(cell.policy).try_run(&prepared.workload)?;
        Ok(HitCapture::from_report(&report))
    })
}

/// The differential check of the tapes themselves: for every scene and
/// each preset labelled in `labels`, the hits recorded in the cell's
/// prepared tape — which every run that replays it reports — against
/// the oracle, deduplicated as in [`run_differential`]. No simulation
/// runs, so this is the cheap half of the matrix.
pub fn check_tapes(
    engine: &SweepEngine,
    scenes: &[SceneId],
    labels: &[&str],
    cfg: &ExperimentConfig,
) -> ConformanceReport {
    let presets: Vec<_> = presets().into_iter().filter(|p| labels.contains(&p.label)).collect();
    differential(engine, scenes, &presets, cfg, |_, prepared| {
        Ok(HitCapture::from_tape(&prepared.tape))
    })
}

/// Every scene × one of `presets`, each cell's [`HitCapture`] from
/// `capture` compared against the oracle of its workload (one oracle pass
/// per scene and distinct workload).
fn differential(
    engine: &SweepEngine,
    scenes: &[SceneId],
    presets: &[ConformancePreset],
    cfg: &ExperimentConfig,
    capture: impl Fn(&Cell, &Prepared) -> Result<HitCapture, SimError> + Sync,
) -> ConformanceReport {
    let matrix = differential_matrix(scenes, presets, cfg);
    let oracle_key = |cell: &Cell| (cell.scene, config_fingerprint(&oracle_config(cell, cfg)));

    // Phase 1: the timing-free oracle, once per scene and workload
    // (parallel).
    let mut keys = Vec::new();
    let mut oracle_matrix = RunMatrix::new();
    for cell in matrix.cells() {
        let key = oracle_key(cell);
        if !keys.contains(&key) {
            keys.push(key);
            oracle_matrix.push(Cell {
                scene: cell.scene,
                config: oracle_config(cell, cfg),
                policy: TraversalPolicy::Baseline,
                label: format!("{}/oracle", cell.scene.name()),
            });
        }
    }
    let oracle_results =
        engine.run_map(&oracle_matrix, |_, p| oracle_run(&p.bvh, p.scene.triangles(), &p.workload));
    let oracles: HashMap<(SceneId, u64), Result<OracleRun, String>> = keys
        .into_iter()
        .zip(oracle_results.into_iter().map(|r| r.map_err(|e| e.to_string())))
        .collect();

    // Phase 2: each cell's capture, compared against the cell's oracle
    // inside the worker.
    let oracles_ref = &oracles;
    let verdicts = engine.run_map(&matrix, |cell, prepared| {
        let oracle = match &oracles_ref[&oracle_key(cell)] {
            Ok(o) => o,
            Err(e) => return CellVerdict::Error(format!("oracle failed: {e}")),
        };
        let policy_label = cell.label.split('/').nth(1).unwrap_or("?").to_string();
        match capture(cell, prepared) {
            Ok(capture) => {
                match compare_hits(cell.scene, &policy_label, &prepared.workload, oracle, &capture)
                {
                    Ok(eq) => CellVerdict::Agree(eq),
                    Err(d) => CellVerdict::Diverged(d),
                }
            }
            Err(e) => CellVerdict::Error(e.to_string()),
        }
    });

    let mut cells = Vec::with_capacity(matrix.len());
    let mut it = verdicts.into_iter();
    for &scene in scenes {
        for preset in presets {
            let verdict = match it.next().expect("one verdict per cell") {
                Ok(v) => v,
                Err(e) => CellVerdict::Error(e.to_string()),
            };
            cells.push(ConformanceCell { scene, policy: preset.label, verdict });
        }
    }
    ConformanceReport { cells }
}

// ---------------------------------------------------------------------------
// Golden-figure regression
// ---------------------------------------------------------------------------

/// One snapshotted statistic with its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenEntry {
    /// Stable key, `scene/<name>/<stat>` or `agg/<stat>`.
    pub key: String,
    /// Snapshotted value.
    pub value: f64,
    /// Tolerance band half-width.
    pub tol: f64,
    /// `true`: `tol` is relative to `|value|`; `false`: absolute.
    pub rel: bool,
}

impl GoldenEntry {
    /// `true` when `current` lies within this entry's band.
    pub fn accepts(&self, current: f64) -> bool {
        let band = if self.rel { self.tol * self.value.abs() } else { self.tol };
        (current - self.value).abs() <= band
    }
}

/// A checked-in snapshot of one figure's headline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenFigure {
    /// Figure name ([`crate::experiment::Figure::name`]) = file stem.
    pub figure: String,
    /// Fingerprint of the [`ExperimentConfig`] the snapshot was taken
    /// under ([`config_fingerprint`]); values are only comparable between
    /// identical configurations.
    pub fingerprint: u64,
    /// Scene names the snapshot covers, in sweep order.
    pub scenes: Vec<String>,
    /// The snapshotted statistics.
    pub entries: Vec<GoldenEntry>,
}

/// Relative tolerance for cycle-derived ratios (speedups): simulation is
/// deterministic, so the band only absorbs intended perf-neutral changes
/// (reviewed via `--update-golden` diffs), not run-to-run noise.
pub const REL_TOL: f64 = 0.05;
/// Absolute tolerance for fraction-valued statistics (mode shares).
pub const ABS_TOL: f64 = 0.02;

fn entry(tolerance: Tolerance, key: String, value: f64) -> GoldenEntry {
    match tolerance {
        Tolerance::Rel => GoldenEntry { key, value, tol: REL_TOL, rel: true },
        Tolerance::Abs => GoldenEntry { key, value, tol: ABS_TOL, rel: false },
    }
}

impl GoldenFigure {
    /// The snapshot of one figure's table: `scene/<scene>/<key>` for every
    /// defined cell of every column that carries a tolerance (rows in scene
    /// order, columns in declaration order), then `agg/<rule>_<key>` for
    /// those of them that have a summary rule. `None` for a figure without a
    /// pinned column.
    pub fn of(cfg: &ExperimentConfig, table: &FigureTable) -> Option<GoldenFigure> {
        let pinned: Vec<_> = (table.figure.columns.iter().enumerate())
            .filter_map(|(i, c)| Some((i, c, c.tolerance?)))
            .collect();
        if pinned.is_empty() {
            return None;
        }
        let mut entries = Vec::new();
        for (scene, values) in &table.rows {
            for &(i, c, tolerance) in &pinned {
                if let Some(value) = values[i] {
                    entries.push(entry(
                        tolerance,
                        format!("scene/{}/{}", scene.name(), c.key),
                        value,
                    ));
                }
            }
        }
        // Geomeans before means: the order the committed snapshots hold.
        for rule in [Summary::Geomean, Summary::Mean] {
            for &(i, c, tolerance) in pinned.iter().filter(|(_, c, _)| c.summary == Some(rule)) {
                if let Some(value) = table.summary(i) {
                    entries.push(entry(tolerance, format!("agg/{}_{}", rule.name(), c.key), value));
                }
            }
        }
        Some(GoldenFigure {
            figure: table.figure.name.to_string(),
            fingerprint: config_fingerprint(cfg),
            scenes: table.rows.iter().map(|(scene, _)| scene.name().to_string()).collect(),
            entries,
        })
    }
}

/// Computes the current snapshot of every figure that pins a column, from
/// one sweep over the union of their cells — on `scenes` when given,
/// otherwise each figure on its own [`crate::experiment::Figure::scenes`].
/// A scene with a failed cell is dropped from the figures that need it,
/// with a stderr notice.
pub fn current_goldens(
    engine: &SweepEngine,
    scenes: Option<&[SceneId]>,
    cfg: &ExperimentConfig,
) -> Vec<GoldenFigure> {
    let run = run_figures(engine, &FIGURES, scenes, cfg);
    for e in run.failures() {
        eprintln!("[conformance] golden sweep cell failed: {e}");
    }
    FIGURES.iter().filter_map(|figure| GoldenFigure::of(cfg, &run.table(figure))).collect()
}

// ---------------------------------------------------------------------------
// Golden persistence
// ---------------------------------------------------------------------------

/// Serializes a golden figure to its JSONL file content: the shared
/// provenance header, a meta line, then one line per entry (flat
/// objects, lexical diff friendly), every line checksum-framed.
pub fn golden_jsonl(g: &GoldenFigure) -> String {
    let mut out = frame_line(&crate::provenance::provenance_line(Some(g.fingerprint), None));
    out.push('\n');
    let meta = Record::new("golden_meta")
        .str("figure", &g.figure)
        .str("fingerprint", format_args!("{:#018x}", g.fingerprint))
        .str("scenes", g.scenes.join(","));
    out.push_str(&meta.framed());
    out.push('\n');
    for e in &g.entries {
        let entry = Record::new("golden_entry")
            .str("key", &e.key)
            .f64("value", e.value)
            .f64("tol", e.tol)
            .bool("rel", e.rel);
        out.push_str(&entry.framed());
        out.push('\n');
    }
    out
}

/// Parses [`golden_jsonl`] output back into a [`GoldenFigure`]; legacy
/// unframed snapshots are still accepted.
///
/// # Errors
///
/// A description of the first corrupt or malformed line.
pub fn parse_golden_jsonl(text: &str) -> Result<GoldenFigure, String> {
    let mut figure: Option<GoldenFigure> = None;
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", no + 1);
        let line = check_line(line).map_err(|e| at(e.to_string()))?;
        let f = parse_line(&line).map_err(at)?;
        match f.record() {
            // The shared artifact-provenance header: carries build
            // metadata, not golden data, so it is validated elsewhere
            // (config fingerprints compare via golden_meta) and skipped
            // here. Pre-stamp snapshots simply lack the line.
            Some(crate::provenance::PROVENANCE_RECORD) => {}
            Some("golden_meta") => {
                let scenes = f.str("scenes").unwrap_or_default();
                figure = Some(GoldenFigure {
                    figure: f.str("figure").map_or_else(|_| "?".to_string(), Cow::into_owned),
                    fingerprint: f.hex64("fingerprint").map_err(at)?,
                    scenes: scenes
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(str::to_string)
                        .collect(),
                    entries: Vec::new(),
                });
            }
            Some("golden_entry") => {
                let fig = figure.as_mut().ok_or_else(|| at("entry before meta".to_string()))?;
                fig.entries.push(GoldenEntry {
                    key: f.str("key").map_err(at)?.into_owned(),
                    value: f.f64("value").map_err(at)?,
                    tol: f.f64("tol").map_err(at)?,
                    rel: f.bool("rel").map_err(at)?,
                });
            }
            other => return Err(at(format!("unknown record {other:?}"))),
        }
    }
    figure.ok_or_else(|| "no golden_meta record".to_string())
}

/// Writes each figure's snapshot to `dir/<figure>.json`, creating `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_golden(dir: &Path, goldens: &[GoldenFigure]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for g in goldens {
        crate::diskfault::write_file_durable(
            &dir.join(format!("{}.json", g.figure)),
            golden_jsonl(g).as_bytes(),
        )?;
    }
    Ok(())
}

/// Outcome of validating one figure against its checked-in snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenOutcome {
    /// Every comparable entry is within its tolerance band.
    /// `checked`/`skipped` count entries (entries are skipped when the
    /// current run covers a scene subset of the snapshot).
    Match {
        /// Entries validated.
        checked: usize,
        /// Entries skipped for scene-subset runs.
        skipped: usize,
    },
    /// Out-of-band or missing entries; one description per violation.
    Mismatch(Vec<String>),
    /// No snapshot file exists for this figure.
    MissingFile,
    /// The snapshot was taken under a different [`ExperimentConfig`]
    /// (fingerprints differ), so values are not comparable.
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        golden: u64,
        /// Fingerprint of the current run.
        current: u64,
    },
    /// The snapshot file failed its per-line checksum frames: the bytes
    /// on disk are not the bytes that were written. Carries the
    /// forensic description. Distinct from [`Mismatch`](Self::Mismatch)
    /// because a damaged baseline is a usage/environment problem, not a
    /// regression — the harness exits 2, telling the operator to
    /// restore the file from version control or regenerate it.
    Corrupt(String),
}

impl GoldenOutcome {
    /// `true` for outcomes that should fail the harness. A missing file
    /// or config mismatch is reported but not fatal: snapshots only bind
    /// the configuration they were taken under. A corrupt snapshot is
    /// fatal too, but on the usage exit path (see
    /// [`Corrupt`](Self::Corrupt)), which callers branch on explicitly.
    pub fn is_failure(&self) -> bool {
        matches!(self, GoldenOutcome::Mismatch(_) | GoldenOutcome::Corrupt(_))
    }
}

/// Validates `current` (freshly computed) against `dir/<figure>.json`.
///
/// Per-scene entries are compared when the scene appears in the current
/// run; aggregate (`agg/`) entries only when the scene sets match
/// exactly, since geomeans over different scene subsets are not
/// comparable. Golden entries with no current counterpart (and vice
/// versa, for matching scene sets) are mismatches.
pub fn check_golden(dir: &Path, current: &GoldenFigure) -> GoldenOutcome {
    let path = dir.join(format!("{}.json", current.figure));
    let Ok(text) = fs::read_to_string(&path) else {
        return GoldenOutcome::MissingFile;
    };
    // Integrity gate before any comparison: a snapshot whose checksum
    // frames fail is corrupt on disk and must never be compared against
    // (forensically reported instead of surfacing as a figure
    // "regression").
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = crate::jsonl::check_line(line) {
            return GoldenOutcome::Corrupt(format!(
                "{}: line {}: {e} — restore the snapshot from version control or \
                 regenerate it with --update-golden",
                path.display(),
                no + 1,
            ));
        }
    }
    let golden = match parse_golden_jsonl(&text) {
        Ok(g) => g,
        Err(e) => return GoldenOutcome::Mismatch(vec![format!("{}: {e}", path.display())]),
    };
    if golden.fingerprint != current.fingerprint {
        return GoldenOutcome::ConfigMismatch {
            golden: golden.fingerprint,
            current: current.fingerprint,
        };
    }
    let full_cover = golden.scenes == current.scenes;
    let mut violations = Vec::new();
    let mut checked = 0;
    let mut skipped = 0;
    for g in &golden.entries {
        fn scene_of(key: &str) -> Option<&str> {
            key.strip_prefix("scene/").and_then(|k| k.split('/').next())
        }
        let comparable = if g.key.starts_with("agg/") {
            full_cover
        } else {
            scene_of(&g.key).is_some_and(|s| current.scenes.iter().any(|c| c == s))
        };
        if !comparable {
            skipped += 1;
            continue;
        }
        match current.entries.iter().find(|c| c.key == g.key) {
            None => violations.push(format!("{}: missing from current run", g.key)),
            Some(c) if !g.accepts(c.value) => violations.push(format!(
                "{}: current {} outside golden {} ± {}{}",
                g.key,
                c.value,
                g.value,
                g.tol,
                if g.rel { " (rel)" } else { "" },
            )),
            Some(_) => checked += 1,
        }
    }
    if full_cover {
        for c in &current.entries {
            if !golden.entries.iter().any(|g| g.key == c.key) {
                violations.push(format!("{}: not in golden snapshot (run --update-golden)", c.key));
            }
        }
    }
    if violations.is_empty() {
        GoldenOutcome::Match { checked, skipped }
    } else {
        GoldenOutcome::Mismatch(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::quantized_config;
    use gpusim::{PredictParams, TraversalPolicy, VtqParams};
    use rtbvh::NodeFormat;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.resolution = 12;
        cfg.detail_divisor = 16;
        cfg
    }

    fn run_with_hits(p: &Prepared, policy: TraversalPolicy) -> (gpusim::SimReport, HitCapture) {
        p.simulator(policy).try_run_with_hits(&p.workload).expect("runs")
    }

    #[test]
    fn oracle_matches_simulator_on_bunny() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        assert_eq!(oracle.total_calls(), p.workload.total_rays());
        for (label, policy) in [
            ("baseline", TraversalPolicy::Baseline),
            ("vtq", TraversalPolicy::Vtq(VtqParams::default())),
        ] {
            let (_, capture) = run_with_hits(&p, policy);
            let eq = compare_hits(SceneId::Bunny, label, &p.workload, &oracle, &capture)
                .unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(eq.calls_checked, p.workload.total_rays());
            assert!(eq.hits > 0, "bunny rays must hit something");
        }
    }

    #[test]
    fn the_thread_count_does_not_change_the_oracle() {
        // 9216 tasks: four full ranges and a short one, closest and anyhit.
        let cfg = ExperimentConfig { resolution: 96, shadow_rays: true, ..tiny_cfg() };
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let serial = oracle_run_on(1, &p.bvh, p.scene.triangles(), &p.workload);
        assert_eq!(serial.answers.len(), p.workload.tasks.len());
        assert_eq!(serial, oracle_run(&p.bvh, p.scene.triangles(), &p.workload));
        for threads in [2, 3, 8] {
            let forked = oracle_run_on(threads, &p.bvh, p.scene.triangles(), &p.workload);
            assert_eq!(serial, forked, "{threads} threads");
        }
    }

    #[test]
    fn oracle_checks_anyhit_shadow_rays() {
        let mut cfg = tiny_cfg();
        cfg.shadow_rays = true;
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        let anyhit = oracle
            .answers
            .iter()
            .flatten()
            .filter(|a| matches!(a, OracleAnswer::Occluded(_)))
            .count();
        assert!(anyhit > 0, "NEE workload must contain occlusion queries");
        let (_, capture) = run_with_hits(&p, TraversalPolicy::Baseline);
        let eq = compare_hits(SceneId::Bunny, "baseline", &p.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.anyhit_calls, anyhit);
    }

    #[test]
    fn prediction_misses_fall_back_to_full_traversal() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        // A 1-entry table thrashes, so almost every lookup misses; the
        // predict-miss path must fall back to full traversal and stay
        // bit-equal to the oracle.
        let params = PredictParams { table_entries: 1, ..Default::default() };
        let (report, capture) = run_with_hits(&p, TraversalPolicy::Predict(params));
        assert!(report.stats.predict_lookups > 0, "prediction never consulted");
        let eq = compare_hits(SceneId::Bunny, "predict-miss", &p.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.calls_checked, p.workload.total_rays());
    }

    #[test]
    fn quantized_nodes_agree_with_wide_oracle() {
        let cfg = tiny_cfg();
        let wide = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&wide.bvh, wide.scene.triangles(), &wide.workload);
        // The quantized build decodes to conservative superset bounds:
        // extra interior visits are allowed, missed leaves are not, so
        // closest hits match the wide oracle bit for bit.
        let q = Prepared::build(SceneId::Bunny, &quantized_config(&cfg));
        let (_, capture) = run_with_hits(&q, TraversalPolicy::Baseline);
        let eq = compare_hits(SceneId::Bunny, "qnode", &q.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.calls_checked, wide.workload.total_rays());
        assert!(eq.hits > 0, "bunny rays must hit something");
    }

    #[test]
    fn preset_matrix_covers_the_new_policies() {
        let presets = presets();
        let labels: Vec<&str> = presets.iter().map(|p| p.label).collect();
        // The paper's presets keep their places; the extension
        // experiments' follow.
        assert_eq!(labels[..3], ["baseline", "prefetch", "vtq"]);
        assert_eq!(labels[11..14], ["vtq-free-virt", "predict", "qnode"]);
        for label in ["vtq-norepack", "qnode+vtq", "nee+vtq", "shuffled+baseline", "table1+vtq"] {
            assert!(labels.contains(&label), "{label}");
        }
        // The matrix is the preset list: one cell per preset, in list
        // order, under the preset's label, policy and configuration. The
        // quantized presets are the only ones that change the node format,
        // and every delta must survive into the cell configuration.
        let base = tiny_cfg();
        let matrix = differential_matrix(&[SceneId::Bunny, SceneId::Ref], &presets, &base);
        assert_eq!(matrix.len(), 2 * presets.len());
        for (cell, preset) in matrix.cells()[presets.len()..].iter().zip(&presets) {
            assert_eq!(cell.label, format!("REF/{}", preset.label));
            assert_eq!(cell.policy, preset.policy, "preset {}", preset.label);
            assert_eq!(cell.config, preset.config(&base), "preset {}", preset.label);
            assert_eq!(cell.config != base, preset.delta.is_some(), "preset {}", preset.label);
            let expect = match preset.label {
                "qnode" | "qnode+vtq" => NodeFormat::Quantized,
                _ => NodeFormat::Wide,
            };
            assert_eq!(cell.config.bvh.node_format, expect, "preset {}", preset.label);
        }
    }

    /// A cell's oracle is its own workload over wide nodes, shared by the
    /// cells whose presets change neither.
    #[test]
    fn oracles_follow_the_workload_not_the_gpu_or_the_node_format() {
        let base = tiny_cfg();
        let presets = presets();
        let oracle = |label: &str| {
            let preset = presets.iter().find(|p| p.label == label).expect("listed");
            oracle_config(&preset.cell(SceneId::Ref, &base, label), &base)
        };
        for same in ["vtq", "qnode", "qnode+vtq", "wbuf-4", "issue-1", "shader-2", "predict"] {
            assert_eq!(oracle(same), base, "{same}");
        }
        assert!(oracle("nee+vtq").shadow_rays);
        assert_eq!(oracle("spp-4").spp, 4);
        assert_eq!(oracle("bounces-5").max_bounces, 5);
        assert_ne!(oracle("shuffled+vtq").ray_order, base.ray_order);
        assert_eq!(oracle("table1+vtq"), oracle("budget-8k+vtq"));
    }

    #[test]
    fn divergence_dump_is_forensic() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let mut oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        // Sabotage the oracle: flip its first recorded hit to a miss, so
        // the (correct) simulator capture must diverge from it.
        let sabotaged = oracle
            .answers
            .iter_mut()
            .flatten()
            .find(|a| matches!(a, OracleAnswer::Closest(Some(_))));
        *sabotaged.expect("bunny rays must hit something") = OracleAnswer::Closest(None);
        let (_, capture) = run_with_hits(&p, TraversalPolicy::Baseline);
        let d = compare_hits(SceneId::Bunny, "sabotaged", &p.workload, &oracle, &capture)
            .expect_err("must diverge");
        let dump = d.to_string();
        assert!(dump.contains("hit divergence"), "{dump}");
        assert!(dump.contains("origin"), "{dump}");
        assert!(dump.contains("oracle"), "{dump}");
        assert!(dump.contains("bits"), "{dump}");
    }

    #[test]
    fn golden_jsonl_round_trips() {
        let g = GoldenFigure {
            figure: "fig10".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            scenes: vec!["ref".into(), "spnza".into()],
            entries: vec![
                entry(Tolerance::Rel, "scene/ref/vtq_speedup".into(), 1.9375),
                entry(Tolerance::Abs, "agg/mean_initial_fraction".into(), 0.125),
                // The writer escapes, so the reader must unescape: a key
                // with every character the line grammar itself uses.
                entry(Tolerance::Abs, "scene/\"odd\\name\", with: all/of_them".into(), -0.5),
            ],
        };
        let parsed = parse_golden_jsonl(&golden_jsonl(&g)).expect("parses");
        assert_eq!(parsed, g);
    }

    /// Every committed snapshot parses, and rendering what was parsed
    /// reproduces the file's lines: the codec neither loses nor reformats
    /// anything the goldens hold. (The provenance header is build
    /// metadata, stamped afresh on every write, so it is not compared.)
    #[test]
    fn committed_goldens_reparse_and_rerender_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
        let mut files: Vec<_> =
            fs::read_dir(&dir).expect("golden/ exists").map(|e| e.unwrap().path()).collect();
        files.sort();
        let pinned = FIGURES.iter().filter(|f| f.columns.iter().any(|c| c.tolerance.is_some()));
        assert_eq!(files.len(), pinned.count(), "one snapshot per pinned figure: {files:?}");
        let data_lines = |text: &str| -> Vec<String> {
            text.lines()
                .map(|l| check_line(l).expect("intact frame"))
                .filter(|l| !l.contains("\"record\":\"provenance\""))
                .collect()
        };
        for path in files {
            let text = fs::read_to_string(&path).unwrap();
            let golden =
                parse_golden_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!golden.entries.is_empty(), "{}", path.display());
            assert_eq!(
                data_lines(&golden_jsonl(&golden)),
                data_lines(&text),
                "{}: re-rendered snapshot differs",
                path.display()
            );
        }
    }

    /// Every committed snapshot holds exactly the entries its figure's
    /// declaration derives for the snapshot's scenes — key, band and `rel`
    /// flag, in order — and every figure that pins a column has one.
    #[test]
    fn committed_golden_keys_derive_from_the_figure_table() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
        let mut pinned = 0;
        for figure in &FIGURES {
            if figure.columns.iter().all(|c| c.tolerance.is_none()) {
                continue;
            }
            pinned += 1;
            let path = dir.join(format!("{}.json", figure.name));
            let text =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let golden = parse_golden_jsonl(&text).expect("parses");
            assert_eq!(golden.figure, figure.name);
            // A table of 1.0s over the snapshot's scenes: every pinned
            // cell and summary is defined, so every key is derived.
            let scene = |name: &String| {
                let all = SceneId::ALL_WITH_EXTRAS.iter();
                *all.clone().find(|s| s.name() == name).expect("a scene name")
            };
            let row = vec![Some(1.0); figure.columns.len()];
            let rows = golden.scenes.iter().map(|name| (scene(name), row.clone())).collect();
            let derived =
                GoldenFigure::of(&tiny_cfg(), &FigureTable { figure, rows }).expect("pinned");
            let shape = |g: &GoldenFigure| -> Vec<(String, f64, bool)> {
                g.entries.iter().map(|e| (e.key.clone(), e.tol, e.rel)).collect()
            };
            assert_eq!(shape(&derived), shape(&golden), "{}", figure.name);
        }
        let files = fs::read_dir(&dir).expect("golden/ exists").count();
        assert_eq!(files, pinned, "a snapshot no figure declares");
    }

    /// The snapshots bind only the configuration whose fingerprint they
    /// carry, and the fingerprint moves with every field of the config
    /// tree: a committed snapshot that is not `--quick`'s checks nothing.
    #[test]
    fn committed_goldens_carry_the_quick_fingerprint() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
        let quick = config_fingerprint(&ExperimentConfig::quick());
        for entry in fs::read_dir(&dir).expect("golden/ exists") {
            let path = entry.unwrap().path();
            let golden = parse_golden_jsonl(&fs::read_to_string(&path).unwrap()).expect("parses");
            assert_eq!(
                golden.fingerprint,
                quick,
                "{}: taken under another configuration; re-run `vtq-bench conformance --quick \
                 --update-golden` from the repository root",
                path.display()
            );
        }
    }

    #[test]
    fn golden_tolerance_bands() {
        let e = entry(Tolerance::Rel, "x".into(), 2.0);
        assert!(e.accepts(2.0) && e.accepts(2.09) && !e.accepts(2.2));
        let a = entry(Tolerance::Abs, "y".into(), 0.5);
        assert!(a.accepts(0.519) && !a.accepts(0.53));
    }

    #[test]
    fn golden_check_paths() {
        let dir = std::env::temp_dir().join(format!("vtq-golden-test-{}", std::process::id()));
        let g = GoldenFigure {
            figure: "fig10".into(),
            fingerprint: 7,
            scenes: vec!["ref".into()],
            entries: vec![
                entry(Tolerance::Rel, "scene/ref/vtq_speedup".into(), 2.0),
                entry(Tolerance::Rel, "agg/g".into(), 2.0),
            ],
        };
        assert_eq!(check_golden(&dir, &g), GoldenOutcome::MissingFile);
        write_golden(&dir, std::slice::from_ref(&g)).expect("writes");
        assert_eq!(check_golden(&dir, &g), GoldenOutcome::Match { checked: 2, skipped: 0 });
        // Out-of-band value fails.
        let mut bad = g.clone();
        bad.entries[0].value = 3.0;
        assert!(check_golden(&dir, &bad).is_failure());
        // Different config fingerprint: reported, not failed.
        let mut other_cfg = g.clone();
        other_cfg.fingerprint = 8;
        assert_eq!(
            check_golden(&dir, &other_cfg),
            GoldenOutcome::ConfigMismatch { golden: 7, current: 8 }
        );
        // Scene subset: aggregate entries skipped, not compared.
        let mut subset = g.clone();
        subset.scenes = vec!["other".into()];
        subset.entries = vec![entry(Tolerance::Rel, "scene/other/vtq_speedup".into(), 9.0)];
        match check_golden(&dir, &subset) {
            GoldenOutcome::Match { checked: 0, skipped: 2 } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
