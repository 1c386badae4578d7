//! Integration tests of the parallel sweep engine's contracts:
//!
//! * **Determinism** — a sweep on N workers is bit-identical to the same
//!   sweep on 1 worker: cycle counts, stall buckets, and the exported
//!   JSONL/CSV artifacts all match byte for byte.
//! * **Prepared caching** — a multi-figure run builds each scene exactly
//!   once, however many policy cells reference it.
//! * **Panic isolation** — a panicking cell surfaces as a per-cell error
//!   at its stable index; every other cell still completes.

use std::fs;
use std::path::PathBuf;

use vtq::experiment::{self, export_run, quantized_config, ExperimentConfig, FIGURES};
use vtq::prelude::*;

fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.resolution = 48;
    cfg
}

const SCENES: [SceneId; 2] = [SceneId::Lands, SceneId::Wknd];

/// Runs the scene × policy grid (baseline, VTQ, ray-path prediction, plus
/// a quantized-node cell with its own per-cell config) on `jobs` workers
/// and exports every report's artifacts (in matrix order) to a fresh
/// directory.
fn run_and_export(jobs: usize, dir: &PathBuf) -> Vec<gpusim::SimReport> {
    let engine = SweepEngine::new(jobs);
    let mut matrix = RunMatrix::new();
    matrix.cross(
        &SCENES,
        &cfg(),
        &[
            TraversalPolicy::Baseline,
            TraversalPolicy::Vtq(VtqParams::default()),
            TraversalPolicy::Predict(PredictParams::default()),
        ],
    );
    let qcfg = quantized_config(&cfg());
    for scene in SCENES {
        matrix.push(Cell {
            scene,
            config: qcfg,
            policy: TraversalPolicy::Baseline,
            label: format!("{}/qnode", scene.name()),
        });
    }
    let reports: Vec<gpusim::SimReport> =
        engine.run(&matrix).into_iter().map(|r| r.expect("no cell should fail")).collect();
    let _ = fs::remove_dir_all(dir);
    for (cell, report) in matrix.cells().iter().zip(&reports) {
        export_run(dir, &cell.label, report).expect("export");
    }
    reports
}

#[test]
fn sweep_is_bit_identical_across_job_counts() {
    let dir1 = std::env::temp_dir().join(format!("vtq-sweep-det-j1-{}", std::process::id()));
    let dir4 = std::env::temp_dir().join(format!("vtq-sweep-det-j4-{}", std::process::id()));
    let serial = run_and_export(1, &dir1);
    let parallel = run_and_export(4, &dir4);

    // Simulation results match cell for cell — including the prediction
    // counters, which must not depend on worker scheduling.
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.stats.cycles, p.stats.cycles);
        assert_eq!(s.stats.stall, p.stats.stall);
        assert_eq!(s.stats.predict_lookups, p.stats.predict_lookups);
        assert_eq!(s.stats.predict_hits, p.stats.predict_hits);
        assert_eq!(s.hits, p.hits);
    }
    assert!(
        serial.iter().any(|r| r.stats.predict_lookups > 0),
        "the predict cells must actually exercise the prediction table"
    );

    // Exported artifacts (stall CSVs, series CSVs, metrics.jsonl — the
    // JSONL line order depends only on matrix order) match byte for byte.
    let mut names: Vec<String> = fs::read_dir(&dir1)
        .expect("read export dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    assert!(names.contains(&"metrics.jsonl".to_string()));
    assert!(names.len() > 1, "expected per-run artifacts, got {names:?}");
    for name in &names {
        let a = fs::read(dir1.join(name)).expect("read jobs=1 artifact");
        let b = fs::read(dir4.join(name)).expect("read jobs=4 artifact");
        assert_eq!(a, b, "artifact {name} differs between --jobs 1 and --jobs 4");
    }

    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir4);
}

/// A one-worker engine runs every cell inline on the caller's thread —
/// that is the serial path — so its tables are what a pool must reproduce.
#[test]
fn typed_sweeps_match_serial_figures() {
    let cfg = cfg();
    let tables = |jobs: usize| {
        let run = experiment::run_figures(&SweepEngine::new(jobs), &FIGURES, Some(&SCENES), &cfg);
        assert_eq!(run.failures().count(), 0);
        FIGURES.iter().map(|f| run.table(f)).collect::<Vec<_>>()
    };
    for (pooled, serial) in tables(4).iter().zip(&tables(1)) {
        let name = serial.figure.name;
        assert_eq!(serial.rows.len(), SCENES.len(), "{name}");
        assert_eq!(pooled.rows, serial.rows, "parallel and serial {name} disagree");
        assert_eq!(pooled.body(), serial.body(), "{name}");
        assert_eq!(pooled.summary_row(), serial.summary_row(), "{name}");
    }
}

#[test]
fn prepared_cache_builds_each_scene_once() {
    let engine = SweepEngine::new(4);
    let cfg = cfg();

    // Two figures' worth of cells per scene, in two waves: fig10 (3
    // presets) then fig16 (2 presets) — five cells per scene, one build
    // per scene.
    for name in ["fig10", "fig16"] {
        let figure = experiment::figure(name).expect("declared");
        let run = experiment::run_figures(&engine, [figure], Some(&SCENES), &cfg);
        assert_eq!(run.cells().len(), SCENES.len() * figure.presets.len());
        assert_eq!(run.table(figure).rows.len(), SCENES.len(), "{name}");
    }
    // Policy-only presets: one product of every stage per scene.
    let n = SCENES.len();
    assert_eq!(
        engine.cache().misses(),
        StageCounts { scenes: n, trees: n, workloads: n, layouts: n, tapes: n },
        "every policy cell must reuse the one prepared build per scene"
    );

    // Asked for together, the two figures share their `vtq` cell: the
    // union holds four distinct presets per scene, not five cells.
    let both = [experiment::figure("fig10"), experiment::figure("fig16")].map(|f| f.unwrap());
    let labels: Vec<&str> = both.iter().flat_map(|f| f.presets.iter().copied()).collect();
    assert_eq!(labels.len(), 5);
    assert_eq!(
        experiment::run_presets(&engine, &labels, &SCENES, &cfg).cells().len(),
        SCENES.len() * 4
    );
}

/// However a cell enters a matrix, the key kept beside it is its
/// `cell_key_fingerprint`: journal keys and result-cache entries are
/// read from `keys()`, never recomputed.
#[test]
fn matrix_keys_are_cell_key_fingerprints() {
    let base = cfg();
    let qcfg = quantized_config(&base);
    let grouped = VtqParams { max_virtual_rays: 7, ..VtqParams::default() };
    let policies = [
        TraversalPolicy::Baseline,
        TraversalPolicy::Vtq(VtqParams::default()),
        TraversalPolicy::Vtq(grouped),
        TraversalPolicy::Predict(PredictParams::default()),
    ];
    let mut matrix = RunMatrix::new();
    assert_eq!(matrix.cross(&SCENES, &base, &policies), config_fingerprint(&base));
    matrix.add(SceneId::Ref, &qcfg, TraversalPolicy::Vtq(grouped));
    matrix.push(Cell {
        scene: SceneId::Bunny,
        config: qcfg,
        policy: TraversalPolicy::Baseline,
        label: "BUNNY/qnode".to_string(),
    });
    let fingerprints =
        |m: &RunMatrix| m.cells().iter().map(cell_key_fingerprint).collect::<Vec<u64>>();
    assert_eq!(matrix.len(), SCENES.len() * policies.len() + 2);
    assert_eq!(matrix.keys().to_vec(), fingerprints(&matrix));
    // A key is the config and the policy, not the scene (which prefixes
    // the cache key, as the label does the journal key): one per policy
    // of the cross, plus the two quantized cells.
    let mut distinct = matrix.keys().to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), policies.len() + 2);

    // `retain` keeps each survivor's key, in order.
    let mut odd = matrix.clone();
    let mut index = 0;
    odd.retain(|_, _| {
        index += 1;
        index % 2 == 0
    });
    assert_eq!(odd.keys().to_vec(), fingerprints(&odd));
    let expected: Vec<u64> = matrix.keys().iter().copied().skip(1).step_by(2).collect();
    assert_eq!(odd.keys(), expected);
}

/// One key as a literal: the `vtq-serve` result cache and every sweep
/// journal on disk are addressed by these values, so a change that moves
/// them (hashing the policy first, say) must fail here, not orphan them.
#[test]
fn a_quick_cell_key_is_pinned() {
    let cell = Cell {
        scene: SceneId::Ref,
        config: ExperimentConfig::quick(),
        policy: TraversalPolicy::Baseline,
        label: "REF/baseline".to_string(),
    };
    assert_eq!(cell_key_fingerprint(&cell), 0xd280_7e9d_23c2_2522);
}

#[test]
fn panicking_cell_is_isolated() {
    let engine = SweepEngine::new(4);
    let tasks: Vec<(String, Box<dyn FnOnce() -> usize + Send>)> = (0..8)
        .map(|i| {
            let label = format!("task-{i}");
            let task: Box<dyn FnOnce() -> usize + Send> = if i == 3 {
                Box::new(|| panic!("cell 3 exploded"))
            } else {
                Box::new(move || i * 10)
            };
            (label, task)
        })
        .collect();
    let results = engine.run_tasks(tasks);

    assert_eq!(results.len(), 8);
    for (i, result) in results.iter().enumerate() {
        if i == 3 {
            let err = result.as_ref().expect_err("cell 3 must fail");
            assert_eq!(err.index, 3);
            assert_eq!(err.label, "task-3");
            assert!(err.message.contains("cell 3 exploded"), "got: {}", err.message);
        } else {
            assert_eq!(*result.as_ref().expect("other cells unaffected"), i * 10);
        }
    }
}
