//! Durability integration tests: a journaled sweep interrupted mid-run
//! resumes without re-executing completed cells and merges into the
//! clean-run baseline, and the delta-debugging shrinker reduces a
//! cycle-budget failure to a replayable minimal reproducer.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpusim::{PathTask, Workload};
use vtq::prelude::*;

/// Serializes the tests that drive the process-global cooperative-cancel
/// flag; without this they would interrupt each other's sweeps.
static CANCEL_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-durability-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig { resolution: 16, detail_divisor: 16, ..ExperimentConfig::quick() }
}

/// One simulated cell per scene; the payload is the pair of stats the
/// baseline comparison keys on.
fn run_cells(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
    cancel_after: Option<usize>,
) -> Vec<CellResult<(u64, u64)>> {
    let done = AtomicUsize::new(0);
    engine.run_scenes(scenes, cfg, |p| {
        let report = p.run_policy(TraversalPolicy::Baseline);
        if Some(done.fetch_add(1, Ordering::SeqCst) + 1) == cancel_after {
            request_cancel();
        }
        (report.stats.cycles, report.stats.rays_completed)
    })
}

#[test]
fn interrupted_sweep_resumes_into_the_clean_baseline() {
    let _gate = CANCEL_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir("resume");
    let scenes = [SceneId::Ref, SceneId::Bunny, SceneId::Lands];
    let cfg = tiny_config();
    reset_cancel();

    // Clean baseline: every cell, no journal.
    let baseline_engine = SweepEngine::new(1);
    let baseline: Vec<(u64, u64)> = run_cells(&baseline_engine, &scenes, &cfg, None)
        .into_iter()
        .map(|r| r.expect("clean run completes"))
        .collect();
    let scenes_prepared =
        |n| StageCounts { scenes: n, trees: n, workloads: n, layouts: n, tapes: n };
    assert_eq!(baseline_engine.cache().misses(), scenes_prepared(3));

    // Interrupted run: cancel lands after the first cell settles, so the
    // remaining cells are journaled `interrupted` instead of executing.
    let journal = Arc::new(SweepJournal::start(&dir).expect("journal"));
    let engine = SweepEngine::new(1).with_journal(journal).scoped("durability");
    let partial = run_cells(&engine, &scenes, &cfg, Some(1));
    assert_eq!(partial[0].as_ref().ok(), Some(&baseline[0]));
    for cell in &partial[1..] {
        assert_eq!(cell.as_ref().err().map(|e| e.kind), Some(CellErrorKind::Interrupted));
    }
    assert_eq!(
        engine.cache().misses(),
        scenes_prepared(1),
        "only the completed cell prepared its scene"
    );
    reset_cancel();

    // Resume: the journaled-done cell is skipped (its scene is never even
    // prepared again — the cache proves no re-execution), the interrupted
    // cells run, and the merged results equal the clean baseline.
    let journal = Arc::new(SweepJournal::resume(&dir).expect("resume"));
    assert_eq!(journal.completed_count(), 1);
    let engine = SweepEngine::new(1).with_journal(journal).scoped("durability");
    let resumed = run_cells(&engine, &scenes, &cfg, None);
    assert_eq!(resumed[0].as_ref().err().map(|e| e.kind), Some(CellErrorKind::Skipped));
    assert_eq!(
        engine.cache().misses(),
        scenes_prepared(2),
        "the skipped cell must not rebuild its scene"
    );
    let merged: Vec<(u64, u64)> = std::iter::once(partial[0].clone())
        .chain(resumed[1..].iter().cloned())
        .map(|r| r.expect("merged cells are all settled"))
        .collect();
    assert_eq!(merged, baseline);

    // A second resume skips everything.
    let journal = Arc::new(SweepJournal::resume(&dir).expect("resume"));
    assert_eq!(journal.completed_count(), 3);
    let engine = SweepEngine::new(2).with_journal(journal).scoped("durability");
    for cell in run_cells(&engine, &scenes, &cfg, None) {
        assert_eq!(cell.err().map(|e| e.kind), Some(CellErrorKind::Skipped));
    }
    assert_eq!(engine.cache().misses(), StageCounts::default());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shrinker_reduces_a_sabotaged_failure_to_a_replayable_repro() {
    // 64 one-ray camera tasks under a watchdog budget shorter than one
    // memory round trip, so ANY non-empty subset still fails — the
    // shrinker should reach a single ray.
    let scene = lumibench::build_scaled(SceneId::Ref, 16);
    let workload = Workload {
        tasks: (0..64)
            .map(|i| PathTask {
                rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
            })
            .collect(),
    };
    let bvh_cfg = BvhConfig { treelet_bytes: 1024, ..Default::default() };
    let gpu = GpuConfig { max_cycles: Some(4), ..GpuConfig::default() };

    let report = shrink_failure(SceneId::Ref, 16, &bvh_cfg, &gpu, &workload, "cycle-budget")
        .expect("starved run shrinks");
    assert_eq!(report.original_rays, 64);
    assert!(
        report.shrunk_rays * 10 <= report.original_rays,
        "reproducer must be <= 10% of the original stream, got {} of {}",
        report.shrunk_rays,
        report.original_rays
    );
    assert!(report.oracle_calls > 1, "shrinking spends oracle runs");

    // The serialized reproducer round-trips and still reproduces the
    // journaled failure kind on replay.
    let parsed = Repro::from_jsonl(&report.repro.to_jsonl()).expect("round trip");
    assert_eq!(parsed.total_rays(), report.shrunk_rays);
    assert_eq!(parsed.error_kind, "cycle-budget");
    let err = parsed.replay().expect_err("replay reproduces the failure");
    assert_eq!(err.kind(), "cycle-budget");
}

/// Property-style interleaving test: kill a journaled sweep at a
/// seeded-random cell boundary, resume, repeat until it completes, and
/// prove the exactly-once contract — every cell *executed* exactly once
/// across all lives, and the journal holds exactly one terminal `done`
/// record per cell key (no loss, no duplicates).
#[test]
fn killed_and_resumed_sweeps_settle_each_cell_exactly_once() {
    let _gate = CANCEL_GATE.lock().unwrap_or_else(|p| p.into_inner());
    // splitmix64: the repo's standard dependency-free deterministic RNG.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    let scenes = [SceneId::Ref, SceneId::Bunny, SceneId::Lands];
    let cfg = ExperimentConfig { resolution: 8, detail_divisor: 64, ..ExperimentConfig::quick() };
    let mut matrix = RunMatrix::new();
    for &scene in &scenes {
        matrix.push(Cell {
            scene,
            config: cfg,
            policy: TraversalPolicy::Baseline,
            label: scene.name().to_string(),
        });
    }
    let total = matrix.cells().len();
    // One shared scene cache across every seed and life: the property
    // under test is journal bookkeeping, not scene preparation.
    let prepared = Arc::new(PreparedCache::new());

    for seed in 0..20u64 {
        let mut rng = 0x5eed_0000 ^ (seed.wrapping_mul(0x0123_4567_89ab_cdef));
        let dir = temp_dir(&format!("interleave-{seed}"));
        let executions = std::sync::Mutex::new(std::collections::HashMap::<String, usize>::new());

        let mut lives = 0usize;
        loop {
            lives += 1;
            assert!(lives <= total + 2, "seed {seed}: too many lives — cells are being redone");
            reset_cancel();
            let journal = Arc::new(if lives == 1 {
                SweepJournal::start(&dir).expect("journal")
            } else {
                SweepJournal::resume(&dir).expect("resume")
            });
            let remaining = total - journal.completed_count();
            // Kill after 1..remaining executions, or 0 = let it finish.
            let kill =
                if remaining > 0 { (next(&mut rng) % (remaining as u64 + 1)) as usize } else { 0 };
            let engine = SweepEngine::with_cache(1, Arc::clone(&prepared))
                .with_journal(journal)
                .scoped("interleave");
            let ran = AtomicUsize::new(0);
            engine.run_map(&matrix, |cell, _prepared| {
                *executions.lock().unwrap().entry(cell.label.clone()).or_insert(0) += 1;
                if ran.fetch_add(1, Ordering::SeqCst) + 1 == kill {
                    request_cancel();
                }
                cell.label.len()
            });
            if kill == 0 {
                break;
            }
        }
        reset_cancel();

        // Exactly-once execution, across every life.
        let executions = executions.into_inner().unwrap();
        assert_eq!(executions.len(), total, "seed {seed}: a cell never executed");
        for (label, count) in &executions {
            assert_eq!(*count, 1, "seed {seed}: `{label}` executed {count} times");
        }
        // Exactly one terminal `done` record per cell key in the journal
        // file itself — the resume set collapses duplicates, so read the
        // raw lines.
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal file");
        let mut done_counts = std::collections::HashMap::<String, usize>::new();
        for line in text.lines() {
            let f = vtq::jsonl::parse_line(line).expect("journal line parses");
            if f.record() != Some("cell") || f.get("status") != Some("done") {
                continue;
            }
            let key = f.str("key").expect("done record has a key").into_owned();
            *done_counts.entry(key).or_insert(0) += 1;
        }
        assert_eq!(done_counts.len(), total, "seed {seed}: lost a done record");
        for (key, count) in &done_counts {
            assert_eq!(*count, 1, "seed {seed}: `{key}` journaled done {count} times");
        }
        // And a fresh resume agrees the sweep is complete.
        let journal = SweepJournal::resume(&dir).expect("final resume");
        assert_eq!(journal.completed_count(), total, "seed {seed}");
        fs::remove_dir_all(&dir).ok();
    }
}
