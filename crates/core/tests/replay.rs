//! A prepared scene's tape replays exactly what the simulator would walk:
//! under every preset, a run that reads `Prepared::tape` reports the
//! statistics, memory traffic and hits of a run that walks the BVH —
//! including ray-path prediction, whose speculated rays walk while the
//! rest of the same run replays. And since every run's hits are a tape's,
//! the tapes of all quick scenes are held to the oracle.
//!
//! A plain `Simulator::new(..).try_run` records a tape and replays it
//! too, so the walks here go through `conformance::walk`.

use gpusim::{
    NextNode, PathTask, PredictParams, SimError, SimReport, Simulator, Tape, TraceCall,
    TraversalPolicy, Workload,
};
use rtmath::{Ray, Vec3};
use rtscene::lumibench::SceneId;
use vtq::conformance::{check_tapes, walk};
use vtq::experiment::presets;
use vtq::sweep::RunMatrix;
use vtq::{ExperimentConfig, Prepared, SweepEngine};

#[test]
fn replaying_the_prepared_tape_equals_walking_the_bvh_under_every_preset() {
    let base = ExperimentConfig::quick();
    let mut matrix = RunMatrix::new();
    for scene in [SceneId::Bunny, SceneId::Ref] {
        for preset in presets() {
            matrix.push(preset.cell(scene, &base, preset.label));
        }
    }
    let results = SweepEngine::new(2).run_map(&matrix, |cell, p| {
        let replay = p.simulator(cell.policy).try_run(&p.workload).expect("the replay runs");
        let gpu = cell.config.gpu.with_policy(cell.policy);
        let sim = Simulator::new(&p.bvh, p.scene.triangles(), gpu);
        let live = walk(&sim, &p.workload).expect("the walk runs");
        same_run(&replay, &live)
    });
    for (cell, same) in matrix.cells().iter().zip(results) {
        let same = same.unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        assert!(same, "{}: replay and walk disagree", cell.label);
    }
}

/// The tapes of all 14 quick scenes, on the wide and the quantized layout,
/// hold the wide-node oracle's hits bit for bit.
#[test]
fn every_quick_scenes_tapes_hold_the_oracles_hits() {
    let cfg = ExperimentConfig::quick();
    let report = check_tapes(&SweepEngine::new(2), &SceneId::ALL, &["baseline", "qnode"], &cfg);
    assert_eq!(report.cells.len(), 2 * SceneId::ALL.len());
    if let Some(cell) = report.failures().next() {
        panic!("{} {}: {:?}", cell.scene.name(), cell.policy, cell.verdict);
    }
    assert!(report.calls_checked() > 0);
}

/// `Debug`-equal statistics and memory counters, and equal hits.
fn same_run(a: &SimReport, b: &SimReport) -> bool {
    format!("{:?}", a.stats) == format!("{:?}", b.stats)
        && format!("{:?}", a.mem) == format!("{:?}", b.mem)
        && a.hits == b.hits
}

#[test]
fn speculated_rays_walk_beside_replayed_ones() {
    // The quick presets' predictor never hits on these scenes; a coarse
    // key and a large table make neighbouring rays share predictions, so
    // one run mixes walked (speculated) and replayed rays.
    let cfg = ExperimentConfig::quick();
    let p = Prepared::build(SceneId::Bunny, &cfg);
    let params =
        PredictParams { table_entries: 4096, origin_bits: 2, dir_bits: 2, ..Default::default() };
    let policy = TraversalPolicy::Predict(params);
    let replay = p.simulator(policy).try_run(&p.workload).expect("the replay runs");
    let sim = Simulator::new(&p.bvh, p.scene.triangles(), cfg.gpu.with_policy(policy));
    let live = walk(&sim, &p.workload).expect("the walk runs");
    let (hits, lookups) = (replay.stats.predict_hits, replay.stats.predict_lookups);
    assert!(hits > 0 && hits < lookups, "{hits} of {lookups} lookups hit");
    assert!(same_run(&replay, &live), "replay and walk disagree");
}

#[test]
fn a_tape_for_another_workload_or_bvh_is_refused_and_a_miss_replays_as_done() {
    let cfg = ExperimentConfig::quick();
    let bunny = Prepared::build(SceneId::Bunny, &cfg);
    let gpu = cfg.gpu;

    // Another resolution: other tasks, other calls.
    let small = Prepared::build(SceneId::Bunny, &ExperimentConfig { resolution: 32, ..cfg });
    let err = Simulator::new(&bunny.bvh, bunny.scene.triangles(), gpu)
        .with_tape(&small.tape)
        .try_run(&bunny.workload)
        .expect_err("a tape for 32x32 cannot drive a 64x64 workload");
    assert!(matches!(err, SimError::Config(_)), "{err}");

    // Another BVH: the same calls over REF's tree.
    let reference = Prepared::build(SceneId::Ref, &cfg);
    let err = Simulator::new(&reference.bvh, reference.scene.triangles(), gpu)
        .with_tape(&bunny.tape)
        .try_run(&bunny.workload)
        .expect_err("BUNNY's tape cannot replay over REF's BVH");
    assert!(matches!(err, SimError::Config(_)), "{err}");

    // A call that misses the scene bounds records no step and replays as
    // `Done`, with the walk's miss.
    let away = Ray::new(Vec3::new(1e6, 1e6, 1e6), Vec3::new(1.0, 0.0, 0.0));
    assert!(bunny.bvh.root_bounds().intersect(&away, 1e-3, f32::INFINITY).is_none());
    let mut workload = Workload::clone(&bunny.workload);
    workload.tasks.push(PathTask { rays: vec![TraceCall::closest(away)] });
    let tape = Tape::record(&bunny.bvh, bunny.scene.triangles(), &workload);
    let last = workload.tasks.len() - 1;
    assert_eq!(tape.cursor(last, 0).next_node(&tape, None), NextNode::Done);
    let sim = Simulator::new(&bunny.bvh, bunny.scene.triangles(), gpu);
    let live = walk(&sim, &workload).expect("the walk runs");
    let replay = sim.with_tape(&tape).try_run(&workload).expect("the replay runs");
    assert_eq!(replay.hits[last], vec![None]);
    assert_eq!(replay.hits, live.hits);
    assert_eq!(replay.stats, live.stats);
}
