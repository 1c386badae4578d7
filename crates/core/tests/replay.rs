//! A prepared scene's tape holds the walk the simulator's dispatch would
//! make: on every distinct tape the presets prepare, each call's walk
//! driven the way VTQ dispatch drives it — restricted to one treelet
//! until it exits, then entering the treelet it needs next — visits the
//! tape's nodes with the tape's costs and ends with the tape's hit. Every
//! run replays a tape, so the tapes of all quick scenes are held to the
//! oracle, and a run that also walks the rays the predictor speculates
//! for reports the oracle's hits.

use std::sync::Arc;

use gpusim::{
    HitCapture, NextNode, PathTask, PredictParams, RayId, RayTraversal, SimError, Simulator, Tape,
    TraceCall, TraversalPolicy, Workload, TRACE_T_MIN,
};
use rtmath::{Ray, Vec3};
use rtscene::lumibench::SceneId;
use vtq::conformance::{check_tapes, compare_hits, oracle_run};
use vtq::experiment::presets;
use vtq::sweep::RunMatrix;
use vtq::{ExperimentConfig, Prepared, PreparedCache, SweepEngine};

/// Walks call `call` of task `task` of `p`'s workload as a VTQ RT unit
/// does: restricted to the treelet it is in until it reports
/// `ExitTreelet`, then `enter_treelet` of its pending treelet — and
/// compares each visit's node and costs, each exit and the end with the
/// call's cursor on `p`'s tape.
fn dispatched_walk_matches_the_tape(p: &Prepared, task: usize, call: usize) -> Result<(), String> {
    let (bvh, tape) = (&*p.bvh, &*p.tape);
    let c = p.workload.tasks[task].rays[call];
    let mut ray = RayTraversal::new(RayId(0), c.ray, bvh, TRACE_T_MIN, c.t_max);
    if c.anyhit {
        ray.set_anyhit();
    }
    let mut cursor = tape.cursor(task, call);
    let at =
        |cursor: &gpusim::Cursor| format!("task {task} call {call} step {}", cursor.steps(tape));
    while let Some(t) = ray.pending_treelet(bvh) {
        if cursor.pending_treelet(tape) != Some(t) {
            return Err(format!(
                "{}: the walk enters treelet {t:?}, the tape does not",
                at(&cursor)
            ));
        }
        ray.enter_treelet(bvh, t);
        loop {
            let next = ray.next_node(bvh, Some(t));
            if cursor.next_node(tape, Some(t)) != next {
                return Err(format!(
                    "{}: the walk's next is {next:?}, the tape's is not",
                    at(&cursor)
                ));
            }
            let NextNode::Visit(node) = next else { break };
            let (walked, taped) =
                (ray.visit(bvh, p.scene.triangles(), node), cursor.visit(tape, node));
            if walked != taped {
                return Err(format!("{}: visit costs {walked:?} != {taped:?}", at(&cursor)));
            }
        }
    }
    if cursor.next_node(tape, None) != NextNode::Done {
        return Err(format!("{}: the walk ended before the tape", at(&cursor)));
    }
    if cursor.end(tape) != (ray.best, ray.best_node) {
        return Err(format!("task {task} call {call}: the walk ends elsewhere than the tape"));
    }
    Ok(())
}

#[test]
fn every_prepared_tape_holds_the_walk_vtq_dispatch_makes() {
    let base = ExperimentConfig::quick();
    let cache = Arc::new(PreparedCache::new());
    let mut matrix = RunMatrix::new();
    let mut tapes: Vec<Arc<Tape>> = Vec::new();
    for scene in [SceneId::Bunny, SceneId::Ref] {
        for preset in presets() {
            let cell = preset.cell(scene, &base, preset.label);
            let tape = Arc::clone(&cache.get(scene, &cell.config).tape);
            if !tapes.iter().any(|seen| Arc::ptr_eq(seen, &tape)) {
                tapes.push(tape);
                matrix.push(cell);
            }
        }
    }
    // The wide and quantized layouts and three more treelet budgets, of
    // the base workload and the presets that trace another.
    assert!(matrix.cells().len() >= 2 * 5, "{} distinct tapes", matrix.cells().len());
    let results = SweepEngine::with_cache(2, cache).run_map(&matrix, |_, p| {
        let mut calls = p
            .workload
            .tasks
            .iter()
            .enumerate()
            .flat_map(|(t, task)| (0..task.rays.len()).map(move |c| (t, c)));
        calls.try_for_each(|(task, call)| dispatched_walk_matches_the_tape(p, task, call))
    });
    for (cell, result) in matrix.cells().iter().zip(results) {
        if let Err(e) = result.unwrap_or_else(|e| panic!("{}: {e}", cell.label)) {
            panic!("{}: {e}", cell.label);
        }
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
    let run = p.simulator(policy).try_run(&p.workload).expect("the run completes");
    let (hits, lookups) = (run.stats.predict_hits, run.stats.predict_lookups);
    assert!(hits > 0 && hits < lookups, "{hits} of {lookups} lookups hit");
    let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
    let capture = HitCapture::from_report(&run);
    if let Err(d) = compare_hits(SceneId::Bunny, "predict", &p.workload, &oracle, &capture) {
        panic!("{d}");
    }
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
    // `Done`, with a miss.
    let away = Ray::new(Vec3::new(1e6, 1e6, 1e6), Vec3::new(1.0, 0.0, 0.0));
    assert!(bunny.bvh.root_bounds().intersect(&away, 1e-3, f32::INFINITY).is_none());
    let mut workload = Workload::clone(&bunny.workload);
    workload.tasks.push(PathTask { rays: vec![TraceCall::closest(away)] });
    let tape = Tape::record(&bunny.bvh, bunny.scene.triangles(), &workload);
    let last = workload.tasks.len() - 1;
    assert_eq!(tape.cursor(last, 0).next_node(&tape, None), NextNode::Done);
    let sim = Simulator::new(&bunny.bvh, bunny.scene.triangles(), gpu);
    let recorded = sim.try_run(&workload).expect("the run records its own tape");
    let replay = sim.with_tape(&tape).try_run(&workload).expect("the replay runs");
    assert_eq!(replay.hits[last], vec![None]);
    assert_eq!(replay.hits, recorded.hits);
    assert_eq!(replay.stats, recorded.stats);
}
