//! The prepare thread rule, end to end: a process-wide limit of 1 (what
//! `--jobs 1` sets) spawns no helper thread anywhere in a prepare, and
//! lifting it forks exactly when the host has a second hardware thread —
//! with the same products either way; inside a sweep a prepare forks only
//! onto cores the pool's other workers are not using.
//!
//! One test, alone in its file: the limit, the count of working threads
//! and the profiler are process state, and a test binary of its own is
//! the only way to own them.

use std::sync::Barrier;

use vtq::conformance::oracle_run;
use vtq::prof::{self, Counter};
use vtq::{ExperimentConfig, Prepared, SweepEngine};

use rtscene::lumibench::SceneId;

#[test]
fn a_prepare_forks_only_onto_cores_nobody_is_using() {
    // Large enough for every call site's threshold: 26 K primitives,
    // 16 Ki pixels (and so 16 Ki oracle tasks).
    let cfg = ExperimentConfig { resolution: 128, ..ExperimentConfig::default() };
    let prepare = || {
        let p = Prepared::build(SceneId::Party, &cfg);
        assert!(p.scene.triangles().len() >= 16 * 1024 && p.workload.tasks.len() >= 16 * 1024);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        (p, oracle)
    };
    prof::reset();
    prof::enable();

    prof::par::set_limit(1);
    assert_eq!(prof::par::threads(), 1);
    let (serial, serial_oracle) = prepare();
    assert_eq!(prof::get(Counter::ForkJoinHelpers), 0, "a limit of 1 must stay on the caller");

    prof::par::set_limit(usize::MAX);
    let (forked, forked_oracle) = prepare();
    let helpers = prof::get(Counter::ForkJoinHelpers);
    if prof::par::threads() > 1 {
        // The path tracer and the oracle always fork above their
        // thresholds; the build forks when a split finds a thread idle.
        assert!(helpers >= 2 * (prof::par::threads() as u64 - 1), "only {helpers} helpers");
    } else {
        assert_eq!(helpers, 0, "one hardware thread: nothing to fork onto");
    }

    assert_eq!(serial.bvh.nodes(), forked.bvh.nodes());
    let calls = |p: &Prepared| p.workload.tasks.iter().map(|t| t.rays.clone()).collect::<Vec<_>>();
    assert_eq!(calls(&serial), calls(&forked));
    assert_eq!(serial_oracle, forked_oracle);

    // Two workers on two cores (the limit stands in for the cores). Each
    // preparing a scene of its own: both cores are taken, nothing forks.
    // Both wanting the same scene: one builds, the other waits in the
    // cache, and the build forks onto the waiter's core.
    prof::par::set_limit(2);
    let sweep = |scenes: [SceneId; 2]| {
        let engine = SweepEngine::new(2);
        let both_started = Barrier::new(2);
        let before = prof::get(Counter::ForkJoinHelpers);
        let (cache, both_started) = (engine.cache(), &both_started);
        let tasks = scenes.map(|id| {
            let task = move || {
                both_started.wait();
                cache.get(id, &cfg).bvh.nodes().len()
            };
            (id.name().to_string(), task)
        });
        let nodes: Vec<_> =
            engine.run_tasks(tasks.into()).into_iter().map(Result::unwrap).collect();
        (nodes, prof::get(Counter::ForkJoinHelpers) - before)
    };
    let (nodes, helpers) = sweep([SceneId::Party, SceneId::Lands]);
    assert_eq!(nodes[0], serial.bvh.nodes().len());
    assert_eq!(helpers, 0, "a prepare forked onto a busy worker's core");
    let (nodes, helpers) = sweep([SceneId::Party, SceneId::Party]);
    assert_eq!(nodes, [serial.bvh.nodes().len(); 2]);
    if prof::par::threads() > 1 {
        assert!(helpers >= 1, "the waiting worker's core went unused");
    }
    prof::par::set_limit(usize::MAX);
    prof::disable();
}
