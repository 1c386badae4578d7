//! The prepare thread rule, end to end: a process-wide limit of 1 (what
//! `--jobs 1` sets) spawns no helper thread anywhere in a prepare, and
//! lifting it forks exactly when the host has a second hardware thread —
//! with the same products either way; inside a sweep a prepare forks only
//! onto cores the pool's other workers are not using, whatever order the
//! host schedules the workers in.
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
    // preparing a scene of its own, put in order by barriers (a worker
    // blocked on one inside its task still holds its core): the first
    // prepares while the second holds its core, then the reverse. Both
    // cores are taken each time, so nothing forks, whenever the host
    // schedules either thread.
    prof::par::set_limit(2);
    let engine = SweepEngine::new(2);
    let [started, first_done, second_done] = [(); 3].map(|()| Barrier::new(2));
    let (started, first_done, second_done) = (&started, &first_done, &second_done);
    let before = prof::get(Counter::ForkJoinHelpers);
    let cache = engine.cache();
    let tasks = [SceneId::Party, SceneId::Lands].into_iter().enumerate().map(|(turn, id)| {
        let task = move || {
            started.wait();
            if turn == 1 {
                first_done.wait();
            }
            let nodes = cache.get(id, &cfg).bvh.nodes().len();
            if turn == 0 {
                first_done.wait();
            }
            second_done.wait();
            nodes
        };
        (id.name().to_string(), task)
    });
    let nodes: Vec<_> = engine.run_tasks(tasks.collect()).into_iter().map(Result::unwrap).collect();
    assert_eq!(nodes[0], serial.bvh.nodes().len());
    let helpers = prof::get(Counter::ForkJoinHelpers) - before;
    assert_eq!(helpers, 0, "a prepare forked onto a busy worker's core");

    // Both wanting the same scene: one builds it, the other blocks in the
    // cache until it is built, and both get the one product. Whether the
    // build forks onto the blocked worker's core depends on when that
    // worker arrives; `sweep::tests::a_worker_blocked_on_anothers_build_lends_it_its_core`
    // pins the loan itself.
    let engine = SweepEngine::new(2);
    let cache = engine.cache();
    let tasks = [SceneId::Party; 2].map(|id| {
        let task = move || {
            started.wait();
            cache.get(id, &cfg).bvh.nodes().len()
        };
        (id.name().to_string(), task)
    });
    let nodes: Vec<_> = engine.run_tasks(tasks.into()).into_iter().map(Result::unwrap).collect();
    assert_eq!(nodes, [serial.bvh.nodes().len(); 2]);
    assert_eq!(cache.misses().trees, 1);
    prof::par::set_limit(usize::MAX);
    prof::disable();
}
