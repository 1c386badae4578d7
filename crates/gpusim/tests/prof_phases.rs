//! The cycle loop's own timings, with the host profiler switched on. The
//! switch is process-wide, so this lives apart from `observability.rs`
//! (whose tests need it off) and does everything inside one `#[test]`.

use gpusim::{GpuConfig, PathTask, Simulator, Tape, TraversalPolicy, VtqParams, Workload};
use rtbvh::{Bvh, BvhConfig};
use rtscene::lumibench::{self, SceneId};

#[test]
fn a_profiled_run_reports_the_cycle_loops_phases_and_memory_lines() {
    let scene = lumibench::build_scaled(SceneId::Ref, 8);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let workload = Workload {
        tasks: (0..24 * 24)
            .map(|i| PathTask {
                rays: vec![scene.camera().primary_ray(i % 24, i / 24, 24, 24, None).into()],
            })
            .collect(),
    };
    let mut cfg = GpuConfig::default()
        .with_policy(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() }));
    cfg.mem.num_sms = 2;
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let plain = sim.try_run(&workload).unwrap();

    prof::reset();
    prof::enable();
    let profiled = sim.try_run(&workload).unwrap();
    prof::disable();
    let snap = prof::snapshot();
    assert_eq!(profiled.stats, plain.stats, "timing the loop must not change it");

    let span = |path: &str| {
        snap.spans.iter().find(|s| s.path == path).unwrap_or_else(|| panic!("no `{path}` row"))
    };
    assert_eq!(span("sim/run").count, 1, "only the run under the profiler recorded");
    // A run with no tape records its own before it cycles.
    assert_eq!(span("sim/run/tape").count, 1);
    let cycles = span("sim/run/cycles");
    let phases = ["sched", "rt_units", "traverse", "mem", "next_event", "observe"]
        .map(|name| span(&format!("sim/run/cycles/{name}")));
    let [sched, rt_units, traverse, mem, next_event, observe] = phases;
    // One `sched` and one `rt_units` lap per fixed-point iteration, one
    // `next_event` per quiescent point, one `observe` per clock advance
    // (the last quiescent point ends the run instead).
    assert_eq!(sched.count, rt_units.count);
    assert!(sched.count > next_event.count);
    assert_eq!(next_event.count, observe.count);
    assert!(observe.count > 0 && observe.count <= plain.stats.cycles);
    // `traverse` and `mem` are carved out of the RT units' time: a lap per
    // lane gather, per node fetch and per intersection pass of a warp step.
    assert!(traverse.count > mem.count && mem.count > 0);
    assert!(traverse.total_ns > 0 && mem.total_ns > 0);
    // The laps tile the loop: together they are the loop, less the
    // bookkeeping between them.
    let lapped: u64 = phases.iter().map(|s| s.total_ns).sum();
    assert!(lapped > 0 && lapped <= cycles.total_ns, "{lapped} of {}", cycles.total_ns);
    assert!(cycles.self_ns <= cycles.total_ns - lapped + 1_000);
    // The wake agenda visits a unit only when it is due: at most each of
    // the two units per fixed-point iteration.
    let visits = snap.counter(prof::Counter::UnitVisits);
    assert!(visits > 0 && visits <= 2 * rt_units.count, "{visits} visits");

    let by_policy = [
        prof::Counter::MemLinesL1AndL2,
        prof::Counter::MemLinesBypassL1,
        prof::Counter::MemLinesRayReserve,
        prof::Counter::MemLinesDramOnly,
    ]
    .map(|c| snap.counter(c));
    assert_eq!(by_policy.iter().sum::<u64>(), plain.mem.total_lines());
    assert!(by_policy[0] > 0 && by_policy[2] > 0, "BVH and ray-reserve traffic: {by_policy:?}");

    // An attached tape is replayed as it is, without recording; a
    // checkpointing run without one records its own, as a plain run does.
    let tape = Tape::record(&bvh, scene.triangles(), &workload);
    prof::reset();
    prof::enable();
    let taped = Simulator::new(&bvh, scene.triangles(), cfg).with_tape(&tape);
    taped.try_run(&workload).unwrap();
    let runs = prof::snapshot().spans.iter().find(|s| s.path == "sim/run").map(|s| s.count);
    assert_eq!(runs, Some(1));
    assert!(prof::snapshot().spans.iter().all(|s| s.path != "sim/run/tape"));
    sim.try_run_checkpointed(&workload, u64::MAX, &mut |_| {}).unwrap();
    prof::disable();
    let snap = prof::snapshot();
    let span = |path: &str| snap.spans.iter().find(|s| s.path == path).map(|s| s.count);
    assert_eq!((span("sim/run"), span("sim/run/tape")), (Some(2), Some(1)), "{:?}", snap.spans);
}
