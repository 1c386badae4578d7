//! Integrity-layer integration tests: the typed-error contract of
//! `try_run`, the deadlock watchdog's forensics snapshot (and its JSONL
//! round-trip), the cycle-budget watchdog, the invariant auditor on a
//! healthy run (its must-go-red is a unit test of `sim.rs`), and fault
//! knobs (scheduling jitter) that must perturb timing without breaking
//! completion.

use gpusim::export::{parse_snapshot_jsonl, snapshot_jsonl};
use gpusim::{
    AuditMode, GpuConfig, PathTask, SimError, Simulator, TraversalPolicy, VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtscene::lumibench::{self, SceneId};

fn small_scene() -> (rtscene::Scene, Bvh) {
    let scene = lumibench::build_scaled(SceneId::Ref, 16);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    (scene, bvh)
}

fn small_workload(scene: &rtscene::Scene, rays: u32) -> Workload {
    Workload {
        tasks: (0..rays)
            .map(|i| PathTask {
                rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
            })
            .collect(),
    }
}

/// A VTQ virtual-ray cap smaller than the CTA size: `CtaScheduler::launch` can
/// never reserve rays for a full CTA, so no CTA launches and no event is
/// ever scheduled — the canonical engineered deadlock.
fn deadlocking_config() -> GpuConfig {
    let mut cfg = GpuConfig::default().with_policy(TraversalPolicy::Vtq(VtqParams {
        max_virtual_rays: 32,
        queue_threshold: 8,
        ..Default::default()
    }));
    assert!(cfg.cta_size > 32, "deadlock premise: cta_size exceeds the virtual-ray cap");
    cfg.mem.num_sms = 2;
    cfg
}

#[test]
fn deadlock_returns_typed_error_with_forensics() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 64);
    let err = Simulator::new(&bvh, scene.triangles(), deadlocking_config())
        .try_run(&workload)
        .expect_err("starved launch must deadlock");
    assert_eq!(err.kind(), "deadlock");
    let snap = err.snapshot().expect("deadlock carries a snapshot");

    // Nothing ever launched: every CTA (64 one-ray tasks pack into one
    // 64-thread CTA) is unfinished and pending, no rays exist anywhere,
    // and each SM reports full slot availability.
    assert_eq!(snap.ctas_total, 1);
    assert_eq!(snap.ctas_unfinished, 1);
    assert_eq!(snap.pending_ctas, 1);
    assert_eq!(snap.rays_created, 0);
    assert_eq!(snap.rays_completed, 0);
    assert_eq!(snap.rays_in_flight(), 0);
    assert_eq!(snap.queued_rays(), 0);
    assert_eq!(snap.mem_in_flight, 0);
    assert_eq!(snap.sms.len(), 2);
    for sm in &snap.sms {
        assert_eq!(sm.resident_warps, 0);
        assert_eq!(sm.reserved_rays, 0);
        assert!(sm.free_cta_slots > 0);
    }

    // The dump is the supported post-mortem artifact: it must round-trip
    // through the JSONL exporter losslessly.
    let text = snapshot_jsonl(snap);
    assert_eq!(&parse_snapshot_jsonl(&text).expect("parse back"), snap);

    // And the Display form names the failure for log grepping.
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "got: {msg}");
    assert!(msg.contains("1 of 1 CTAs unfinished"), "got: {msg}");
}

#[test]
fn cycle_budget_trips_before_completion() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 16);
    // Raygen alone is longer than this budget.
    let cfg = GpuConfig { max_cycles: Some(50), ..GpuConfig::default() };
    let err = Simulator::new(&bvh, scene.triangles(), cfg)
        .try_run(&workload)
        .expect_err("budget far below kernel length must trip");
    match &err {
        SimError::CycleBudget { budget, snapshot } => {
            assert_eq!(*budget, 50);
            assert!(snapshot.cycle <= 50, "snapshot cycle {} past budget", snapshot.cycle);
            assert!(snapshot.ctas_unfinished > 0);
        }
        other => panic!("expected CycleBudget, got {other:?}"),
    }
    assert_eq!(err.kind(), "cycle-budget");
}

#[test]
fn generous_budget_and_audit_do_not_change_the_report() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 16);
    let baseline =
        Simulator::new(&bvh, scene.triangles(), GpuConfig::default()).try_run(&workload).unwrap();

    let cfg = GpuConfig {
        max_cycles: Some(10_000_000),
        audit: AuditMode::Every(64),
        ..GpuConfig::default()
    };
    let watched = Simulator::new(&bvh, scene.triangles(), cfg)
        .try_run(&workload)
        .expect("watched run completes");
    assert_eq!(watched.stats.cycles, baseline.stats.cycles);
    assert_eq!(watched.stats.rays_completed, baseline.stats.rays_completed);
    assert_eq!(watched.hits, baseline.hits);
}

#[test]
fn unsabotaged_every_cycle_audit_passes() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 16);
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::Vtq(VtqParams::default())] {
        let mut cfg = GpuConfig::default().with_policy(policy);
        cfg.audit = AuditMode::Every(1);
        let report = Simulator::new(&bvh, scene.triangles(), cfg)
            .try_run(&workload)
            .expect("healthy run passes a per-event audit");
        assert_eq!(report.stats.rays_completed as usize, workload.total_rays());
    }
}

#[test]
fn empty_workload_is_a_typed_rejection() {
    let (scene, bvh) = small_scene();
    let err = Simulator::new(&bvh, scene.triangles(), GpuConfig::default())
        .try_run(&Workload { tasks: vec![] })
        .expect_err("empty workload is rejected");
    assert_eq!(err.kind(), "workload");
    assert!(err.snapshot().is_none());
    assert!(err.to_string().contains("empty workload"));

    // A ray records its bounce in 16 bits: a task of more calls is
    // refused before anything is simulated.
    let call = small_workload(&scene, 1).tasks[0].rays[0];
    let long = Workload { tasks: vec![PathTask { rays: vec![call; (1 << 16) + 1] }] };
    let err = Simulator::new(&bvh, scene.triangles(), GpuConfig::default())
        .try_run(&long)
        .expect_err("a task of 65537 calls is rejected");
    assert_eq!(err.kind(), "workload");
    assert!(err.to_string().contains("65537 trace calls"), "got: {err}");
}

#[test]
fn a_hand_assembled_inconsistent_config_is_a_typed_rejection() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 64);
    let mut no_sms = GpuConfig::default();
    no_sms.mem.num_sms = 0;
    let no_lanes = GpuConfig { warp_size: 0, ..GpuConfig::default() };
    let no_dispatch = GpuConfig::default()
        .with_policy(TraversalPolicy::Vtq(VtqParams { queue_threshold: 0, ..Default::default() }));
    for (cfg, what) in
        [(no_sms, "num_sms"), (no_lanes, "warp_size"), (no_dispatch, "queue_threshold")]
    {
        let err = Simulator::new(&bvh, scene.triangles(), cfg)
            .try_run(&workload)
            .expect_err("an inconsistent configuration never reaches the cycle loop");
        assert!(matches!(err, SimError::Config(_)), "{what}: got {err:?}");
        assert!(err.to_string().contains(what), "{what}: got {err}");
    }
}

#[test]
fn scheduling_jitter_preserves_completion_and_hits() {
    let (scene, bvh) = small_scene();
    let workload = small_workload(&scene, 32);
    let baseline =
        Simulator::new(&bvh, scene.triangles(), GpuConfig::default()).try_run(&workload).unwrap();
    let cfg =
        GpuConfig { sched_jitter_cycles: 5, sched_jitter_seed: 0xDECAF, ..GpuConfig::default() };
    let jittered = Simulator::new(&bvh, scene.triangles(), cfg)
        .try_run(&workload)
        .expect("jitter only perturbs shader-phase timing");
    assert_eq!(jittered.stats.rays_completed as usize, workload.total_rays());
    assert_eq!(jittered.hits, baseline.hits, "jitter must not change functional results");
}
