//! End-to-end behavioural tests of the GPU simulator: functional
//! correctness against the CPU reference traversal, and sanity of the
//! architectural mechanisms (virtualization, queues, repacking).

use gpusim::{
    GpuConfig, PathTask, PredictParams, Simulator, TraversalMode, TraversalPolicy, VtqParams,
    Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtmath::XorShiftRng;
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;

/// Builds a small multi-bounce workload functionally on the CPU: trace,
/// scatter at the hit, repeat — the same thing the real workload driver in
/// `vtq` does at full scale.
fn build_workload(scene: &Scene, bvh: &Bvh, res: u32, bounces: usize) -> Workload {
    let tris = scene.triangles();
    let mut tasks = Vec::new();
    for py in 0..res {
        for px in 0..res {
            let mut rng = XorShiftRng::new((py as u64) << 32 | px as u64 | 0xABCD_0000_0000);
            let mut rays: Vec<gpusim::TraceCall> = Vec::new();
            let mut ray = scene.camera().primary_ray(px, py, res, res, None);
            for _ in 0..=bounces {
                rays.push(ray.into());
                let Some(hit) = bvh.intersect(tris, &ray, 1e-3, f32::INFINITY) else {
                    break;
                };
                let tri = &tris[hit.prim as usize];
                let rec = rtscene::HitRecord::new(
                    hit.t,
                    ray.at(hit.t),
                    tri.geometric_normal().normalized(),
                    ray.dir,
                    tri.material,
                );
                match scene.material(tri.material).scatter(&ray, &rec, &mut rng) {
                    Some(s) => ray = s.ray,
                    None => break,
                }
            }
            tasks.push(PathTask { rays });
        }
    }
    Workload { tasks }
}

fn setup(scale: u32) -> (Scene, Bvh) {
    let scene = lumibench::build_scaled(SceneId::Ref, scale);
    // Small treelets so even the reduced-detail scene has enough treelets
    // for queue dynamics to occur.
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    (scene, bvh)
}

fn small_gpu(policy: TraversalPolicy) -> GpuConfig {
    let mut cfg = GpuConfig::default().with_policy(policy);
    cfg.mem.num_sms = 4;
    cfg
}

fn policies() -> [TraversalPolicy; 4] {
    [
        TraversalPolicy::Baseline,
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() }),
        TraversalPolicy::Predict(PredictParams::default()),
    ]
}

#[test]
fn every_policy_completes_all_rays() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 24, 2);
    for policy in policies() {
        let report =
            Simulator::new(&bvh, scene.triangles(), small_gpu(policy)).try_run(&workload).unwrap();
        assert_eq!(
            report.stats.rays_completed as usize,
            workload.total_rays(),
            "policy {}",
            policy.label()
        );
        assert!(report.stats.cycles > 0);
    }
}

#[test]
fn simulated_hits_match_cpu_reference() {
    let (scene, bvh) = setup(32);
    let tris = scene.triangles();
    let workload = build_workload(&scene, &bvh, 24, 2);
    for policy in policies() {
        let report = Simulator::new(&bvh, tris, small_gpu(policy)).try_run(&workload).unwrap();
        for (task, rays) in workload.tasks.iter().enumerate() {
            for (bounce, call) in rays.rays.iter().enumerate() {
                let reference = bvh.intersect(tris, &call.ray, 1e-3, call.t_max);
                let got = report.hits[task][bounce];
                assert_eq!(
                    got.map(|h| h.prim),
                    reference.map(|h| h.prim),
                    "policy {} task {task} bounce {bounce}",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 16, 2);
    for policy in policies() {
        let a =
            Simulator::new(&bvh, scene.triangles(), small_gpu(policy)).try_run(&workload).unwrap();
        let b =
            Simulator::new(&bvh, scene.triangles(), small_gpu(policy)).try_run(&workload).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles, "policy {}", policy.label());
        assert_eq!(a.mem.total_lines(), b.mem.total_lines());
    }
}

#[test]
fn virtualization_raises_concurrent_rays() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2); // 9216 paths on 4 SMs
    let base = Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::Baseline))
        .try_run(&workload)
        .unwrap();
    let vtq = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })),
    )
    .try_run(&workload)
    .unwrap();
    // Baseline concurrency is capped by resident CTAs (16 CTAs x 64 = 1024).
    let cfg = small_gpu(TraversalPolicy::Baseline);
    let baseline_cap = cfg.max_ctas_per_sm * cfg.cta_size;
    assert!(base.stats.peak_rays_in_flight <= baseline_cap);
    assert!(
        vtq.stats.peak_rays_in_flight > base.stats.peak_rays_in_flight,
        "vtq {} should exceed baseline {}",
        vtq.stats.peak_rays_in_flight,
        base.stats.peak_rays_in_flight
    );
    assert!(vtq.stats.cta_suspends > 0);
    assert_eq!(vtq.stats.cta_suspends, vtq.stats.cta_resumes + vtq_done_without_resume(&vtq));
    assert!(vtq.stats.cta_state_bytes > 0);
    // Baseline never suspends.
    assert_eq!(base.stats.cta_suspends, 0);
    assert_eq!(base.stats.cta_state_bytes, 0);
}

/// CTAs whose final bounce had rays still resume before retiring, so in this
/// engine every suspend is matched by a resume.
fn vtq_done_without_resume(_r: &gpusim::SimReport) -> u64 {
    0
}

#[test]
fn vtq_uses_all_three_modes() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let report = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })),
    )
    .try_run(&workload)
    .unwrap();
    assert!(report.stats.cycles_in(TraversalMode::Initial) > 0, "initial phase missing");
    assert!(
        report.stats.cycles_in(TraversalMode::TreeletStationary) > 0,
        "treelet-stationary phase missing"
    );
    assert!(
        report.stats.cycles_in(TraversalMode::RayStationary) > 0,
        "ray-stationary drain phase missing"
    );
    assert!(report.stats.treelet_dispatches > 0);
    // Intersection tests are attributed across modes and total > 0.
    let total: u64 = TraversalMode::ALL.iter().map(|m| report.stats.isect_in(*m)).sum();
    assert_eq!(total, report.stats.box_tests + report.stats.tri_tests);
}

#[test]
fn baseline_runs_entirely_ray_stationary() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 16, 1);
    let report = Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::Baseline))
        .try_run(&workload)
        .unwrap();
    assert_eq!(report.stats.cycles_in(TraversalMode::Initial), 0);
    assert_eq!(report.stats.cycles_in(TraversalMode::TreeletStationary), 0);
    assert!(report.stats.cycles_in(TraversalMode::RayStationary) > 0);
    assert_eq!(report.stats.treelet_dispatches, 0);
    assert_eq!(report.stats.repack_events, 0);
}

#[test]
fn repacking_fires_and_raises_simt_efficiency() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let run = |repack: usize| {
        Simulator::new(
            &bvh,
            scene.triangles(),
            small_gpu(TraversalPolicy::Vtq(VtqParams {
                queue_threshold: 16,
                repack_threshold: repack,
                ..Default::default()
            })),
        )
        .try_run(&workload)
        .unwrap()
    };
    let no_repack = run(0);
    let repack = run(22);
    assert_eq!(no_repack.stats.repack_events, 0);
    assert!(repack.stats.repack_events > 0, "repacking never fired");
    assert!(
        repack.stats.simt_efficiency() > no_repack.stats.simt_efficiency(),
        "repack SIMT {:.3} should beat no-repack {:.3}",
        repack.stats.simt_efficiency(),
        no_repack.stats.simt_efficiency()
    );
}

#[test]
fn prefetch_policy_issues_and_uses_prefetches() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 32, 2);
    let report =
        Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::TreeletPrefetch))
            .try_run(&workload)
            .unwrap();
    assert!(report.stats.prefetches_issued > 0);
    assert!(report.stats.prefetch_lines > 0);
    let rate = report.stats.prefetch_use_rate_opt().expect("lines were prefetched");
    assert!(rate > 0.0 && rate <= 1.0, "use rate {rate}");
}

#[test]
fn prediction_hits_table_and_stays_bit_equal_to_baseline() {
    let (scene, bvh) = setup(32);
    let tris = scene.triangles();
    // Coherence in the extreme: the same 256-path tile repeated 8x. With a
    // single resident CTA per SM the waves serialize, so wave N+1 issues
    // after wave N completed and trained the table with identical keys.
    let mut workload = build_workload(&scene, &bvh, 16, 1);
    let tile = workload.tasks.clone();
    for _ in 0..7 {
        workload.tasks.extend(tile.iter().cloned());
    }
    let throttled = |policy| {
        let mut cfg = small_gpu(policy);
        cfg.max_ctas_per_sm = 1;
        cfg
    };
    let base = Simulator::new(&bvh, tris, throttled(TraversalPolicy::Baseline))
        .try_run(&workload)
        .unwrap();
    let pred =
        Simulator::new(&bvh, tris, throttled(TraversalPolicy::Predict(PredictParams::default())))
            .try_run(&workload)
            .unwrap();
    assert_eq!(pred.stats.rays_completed as usize, workload.total_rays());
    assert!(pred.stats.predict_lookups > 0, "no prediction lookups recorded");
    assert!(pred.stats.predict_inserts > 0, "table never trained");
    assert!(
        pred.stats.predict_hits > 0,
        "coherent workload produced no prediction hits ({} lookups)",
        pred.stats.predict_lookups
    );
    // Verified speculation: predictions only tighten t early, so the
    // functional result is bit-identical to baseline.
    for (task, rays) in workload.tasks.iter().enumerate() {
        for (bounce, _) in rays.rays.iter().enumerate() {
            let b = base.hits[task][bounce];
            let p = pred.hits[task][bounce];
            assert_eq!(
                b.map(|h| (h.prim, h.t.to_bits())),
                p.map(|h| (h.prim, h.t.to_bits())),
                "task {task} bounce {bounce} diverged from baseline"
            );
        }
    }
    // Report surfaces the new counters.
    assert!(pred.stats.report().contains("prediction:"));
    assert!(!base.stats.report().contains("prediction:"));
}

#[test]
fn prediction_lookup_latency_costs_cycles() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 16, 1);
    let run = |latency: u32| {
        let p = PredictParams { lookup_latency: latency, ..Default::default() };
        Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::Predict(p)))
            .try_run(&workload)
            .unwrap()
    };
    let fast = run(0);
    let slow = run(200);
    assert!(
        slow.stats.cycles > fast.stats.cycles,
        "200-cycle lookup latency ({}) should exceed free lookup ({})",
        slow.stats.cycles,
        fast.stats.cycles
    );
    // Same functional result either way.
    assert_eq!(fast.hits, slow.hits);
}

#[test]
fn energy_report_is_consistent() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 16, 1);
    let report = Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::Baseline))
        .try_run(&workload)
        .unwrap();
    assert!(report.energy.total_pj() > 0.0);
    assert!(report.energy.static_pj > 0.0);
    assert_eq!(report.energy.virtualization_pj, 0.0, "baseline has no virtualization energy");
}

#[test]
fn mem_stats_track_bvh_and_windows() {
    let (scene, bvh) = setup(32);
    let workload = build_workload(&scene, &bvh, 16, 1);
    let report = Simulator::new(&bvh, scene.triangles(), small_gpu(TraversalPolicy::Baseline))
        .try_run(&workload)
        .unwrap();
    let bvh_stats = report.mem.kind(gpumem::AccessKind::Bvh);
    assert!(bvh_stats.lines > 0);
    assert!(bvh_stats.l1_lookups > 0);
    assert!(!report.mem.bvh_l1_windows.is_empty());
}

#[test]
fn multi_slot_warp_buffer_is_correct_and_not_slower() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 48, 2);
    let mut one = small_gpu(TraversalPolicy::Baseline);
    one.warp_buffer_slots = 1;
    let mut four = small_gpu(TraversalPolicy::Baseline);
    four.warp_buffer_slots = 4;
    let r1 = Simulator::new(&bvh, scene.triangles(), one).try_run(&workload).unwrap();
    let r4 = Simulator::new(&bvh, scene.triangles(), four).try_run(&workload).unwrap();
    assert_eq!(r1.hits, r4.hits, "warp buffer size must not change results");
    assert!(
        r4.stats.cycles < r1.stats.cycles,
        "4 warp slots ({}) should outperform 1 ({}) by overlapping memory latency",
        r4.stats.cycles,
        r1.stats.cycles
    );
}

/// A §4.5 repack fills only the warp's vacant lanes. A grouped warp can be
/// narrower than the machine's warps, and with two warp-buffer slots the
/// other slot's rays reach the queues meanwhile, so popping a full warp's
/// worth of rays would strand some in no lane and no queue, and the run
/// would deadlock.
#[test]
fn vtq_repacking_with_two_warp_buffer_slots_loses_no_ray() {
    let scene = lumibench::build_scaled(SceneId::Ref, 16);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let primary = |x: u32, y: u32| scene.camera().primary_ray(x % 16, y % 16, 16, 16, None).into();
    let tasks =
        (0..128).map(|i| PathTask { rays: vec![primary(i, i / 16), primary(i * 7, i * 3)] });
    let workload = Workload { tasks: tasks.collect() };
    let mut cfg = GpuConfig::default().with_policy(TraversalPolicy::Vtq(VtqParams::default()));
    cfg.mem.num_sms = 1;
    cfg.warp_buffer_slots = 2;
    let report =
        Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).expect("completes");
    assert_eq!(report.stats.rays_completed, workload.total_rays() as u64);
    assert!(report.stats.repack_events > 0);
}

#[test]
fn anyhit_trace_calls_agree_with_occlusion_reference() {
    let (scene, bvh) = setup(8);
    let tris = scene.triangles();
    // Mixed workload: a closest-hit primary plus an anyhit probe per task.
    let mut rng = XorShiftRng::new(0x0CC1);
    let tasks: Vec<PathTask> = (0..600)
        .map(|i| {
            let primary = scene.camera().primary_ray(i % 24, i / 24 % 24, 24, 24, None);
            let probe = rtmath::Ray::new(
                rtmath::Vec3::new(
                    rng.range_f32(-8.0, 8.0),
                    rng.range_f32(0.1, 5.0),
                    rng.range_f32(-8.0, 8.0),
                ),
                rng.unit_vector() * rng.range_f32(1.0, 12.0),
            );
            PathTask { rays: vec![primary.into(), gpusim::TraceCall::anyhit(probe, 1.0)] }
        })
        .collect();
    let workload = Workload { tasks };
    for policy in policies() {
        let report = Simulator::new(&bvh, tris, small_gpu(policy)).try_run(&workload).unwrap();
        assert_eq!(report.stats.rays_completed as usize, workload.total_rays());
        for (task, pt) in workload.tasks.iter().enumerate() {
            let probe = &pt.rays[1];
            let occluded = bvh.occluded(tris, &probe.ray, 1e-3, probe.t_max);
            assert_eq!(
                report.hits[task][1].is_some(),
                occluded,
                "anyhit disagreement at task {task} under {}",
                policy.label()
            );
        }
    }
}

#[test]
fn anyhit_rays_do_less_work_than_closest_hit() {
    let (scene, bvh) = setup(8);
    let ray = scene.camera().primary_ray(24, 24, 48, 48, None);
    let closest = Workload { tasks: vec![PathTask { rays: vec![ray.into()] }; 64] };
    let any = Workload {
        tasks: vec![PathTask { rays: vec![gpusim::TraceCall::anyhit(ray, f32::INFINITY)] }; 64],
    };
    let cfg = small_gpu(TraversalPolicy::Baseline);
    let rc = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&closest).unwrap();
    let ra = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&any).unwrap();
    assert!(
        ra.stats.tri_tests <= rc.stats.tri_tests,
        "anyhit {} must not exceed closest-hit {} triangle tests",
        ra.stats.tri_tests,
        rc.stats.tri_tests
    );
}

#[test]
fn virtual_ray_cap_is_respected() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    for cap in [512usize, 1024, 4096] {
        let cfg = small_gpu(TraversalPolicy::Vtq(VtqParams {
            max_virtual_rays: cap,
            queue_threshold: 16,
            ..Default::default()
        }));
        let r = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
        // The cap gates fresh raygen launches (§4.1); resumed CTAs issuing
        // their next bounce are not gated, so the peak can exceed the cap
        // by up to one SM's worth of resident CTAs.
        let gpu = small_gpu(TraversalPolicy::Baseline);
        let slack = gpu.max_ctas_per_sm * gpu.cta_size;
        assert!(
            r.stats.peak_rays_in_flight <= cap + slack,
            "cap {cap}: peak {} exceeds cap + {slack}",
            r.stats.peak_rays_in_flight
        );
    }
}

#[test]
fn tiny_hardware_tables_charge_spill_traffic() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let run = |queue_entries: usize, count_entries: usize| {
        let cfg = small_gpu(TraversalPolicy::Vtq(VtqParams {
            queue_table_entries: queue_entries,
            count_table_entries: count_entries,
            queue_threshold: 16,
            ..Default::default()
        }));
        Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap()
    };
    let roomy = run(128, 600);
    let cramped = run(1, 1);
    let roomy_meta = roomy.mem.kind(gpumem::AccessKind::QueueMeta).lines;
    let cramped_meta = cramped.mem.kind(gpumem::AccessKind::QueueMeta).lines;
    assert!(
        cramped_meta > roomy_meta,
        "1-entry tables must spill ({cramped_meta} vs {roomy_meta})"
    );
    // Functionality is unaffected.
    assert_eq!(roomy.hits, cramped.hits);
}

#[test]
fn preload_does_not_change_results_and_rarely_hurts() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let with = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })),
    )
    .try_run(&workload)
    .unwrap();
    let without = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams {
            queue_threshold: 16,
            preload: false,
            ..Default::default()
        })),
    )
    .try_run(&workload)
    .unwrap();
    assert_eq!(with.hits, without.hits);
    // Preloading adds Prefetch traffic and must not be catastrophic.
    assert!(
        with.mem.kind(gpumem::AccessKind::Prefetch).lines
            >= without.mem.kind(gpumem::AccessKind::Prefetch).lines
    );
    assert!((with.stats.cycles as f64) < without.stats.cycles as f64 * 1.5);
}

#[test]
fn shadow_ray_workload_through_the_simulator() {
    // End-to-end: NEE workload (closest-hit + anyhit mix) simulates
    // correctly under VTQ and matches the occlusion reference.
    let scene = lumibench::build_scaled(SceneId::Bath, 8);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let (workload, _) = vtq_shadow_workload(&scene, &bvh);
    let anyhit_calls: usize =
        workload.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit).count();
    assert!(anyhit_calls > 0);
    let cfg =
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() }));
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    assert_eq!(report.stats.rays_completed as usize, workload.total_rays());
    for (task, pt) in workload.tasks.iter().enumerate() {
        for (i, call) in pt.rays.iter().enumerate() {
            if call.anyhit {
                let expect = bvh.occluded(scene.triangles(), &call.ray, 1e-3, call.t_max);
                assert_eq!(report.hits[task][i].is_some(), expect, "task {task} call {i}");
            }
        }
    }
}

/// Builds an NEE workload without depending on the `vtq` crate (which
/// would be a dependency cycle): a closest primary plus a hand-rolled
/// anyhit shadow probe toward the scene's light.
fn vtq_shadow_workload(scene: &rtscene::Scene, bvh: &Bvh) -> (Workload, ()) {
    let tris = scene.triangles();
    let light =
        tris.iter().find(|t| scene.material(t.material).is_emissive()).expect("scene has a light");
    let mut tasks = Vec::new();
    for py in 0..32 {
        for px in 0..32 {
            let primary = scene.camera().primary_ray(px, py, 32, 32, None);
            let mut rays: Vec<gpusim::TraceCall> = vec![primary.into()];
            if let Some(hit) = bvh.intersect(tris, &primary, 1e-3, f32::INFINITY) {
                let p = primary.at(hit.t);
                let shadow = rtmath::Ray::new(p, light.centroid() - p);
                rays.push(gpusim::TraceCall::anyhit(shadow, 0.999));
            }
            tasks.push(PathTask { rays });
        }
    }
    (Workload { tasks }, ())
}

#[test]
fn queue_table_chains_stay_short() {
    // §4.2: "in our experiments the max collisions for a key is only two";
    // §6.5: 128 entries suffice. Validate both on a real VTQ run.
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let report = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })),
    )
    .try_run(&workload)
    .unwrap();
    assert!(report.stats.queue_table_peak_entries > 0, "queue table saw traffic");
    assert!(
        report.stats.queue_table_max_chain <= 4,
        "hash chains should stay short, got {}",
        report.stats.queue_table_max_chain
    );
}

/// §4.2: "the max collisions for a key is only two" — regression-pin the
/// paper's exact bound on the default-parameter VTQ configuration across
/// scenes. A chain of 3+ means the hash spreading regressed.
#[test]
fn queue_table_max_chain_stays_at_most_two() {
    for scene_id in [SceneId::Ref, SceneId::Bath] {
        let scene = lumibench::build_scaled(scene_id, 8);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let workload = build_workload(&scene, &bvh, 64, 2);
        let report = Simulator::new(
            &bvh,
            scene.triangles(),
            small_gpu(TraversalPolicy::Vtq(VtqParams {
                queue_threshold: 16,
                ..Default::default()
            })),
        )
        .try_run(&workload)
        .unwrap();
        assert!(report.stats.queue_table_peak_entries > 0, "{scene_id:?}: table unused");
        assert!(
            report.stats.queue_table_max_chain <= 2,
            "{scene_id:?}: max probe chain {} exceeds the paper's bound of 2 (§4.2)",
            report.stats.queue_table_max_chain
        );
    }
}

/// §6.5 sizes the hardware queue table at 128 entries; with the default
/// table the peak live-entry count must stay within that budget (anything
/// above spills, which the paper's sizing argument rules out).
#[test]
fn queue_table_peak_entries_fit_the_128_entry_budget() {
    let (scene, bvh) = setup(8);
    let workload = build_workload(&scene, &bvh, 96, 2);
    let report = Simulator::new(
        &bvh,
        scene.triangles(),
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })),
    )
    .try_run(&workload)
    .unwrap();
    assert!(report.stats.queue_table_peak_entries > 0, "queue table saw traffic");
    assert!(
        report.stats.queue_table_peak_entries <= 128,
        "peak queue-table occupancy {} exceeds the §6.5 budget of 128 entries",
        report.stats.queue_table_peak_entries
    );
    assert_eq!(
        report.stats.queue_table_overflows, 0,
        "default-size table must not spill on the reference workload"
    );
}

#[test]
fn workload_metrics() {
    let (scene, bvh) = setup(16);
    let w = build_workload(&scene, &bvh, 16, 2);
    assert!(w.mean_path_length() >= 1.0);
    assert!(w.mean_path_length() <= 3.0);
    assert_eq!(w.anyhit_fraction(), 0.0, "plain path tracing has no anyhit calls");
    let mixed = Workload {
        tasks: vec![PathTask {
            rays: vec![
                scene.camera().primary_ray(0, 0, 8, 8, None).into(),
                gpusim::TraceCall::anyhit(scene.camera().primary_ray(1, 0, 8, 8, None), 1.0),
            ],
        }],
    };
    assert_eq!(mixed.anyhit_fraction(), 0.5);
    assert_eq!(mixed.mean_path_length(), 2.0);
}

#[test]
fn empty_tasks_and_ragged_bounces_are_handled() {
    // Threads whose path ended (zero rays at later bounces) and entirely
    // empty tasks must not wedge the CTA pipeline.
    let (scene, bvh) = setup(16);
    let mk = |n: usize| -> PathTask {
        PathTask {
            rays: (0..n)
                .map(|i| scene.camera().primary_ray(i as u32 % 8, i as u32 / 8, 8, 8, None).into())
                .collect(),
        }
    };
    let workload = Workload { tasks: vec![mk(3), mk(0), mk(1), mk(2), mk(0), mk(3)] };
    for policy in policies() {
        let r =
            Simulator::new(&bvh, scene.triangles(), small_gpu(policy)).try_run(&workload).unwrap();
        assert_eq!(r.stats.rays_completed as usize, workload.total_rays(), "{}", policy.label());
        assert_eq!(r.hits[1].len(), 0);
        assert_eq!(r.hits[5].len(), 3);
    }
}

#[test]
fn single_sm_single_cta_vtq_still_works() {
    let (scene, bvh) = setup(16);
    let mut cfg =
        small_gpu(TraversalPolicy::Vtq(VtqParams { queue_threshold: 4, ..Default::default() }));
    cfg.mem.num_sms = 1;
    cfg.max_ctas_per_sm = 1;
    let workload = build_workload(&scene, &bvh, 32, 2);
    let r = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    assert_eq!(r.stats.rays_completed as usize, workload.total_rays());
    // With one CTA slot, virtualization is what lets more than 64 rays fly.
    assert!(r.stats.peak_rays_in_flight > cfg.cta_size);
}

#[test]
fn zero_max_virtual_rays_degrades_gracefully() {
    // A cap below one CTA still admits one CTA at a time (the reservation
    // check uses <=; with cap < cta_size nothing could ever launch, so use
    // exactly one CTA's worth).
    let (scene, bvh) = setup(16);
    let cfg = small_gpu(TraversalPolicy::Vtq(VtqParams {
        max_virtual_rays: 64,
        queue_threshold: 4,
        ..Default::default()
    }));
    let workload = build_workload(&scene, &bvh, 24, 1);
    let r = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    assert_eq!(r.stats.rays_completed as usize, workload.total_rays());
}
