//! Micro-timing tests: tiny hand-analyzable workloads whose cycle counts
//! can be predicted from the latency parameters, pinning the timing model
//! against regressions.

use gpumem::{Assoc, CacheConfig};
use gpusim::{GpuConfig, PathTask, Simulator, TraversalPolicy, Workload};
use rtbvh::{Bvh, BvhConfig};
use rtmath::{Ray, Vec3};
use rtscene::{Camera, Material, SceneBuilder, Triangle};

/// One triangle, one-node BVH, simple latencies.
fn single_triangle() -> (rtscene::Scene, Bvh) {
    let mut b = SceneBuilder::new(Camera::new(
        Vec3::new(0.0, 0.0, -5.0),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        1.0,
    ));
    let m = b.add_material(Material::lambertian(Vec3::ONE));
    b.add_triangle(Triangle::new(
        Vec3::new(-1.0, -1.0, 0.0),
        Vec3::new(1.0, -1.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        m,
    ));
    let scene = b.build();
    let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
    (scene, bvh)
}

fn micro_config() -> GpuConfig {
    let mut cfg = GpuConfig::default();
    cfg.mem.num_sms = 1;
    cfg.mem.l1 = CacheConfig { size_bytes: 1024, assoc: Assoc::Full, line_bytes: 128, latency: 10 };
    cfg.mem.l2 =
        CacheConfig { size_bytes: 4096, assoc: Assoc::Ways(4), line_bytes: 128, latency: 50 };
    cfg.mem.dram_latency = 200;
    cfg.mem.dram_lines_per_cycle = 100.0; // bandwidth never the bottleneck here
    cfg.raygen_cycles = 100;
    cfg.shade_cycles = 30;
    cfg.isect_latency = 4;
    cfg
}

#[test]
fn single_ray_kernel_cycle_count_is_exact() {
    let (scene, bvh) = single_triangle();
    assert_eq!(bvh.nodes().len(), 1, "one triangle builds a single-leaf BVH");
    let hitting = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    let workload = Workload { tasks: vec![PathTask { rays: vec![hitting.into()] }] };
    let cfg = micro_config();
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    // Timeline: raygen (100) → leaf fetch, cold: L2 lookup (50) + DRAM
    // (200) → intersection (4) → ray completes, CTA shades (30) → next
    // bounce has no rays → done.
    let expected = 100 + 50 + 200 + 4 + 30;
    assert_eq!(report.stats.cycles, expected);
    assert!(report.hits[0][0].is_some());
    assert_eq!(report.stats.tri_tests, 1);
    assert_eq!(report.stats.box_tests, 0);
}

#[test]
fn missing_ray_skips_all_memory() {
    let (scene, bvh) = single_triangle();
    let missing = Ray::new(Vec3::new(50.0, 50.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    let workload = Workload { tasks: vec![PathTask { rays: vec![missing.into()] }] };
    let cfg = micro_config();
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    // The root-bounds test happens before any fetch: the warp's only step
    // completes the ray without memory. raygen (100) + shade (30); the RT
    // unit contributes no memory latency.
    assert_eq!(report.mem.kind(gpumem::AccessKind::Bvh).lines, 0);
    assert_eq!(report.stats.cycles, 100 + 30);
    assert!(report.hits[0][0].is_none());
}

#[test]
fn second_warp_hits_the_l1() {
    let (scene, bvh) = single_triangle();
    let hitting = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    // Two CTAs' worth of tasks (65 rays at cta_size 64) so a second warp
    // traverses after the first warmed the cache.
    let workload = Workload { tasks: vec![PathTask { rays: vec![hitting.into()] }; 65] };
    let cfg = micro_config();
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    let bvh_stats = report.mem.kind(gpumem::AccessKind::Bvh);
    // Three warps (32+32+1) visit the same single node: one cold fetch,
    // the rest L1 hits. Lanes within a warp coalesce to one line lookup.
    assert_eq!(bvh_stats.lines, 3);
    assert_eq!(bvh_stats.l1_hits, 2);
    assert_eq!(bvh_stats.dram, 1);
}

#[test]
fn two_bounce_task_reenters_the_pipeline() {
    let (scene, bvh) = single_triangle();
    let hitting = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    let workload =
        Workload { tasks: vec![PathTask { rays: vec![hitting.into(), hitting.into()] }] };
    let cfg = micro_config();
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    // Bounce 0: raygen(100) + cold fetch(250) + isect(4) + shade(30).
    // Bounce 1: issue immediately after shade; L1 hit (10) + isect(4) +
    // shade(30).
    let expected = (100 + 250 + 4 + 30) + (10 + 4 + 30);
    assert_eq!(report.stats.cycles, expected);
    assert_eq!(report.stats.rays_completed, 2);
}

#[test]
fn isect_latency_scales_cycle_count() {
    let (scene, bvh) = single_triangle();
    let hitting = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    let workload = Workload { tasks: vec![PathTask { rays: vec![hitting.into()] }] };
    let mut fast = micro_config();
    fast.isect_latency = 1;
    let mut slow = micro_config();
    slow.isect_latency = 41;
    let rf = Simulator::new(&bvh, scene.triangles(), fast).try_run(&workload).unwrap();
    let rs = Simulator::new(&bvh, scene.triangles(), slow).try_run(&workload).unwrap();
    assert_eq!(rs.stats.cycles - rf.stats.cycles, 40);
}

#[test]
fn warp_and_cta_size_variants_are_functionally_identical() {
    // Robustness: non-default warp and CTA geometry must not change hit
    // results, only timing.
    let scene = rtscene::lumibench::build_scaled(rtscene::lumibench::SceneId::Ref, 16);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let rays: Vec<PathTask> = (0..300)
        .map(|i| PathTask {
            rays: vec![scene.camera().primary_ray(i % 20, i / 20, 20, 15, None).into()],
        })
        .collect();
    let workload = Workload { tasks: rays };
    let mut reference_hits = None;
    for (warp, cta) in [(32usize, 64usize), (16, 32), (8, 64), (32, 128)] {
        let mut cfg = micro_config();
        cfg.warp_size = warp;
        cfg.cta_size = cta;
        for policy in [
            TraversalPolicy::Baseline,
            // A repack threshold wider than the warp is a rejected
            // configuration.
            TraversalPolicy::Vtq(gpusim::VtqParams {
                queue_threshold: 8,
                repack_threshold: warp.min(22),
                ..Default::default()
            }),
        ] {
            let r = Simulator::new(&bvh, scene.triangles(), cfg.with_policy(policy))
                .try_run(&workload)
                .unwrap();
            assert_eq!(
                r.stats.rays_completed as usize,
                workload.total_rays(),
                "warp={warp} cta={cta}"
            );
            match &reference_hits {
                None => reference_hits = Some(r.hits),
                Some(expect) => {
                    assert_eq!(&r.hits, expect, "warp={warp} cta={cta} {}", policy.label())
                }
            }
        }
    }
}

#[test]
fn shader_contention_stretches_phases() {
    // Two CTAs' worth of tasks on one SM: with a single shader slot, the
    // concurrently launched raygen phases contend and the kernel slows;
    // with contention off they run in parallel for free.
    let (scene, bvh) = single_triangle();
    let hitting = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
    let workload = Workload { tasks: vec![PathTask { rays: vec![hitting.into()] }; 128] };
    let free = micro_config();
    let mut contended = micro_config();
    contended.shader_slots_per_sm = 1;
    let rf = Simulator::new(&bvh, scene.triangles(), free).try_run(&workload).unwrap();
    let rc = Simulator::new(&bvh, scene.triangles(), contended).try_run(&workload).unwrap();
    assert!(
        rc.stats.cycles > rf.stats.cycles,
        "1 shader slot ({}) must be slower than unlimited ({})",
        rc.stats.cycles,
        rf.stats.cycles
    );
    assert_eq!(rc.hits, rf.hits, "contention changes timing only");
}
