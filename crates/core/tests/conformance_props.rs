//! Property-based anyhit/occlusion conformance: for arbitrary scenes and
//! shadow rays, the cycle-level simulator's occlusion answers must match
//! the functional oracle's, and anyhit traversal must never do more work
//! than closest-hit traversal.

use gpusim::{
    GpuConfig, HitCapture, NextNode, PathTask, RayId, RayTraversal, Simulator, TraceCall,
    TraversalPolicy, VtqParams, Workload, TRACE_T_MIN,
};
use proptest::prelude::*;
use rtbvh::{Bvh, BvhConfig, PrimHit};
use rtmath::{Ray, Vec3, XorShiftRng};
use rtscene::{MaterialId, Triangle};

/// Deterministic random soup from a seed (same recipe as the rtbvh
/// property suite): clustered triangles of varying sizes.
fn random_soup(seed: u64, count: usize) -> Vec<Triangle> {
    let mut rng = XorShiftRng::new(seed);
    let mut tris = Vec::with_capacity(count);
    while tris.len() < count {
        let cluster = Vec3::new(
            rng.range_f32(-50.0, 50.0),
            rng.range_f32(-50.0, 50.0),
            rng.range_f32(-50.0, 50.0),
        );
        let spread = rng.range_f32(0.1, 10.0);
        for _ in 0..rng.below(8) + 1 {
            if tris.len() >= count {
                break;
            }
            let v0 = cluster + rng.unit_vector() * spread;
            let t = Triangle::new(
                v0,
                v0 + rng.unit_vector() * rng.range_f32(0.05, 2.0),
                v0 + rng.unit_vector() * rng.range_f32(0.05, 2.0),
                MaterialId::new(0),
            );
            if !t.is_degenerate() {
                tris.push(t);
            }
        }
    }
    tris
}

/// Random shadow-style rays: origins near the geometry, bounded `t_max`
/// like an NEE light test.
fn random_shadow_rays(seed: u64, count: usize) -> Vec<(Ray, f32)> {
    let mut rng = XorShiftRng::new(seed ^ 0x5AD0_11AD);
    (0..count)
        .map(|_| {
            let origin = Vec3::new(
                rng.range_f32(-60.0, 60.0),
                rng.range_f32(-60.0, 60.0),
                rng.range_f32(-60.0, 60.0),
            );
            (Ray::new(origin, rng.unit_vector()), rng.range_f32(10.0, 300.0))
        })
        .collect()
}

/// Unrestricted (functionally ideal) traversal of one ray through the
/// two-stack state machine, returning the result and the node count.
fn run_free(
    tris: &[Triangle],
    bvh: &Bvh,
    ray: Ray,
    t_max: f32,
    anyhit: bool,
) -> (Option<PrimHit>, u32) {
    let mut rt = RayTraversal::new(RayId(0), ray, bvh, TRACE_T_MIN, t_max);
    if anyhit {
        rt.set_anyhit();
    }
    loop {
        match rt.next_node(bvh, None) {
            NextNode::Visit(n) => {
                rt.visit(bvh, tris, n);
            }
            NextNode::ExitTreelet(t) => rt.enter_treelet(bvh, t),
            NextNode::Done => break,
        }
    }
    (rt.best, rt.nodes_visited)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The simulator's occlusion (anyhit) answer must equal the oracle's
    /// `WideTree::occluded` for every shadow ray, under every policy — the
    /// terminating occluder may differ with visit order, but hit-vs-miss
    /// may not.
    #[test]
    fn simulator_occlusion_matches_oracle(seed in any::<u64>()) {
        let tris = random_soup(seed, 100);
        let bvh = Bvh::build(&tris, &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let rays = random_shadow_rays(seed, 48);
        let workload = Workload {
            tasks: rays
                .iter()
                .map(|&(ray, t_max)| PathTask { rays: vec![TraceCall::anyhit(ray, t_max)] })
                .collect(),
        };
        let mut cfg = GpuConfig::default();
        cfg.mem.num_sms = 2;
        for policy in [
            TraversalPolicy::Baseline,
            TraversalPolicy::TreeletPrefetch,
            TraversalPolicy::Vtq(VtqParams::default()),
        ] {
            let sim = Simulator::new(&bvh, &tris, cfg.with_policy(policy));
            let report = sim.try_run(&workload).expect("simulation runs");
            let capture = HitCapture::from_report(&report);
            for (task, &(ray, t_max)) in rays.iter().enumerate() {
                let oracle = bvh.occluded(&tris, &ray, TRACE_T_MIN, t_max);
                let got = capture.get(task, 0).expect("one call per task").is_some();
                prop_assert_eq!(
                    got, oracle,
                    "policy {:?} ray {} disagrees with the oracle", policy, task
                );
            }
        }
    }

    /// Anyhit traversal terminates at the first accepted hit, so it can
    /// never fetch more BVH nodes than the closest-hit traversal of the
    /// same ray — and it must agree on hit-vs-miss.
    #[test]
    fn anyhit_never_visits_more_nodes(seed in any::<u64>()) {
        let tris = random_soup(seed, 120);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        for (ray, t_max) in random_shadow_rays(seed, 64) {
            let (closest, closest_nodes) = run_free(&tris, &bvh, ray, t_max, false);
            let (any, any_nodes) = run_free(&tris, &bvh, ray, t_max, true);
            prop_assert_eq!(
                any.is_some(),
                closest.is_some(),
                "anyhit and closest disagree on occlusion"
            );
            prop_assert!(
                any_nodes <= closest_nodes,
                "anyhit visited {} nodes, closest only {}",
                any_nodes,
                closest_nodes
            );
        }
    }
}
