//! Ray reordering (paper §7.2.1).
//!
//! The related-work alternative to treelet queues: sort rays into coherent
//! packets *before* traversal (Garanzha & Loop by origin/direction, Moon
//! et al. by first intersection point). The paper argues treelet queues
//! achieve the same goal "without the high overhead" of sorting. This
//! module implements first-hit Morton reordering at the thread level so
//! the claim can be compared on our simulator — plus a deliberate
//! *shuffle* that destroys coherence, for stress testing.

use gpusim::Workload;
use rtbvh::WideTree;
use rtmath::{morton, XorShiftRng};
use rtscene::Scene;

/// Reorders the workload's threads by the Morton code of each thread's
/// first-hit position (missing rays sort by their far point), following
/// Moon et al.'s cache-oblivious ray reordering. Warps formed from
/// adjacent threads then traverse nearby geometry.
///
/// # Example
///
/// ```
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
/// use vtq::{reorder, workload::PathTracer};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let (workload, _) = PathTracer::new(8, 1).run(&scene, &bvh);
/// let sorted = reorder::sort_by_first_hit(&workload, &scene, &bvh);
/// assert_eq!(sorted.tasks.len(), workload.tasks.len());
/// ```
pub fn sort_by_first_hit(workload: &Workload, scene: &Scene, bvh: &WideTree) -> Workload {
    let bounds = scene.stats().bounds;
    let tris = scene.triangles();
    let mut keyed: Vec<(u64, usize)> = workload
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let key = task
                .rays
                .first()
                .map(|call| {
                    let p = match bvh.intersect(tris, &call.ray, 1e-3, call.t_max) {
                        Some(hit) => call.ray.at(hit.t),
                        None => call.ray.at(1.0),
                    };
                    morton::encode_point(p, bounds.min, bounds.max, 16)
                })
                .unwrap_or(0);
            (key, i)
        })
        .collect();
    keyed.sort_by_key(|(key, i)| (*key, *i)); // stable by construction
    Workload { tasks: keyed.into_iter().map(|(_, i)| workload.tasks[i].clone()).collect() }
}

/// Deterministically shuffles threads (Fisher–Yates), destroying the
/// image-space coherence of primary rays — the adversarial counterpart to
/// [`sort_by_first_hit`].
pub fn shuffle(workload: &Workload, seed: u64) -> Workload {
    let mut rng = XorShiftRng::new(seed);
    let mut tasks = workload.tasks.clone();
    for i in (1..tasks.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        tasks.swap(i, j);
    }
    Workload { tasks }
}

/// The order a prepared scene's threads launch in
/// ([`ExperimentConfig::ray_order`](crate::ExperimentConfig::ray_order)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RayOrder {
    /// Row-major pixel order, as the path tracer emits them (the paper's
    /// workload).
    #[default]
    Pixel,
    /// [`sort_by_first_hit`].
    FirstHitSorted,
    /// [`shuffle`] under [`SHUFFLE_SEED`].
    Shuffled,
}

/// The seed of [`RayOrder::Shuffled`].
pub const SHUFFLE_SEED: u64 = 0x5EED;

impl RayOrder {
    /// `workload` with its threads in this order.
    pub fn apply(self, workload: Workload, scene: &Scene, bvh: &WideTree) -> Workload {
        match self {
            RayOrder::Pixel => workload,
            RayOrder::FirstHitSorted => sort_by_first_hit(&workload, scene, bvh),
            RayOrder::Shuffled => shuffle(&workload, SHUFFLE_SEED),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PathTracer;
    use rtbvh::{Bvh, BvhConfig};
    use rtscene::lumibench::{self, SceneId};

    fn setup() -> (Scene, Bvh, Workload) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 16);
        let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
        let (w, _) = PathTracer::new(24, 2).run(&scene, &bvh);
        (scene, bvh, w)
    }

    fn task_signature(w: &Workload) -> Vec<(u32, usize)> {
        // (bits of first ray origin x, ray count) multiset fingerprint.
        let mut sig: Vec<(u32, usize)> = w
            .tasks
            .iter()
            .map(|t| {
                (t.rays[0].ray.origin.x.to_bits() ^ t.rays[0].ray.dir.x.to_bits(), t.rays.len())
            })
            .collect();
        sig.sort_unstable();
        sig
    }

    #[test]
    fn sorting_preserves_the_task_multiset() {
        let (scene, bvh, w) = setup();
        let sorted = sort_by_first_hit(&w, &scene, &bvh);
        assert_eq!(sorted.tasks.len(), w.tasks.len());
        assert_eq!(task_signature(&sorted), task_signature(&w));
        assert_eq!(sorted.total_rays(), w.total_rays());
    }

    #[test]
    fn sorted_order_is_monotone_in_morton_key() {
        let (scene, bvh, w) = setup();
        let sorted = sort_by_first_hit(&w, &scene, &bvh);
        let bounds = scene.stats().bounds;
        let mut prev = 0u64;
        for t in &sorted.tasks {
            let call = t.rays[0];
            let p = match bvh.intersect(scene.triangles(), &call.ray, 1e-3, call.t_max) {
                Some(hit) => call.ray.at(hit.t),
                None => call.ray.at(1.0),
            };
            let key = morton::encode_point(p, bounds.min, bounds.max, 16);
            assert!(key >= prev);
            prev = key;
        }
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let (_, _, w) = setup();
        let a = shuffle(&w, 9);
        let b = shuffle(&w, 9);
        assert_eq!(task_signature(&a), task_signature(&w));
        assert_eq!(
            a.tasks[0].rays[0].ray.origin.x.to_bits(),
            b.tasks[0].rays[0].ray.origin.x.to_bits()
        );
        // A different seed gives a different permutation (overwhelmingly).
        let c = shuffle(&w, 10);
        let same = a
            .tasks
            .iter()
            .zip(&c.tasks)
            .filter(|(x, y)| {
                x.rays[0].ray.origin.x.to_bits() == y.rays[0].ray.origin.x.to_bits()
                    && x.rays[0].ray.dir.x.to_bits() == y.rays[0].ray.dir.x.to_bits()
            })
            .count();
        assert!(same < w.tasks.len());
    }
}
