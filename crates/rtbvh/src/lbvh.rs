//! LBVH: linear (Morton-ordered) BVH construction.
//!
//! The fast-build alternative to the binned-SAH sweep: sort primitives by
//! the Morton code of their centroid and split ranges at the highest
//! differing code bit (Lauterbach et al. / Karras). Build time is
//! `O(n log n)` with trivial constants, at the cost of tree quality — the
//! classic build-speed vs. traversal-quality trade-off, measurable here
//! against [`build2`](crate::build2) via [`Bvh::sah_cost`](crate::Bvh::sah_cost)
//! and the simulator.
//!
//! The output is a [`Bvh2`] with the same invariants as the SAH builder's,
//! so the wide collapse, treelet partitioning and byte layout are shared.

use rtmath::{morton, Aabb};
use rtscene::Triangle;

use crate::build2::{Bvh2, Node2};
use crate::BvhConfig;

/// Builds a binary BVH over `triangles` by Morton-code splitting.
///
/// # Panics
///
/// Panics if `triangles` is empty.
pub fn build(triangles: &[Triangle], config: &BvhConfig) -> Bvh2 {
    assert!(!triangles.is_empty(), "cannot build a BVH over zero triangles");
    let scene_bounds = triangles.iter().fold(Aabb::EMPTY, |b, t| b.union(&t.bounds()));
    // (morton code, primitive index), sorted by code.
    let mut keyed: Vec<(u64, u32)> = triangles
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (morton::encode_point(t.centroid(), scene_bounds.min, scene_bounds.max, 21), i as u32)
        })
        .collect();
    keyed.sort_unstable();

    let mut nodes = Vec::with_capacity(2 * triangles.len());
    let (root, _) = build_range(&mut nodes, triangles, &keyed, 0, keyed.len(), 62, config);
    let prim_indices = keyed.iter().map(|(_, i)| *i).collect();
    Bvh2 { nodes, root, prim_indices }
}

/// Recursive range builder: split where the highest code bit at or below
/// `bit` flips. Returns the subtree's root and bounds — a leaf folds its
/// triangles, an inner node unites its children, so every triangle's
/// bounds are read once per build rather than once per level.
fn build_range(
    nodes: &mut Vec<Node2>,
    triangles: &[Triangle],
    keyed: &[(u64, u32)],
    first: usize,
    count: usize,
    bit: i32,
    config: &BvhConfig,
) -> (u32, Aabb) {
    let slice = &keyed[first..first + count];
    let (mid, child_bit) = if count <= config.max_leaf_prims || bit < 0 {
        if count <= config.max_leaf_prims_hard {
            let bounds = slice
                .iter()
                .fold(Aabb::EMPTY, |b, (_, i)| b.union(&triangles[*i as usize].bounds()));
            nodes.push(Node2::Leaf { bounds, first: first as u32, count: count as u32 });
            return ((nodes.len() - 1) as u32, bounds);
        }
        // Codes exhausted but the leaf is oversized: median split.
        (first + count / 2, bit)
    } else {
        // The range is sorted and agrees on every bit above `bit`, so its
        // first and last codes differ first where the whole range does.
        let differing = slice[0].0 ^ slice[count - 1].0;
        debug_assert!(differing >> (bit + 1) == 0, "the range disagrees above bit {bit}");
        if differing == 0 {
            // All codes equal: the codes are exhausted.
            return build_range(nodes, triangles, keyed, first, count, -1, config);
        }
        let bit = 63 - differing.leading_zeros() as i32;
        // The first element whose `bit` is set is a partition point.
        let mask = 1u64 << bit;
        (first + slice.partition_point(|(code, _)| code & mask == 0), bit - 1)
    };
    let (left, left_bounds) =
        build_range(nodes, triangles, keyed, first, mid - first, child_bit, config);
    let (right, right_bounds) =
        build_range(nodes, triangles, keyed, mid, first + count - mid, child_bit, config);
    let bounds = left_bounds.union(&right_bounds);
    nodes.push(Node2::Inner { bounds, left, right });
    ((nodes.len() - 1) as u32, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build2::arena_bits;
    use crate::{brute_force_intersect, Builder, Bvh};
    use rtmath::{Ray, Vec3, XorShiftRng};
    use rtscene::lumibench::{self, SceneId};

    fn scene() -> rtscene::Scene {
        lumibench::build_scaled(SceneId::Crnvl, 16)
    }

    /// The builder as it was before bounds were propagated upward: every
    /// level re-folds its whole range, and a bit all codes agree on costs
    /// one self-recursion. Kept as the reference for [`build`].
    fn reference_range(
        nodes: &mut Vec<Node2>,
        triangles: &[Triangle],
        keyed: &[(u64, u32)],
        (first, count): (usize, usize),
        bit: i32,
        config: &BvhConfig,
    ) -> u32 {
        let slice = &keyed[first..first + count];
        let bounds =
            slice.iter().fold(Aabb::EMPTY, |b, (_, i)| b.union(&triangles[*i as usize].bounds()));
        let (mid, child_bit) = if count <= config.max_leaf_prims || bit < 0 {
            if count <= config.max_leaf_prims_hard {
                nodes.push(Node2::Leaf { bounds, first: first as u32, count: count as u32 });
                return (nodes.len() - 1) as u32;
            }
            (first + count / 2, bit)
        } else {
            let offset = slice.partition_point(|(code, _)| code & (1u64 << bit) == 0);
            if offset == 0 || offset == count {
                return reference_range(nodes, triangles, keyed, (first, count), bit - 1, config);
            }
            (first + offset, bit - 1)
        };
        let left =
            reference_range(nodes, triangles, keyed, (first, mid - first), child_bit, config);
        let right =
            reference_range(nodes, triangles, keyed, (mid, first + count - mid), child_bit, config);
        nodes.push(Node2::Inner { bounds, left, right });
        (nodes.len() - 1) as u32
    }

    #[test]
    fn propagated_bounds_build_the_reference_arena() {
        let coincident = vec![scene().triangles()[0]; 64]; // equal codes: median splits
        let fox = lumibench::build_scaled(SceneId::Fox, 8);
        for tris in [scene().triangles(), fox.triangles(), &coincident] {
            let cfg = BvhConfig::default();
            let built = build(tris, &cfg);
            // Same sort, so the permutation doubles as the reference's keys.
            let scene_bounds = tris.iter().fold(Aabb::EMPTY, |b, t| b.union(&t.bounds()));
            let keyed: Vec<(u64, u32)> = built
                .prim_indices
                .iter()
                .map(|&i| {
                    let c = tris[i as usize].centroid();
                    (morton::encode_point(c, scene_bounds.min, scene_bounds.max, 21), i)
                })
                .collect();
            assert!(keyed.is_sorted());
            let mut nodes = Vec::new();
            let root = reference_range(&mut nodes, tris, &keyed, (0, keyed.len()), 62, &cfg);
            let want = Bvh2 { nodes, root, prim_indices: built.prim_indices.clone() };
            // Arena order, child links, leaf ranges, and bounds by bits.
            assert_eq!(arena_bits(&built), arena_bits(&want));
        }
    }

    #[test]
    fn lbvh_is_a_valid_bvh() {
        let s = scene();
        let bvh = Bvh::build_with(s.triangles(), &BvhConfig::default(), Builder::Lbvh);
        bvh.validate(s.triangles()).expect("LBVH must satisfy all BVH invariants");
    }

    #[test]
    fn lbvh_traversal_matches_brute_force() {
        let s = scene();
        let tris = s.triangles();
        let bvh = Bvh::build_with(tris, &BvhConfig::default(), Builder::Lbvh);
        let mut rng = XorShiftRng::new(0x1B);
        for i in 0..150 {
            let ray = if i % 2 == 0 {
                s.camera().primary_ray(i % 12, i / 12, 12, 13, None)
            } else {
                Ray::new(
                    Vec3::new(
                        rng.range_f32(-15.0, 15.0),
                        rng.range_f32(0.2, 8.0),
                        rng.range_f32(-15.0, 15.0),
                    ),
                    rng.unit_vector(),
                )
            };
            let ours = bvh.intersect(tris, &ray, 1e-3, f32::INFINITY);
            let reference = brute_force_intersect(tris, &ray, 1e-3, f32::INFINITY);
            assert_eq!(ours.map(|h| h.prim), reference.map(|h| h.prim), "ray {i}");
        }
    }

    #[test]
    fn sah_build_has_lower_cost_than_lbvh() {
        // The entire point of the SAH: better expected traversal cost.
        let s = scene();
        let sah = Bvh::build(s.triangles(), &BvhConfig::default());
        let lbvh = Bvh::build_with(s.triangles(), &BvhConfig::default(), Builder::Lbvh);
        assert!(
            sah.sah_cost() < lbvh.sah_cost(),
            "SAH cost {:.2} should beat LBVH cost {:.2}",
            sah.sah_cost(),
            lbvh.sah_cost()
        );
    }

    #[test]
    fn lbvh_is_deterministic() {
        let s = scene();
        let a = Bvh::build_with(s.triangles(), &BvhConfig::default(), Builder::Lbvh);
        let b = Bvh::build_with(s.triangles(), &BvhConfig::default(), Builder::Lbvh);
        assert_eq!(a.nodes().len(), b.nodes().len());
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    #[should_panic(expected = "zero triangles")]
    fn empty_input_panics() {
        let _ = build(&[], &BvhConfig::default());
    }
}
