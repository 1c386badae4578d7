//! Binned-SAH binary BVH builder.
//!
//! This is the first stage of construction; [`crate::Bvh::build`] collapses
//! the binary tree produced here into the 4-wide BVH the simulator
//! traverses. Exposed publicly so tests and tools can inspect the
//! intermediate tree.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rtmath::Aabb;
use rtscene::Triangle;

use crate::BvhConfig;

/// A node of the intermediate binary BVH.
#[derive(Debug, Clone)]
pub enum Node2 {
    /// Interior node with two children (indices into the builder's arena).
    Inner {
        /// Bounds of the whole subtree.
        bounds: Aabb,
        /// Left child arena index.
        left: u32,
        /// Right child arena index.
        right: u32,
    },
    /// Leaf holding a range of the builder's primitive-index permutation.
    Leaf {
        /// Bounds of the contained primitives.
        bounds: Aabb,
        /// First index into [`Bvh2::prim_indices`].
        first: u32,
        /// Number of primitives.
        count: u32,
    },
}

impl Node2 {
    /// The node's bounds.
    pub fn bounds(&self) -> Aabb {
        match self {
            Node2::Inner { bounds, .. } | Node2::Leaf { bounds, .. } => *bounds,
        }
    }
}

/// The intermediate binary BVH: an arena of nodes plus the primitive
/// permutation its leaves reference.
#[derive(Debug, Clone)]
pub struct Bvh2 {
    /// Node arena; `root` is the entry point.
    pub nodes: Vec<Node2>,
    /// Root node index.
    pub root: u32,
    /// Permutation of primitive indices; leaves reference ranges of this.
    pub prim_indices: Vec<u32>,
}

struct PrimInfo {
    bounds: Aabb,
    centroid: rtmath::Vec3,
    index: u32,
}

/// Most SAH bins a split may use: the binning scratch is fixed arrays of
/// this size, so no split allocates. [`build`] rejects a larger
/// [`BvhConfig::sah_bins`].
pub const MAX_BINS: usize = 32;

/// [`build`] forks only when there are at least this many primitives...
const PARALLEL_MIN_PRIMS: usize = 16 * 1024;

/// ...and only at a split whose two sides both hold at least this many:
/// a fork has to outweigh a thread spawn and a copy of the subtree.
const FORK_MIN_PRIMS: usize = 4 * 1024;

/// Builds a binary BVH over `triangles` with binned SAH splits.
///
/// Large inputs are built on [`prof::par::threads`] threads: wherever both
/// sides of a split are large and a thread is free, each side is built
/// into an arena of its own and the two are appended with their child
/// links offset, which is the serial arena exactly (left subtree, right
/// subtree, parent) — the result does not depend on the thread count or
/// on which splits happened to fork.
///
/// # Panics
///
/// Panics if `triangles` is empty or `config.sah_bins` exceeds
/// [`MAX_BINS`].
pub fn build(triangles: &[Triangle], config: &BvhConfig) -> Bvh2 {
    let threads = prof::par::threads_for(triangles.len(), PARALLEL_MIN_PRIMS);
    build_on(threads, FORK_MIN_PRIMS, triangles, config)
}

/// [`build`] on exactly `threads` threads, forking wherever both sides of
/// a split hold at least `fork_min` primitives.
fn build_on(threads: usize, fork_min: usize, triangles: &[Triangle], config: &BvhConfig) -> Bvh2 {
    assert!(!triangles.is_empty(), "cannot build a BVH over zero triangles");
    assert!(config.sah_bins <= MAX_BINS, "sah_bins {} exceeds {MAX_BINS}", config.sah_bins);
    let mut prims: Vec<PrimInfo> = triangles
        .iter()
        .enumerate()
        .map(|(i, t)| PrimInfo { bounds: t.bounds(), centroid: t.centroid(), index: i as u32 })
        .collect();
    let mut nodes = Vec::with_capacity(2 * triangles.len());
    let forks = Forks { idle_threads: AtomicUsize::new(threads.saturating_sub(1)), fork_min };
    let root = build_range(&mut nodes, &mut prims, 0, &forks, config);
    let prim_indices = prims.iter().map(|p| p.index).collect();
    Bvh2 { nodes, root, prim_indices }
}

/// When a split may fork. Fork by subtree size and by which threads are
/// idle *now*, not by depth or a fixed share: scenes that open with sliver
/// splits (ROBOT: 1400 / 371082, then four more) have nothing to hand out
/// near the root, and the small side of an uneven split frees its thread
/// for the next split of the large side.
struct Forks {
    /// Threads of the build's budget that are not building anything.
    idle_threads: AtomicUsize,
    fork_min: usize,
}

impl Forks {
    /// Claims an idle thread for a split into `lo` and `hi` primitives.
    fn try_claim(&self, lo: usize, hi: usize) -> bool {
        // Relaxed: the counter only rations threads; the subtrees
        // themselves are handed over by `par::map`.
        lo.min(hi) >= self.fork_min
            && self
                .idle_threads
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| idle.checked_sub(1))
                .is_ok()
    }

    fn release(&self) {
        self.idle_threads.fetch_add(1, Ordering::Relaxed);
    }
}

fn range_bounds(prims: &[PrimInfo]) -> (Aabb, Aabb) {
    let mut bounds = Aabb::EMPTY;
    let mut centroid_bounds = Aabb::EMPTY;
    for p in prims {
        bounds = bounds.union(&p.bounds);
        centroid_bounds = centroid_bounds.union_point(p.centroid);
    }
    (bounds, centroid_bounds)
}

/// Builds the subtree over `prims` — the slice of the permutation that
/// starts at absolute position `first` — into `nodes`, and returns its
/// root.
fn build_range(
    nodes: &mut Vec<Node2>,
    prims: &mut [PrimInfo],
    first: usize,
    forks: &Forks,
    config: &BvhConfig,
) -> u32 {
    let count = prims.len();
    let (bounds, centroid_bounds) = range_bounds(prims);

    let make_leaf = |nodes: &mut Vec<Node2>| -> u32 {
        nodes.push(Node2::Leaf { bounds, first: first as u32, count: count as u32 });
        (nodes.len() - 1) as u32
    };

    if count <= config.max_leaf_prims {
        return make_leaf(nodes);
    }

    // Pick the widest centroid axis; degenerate extents mean all centroids
    // coincide and SAH binning cannot separate them.
    let axis = centroid_bounds.longest_axis();
    let extent = centroid_bounds.extent()[axis.index()];
    let mid = if extent < 1e-12 {
        if count <= config.max_leaf_prims_hard {
            return make_leaf(nodes);
        }
        count / 2 // forced median split of coincident centroids
    } else {
        match binned_sah_split(prims, axis, centroid_bounds, bounds, config) {
            Some(offset) => offset,
            None => {
                if count <= config.max_leaf_prims_hard {
                    return make_leaf(nodes);
                }
                // SAH says "leaf" but the leaf would be oversized: median split.
                let k = count / 2;
                prims.select_nth_unstable_by(k, |a, b| {
                    a.centroid[axis.index()].total_cmp(&b.centroid[axis.index()])
                });
                k
            }
        }
    };

    debug_assert!(mid > 0 && mid < count);
    let (lo, hi) = prims.split_at_mut(mid);
    let (left, right) = if forks.try_claim(lo.len(), hi.len()) {
        // Two sides on two threads until the first side is done; the
        // thread that frees goes back to the budget while the other side
        // is still building (and may fork again).
        let first_done = AtomicBool::new(false);
        let sides = vec![(lo, first), (hi, first + mid)];
        let arenas = prof::par::map(2, sides, |(prims, first)| {
            // About one node per two primitives at the default leaf size.
            let mut arena = Vec::with_capacity(prims.len());
            build_range(&mut arena, prims, first, forks, config);
            if !first_done.swap(true, Ordering::Relaxed) {
                forks.release();
            }
            arena
        });
        let roots: Vec<u32> = arenas.into_iter().map(|a| append_arena(nodes, a)).collect();
        (roots[0], roots[1])
    } else {
        let left = build_range(nodes, lo, first, forks, config);
        (left, build_range(nodes, hi, first + mid, forks, config))
    };
    nodes.push(Node2::Inner { bounds, left, right });
    (nodes.len() - 1) as u32
}

/// Appends a subtree built into its own arena, shifting its child links
/// (leaf ranges are absolute already), and returns its root — a subtree's
/// root is its last node.
fn append_arena(nodes: &mut Vec<Node2>, arena: Vec<Node2>) -> u32 {
    let base = nodes.len() as u32;
    nodes.extend(arena.into_iter().map(|node| match node {
        Node2::Inner { bounds, left, right } => {
            Node2::Inner { bounds, left: left + base, right: right + base }
        }
        leaf @ Node2::Leaf { .. } => leaf,
    }));
    (nodes.len() - 1) as u32
}

/// Bins the range on `axis` and returns the partition offset of the best
/// SAH split, or `None` if keeping a leaf is cheaper.
fn binned_sah_split(
    prims: &mut [PrimInfo],
    axis: rtmath::Axis,
    centroid_bounds: Aabb,
    bounds: Aabb,
    config: &BvhConfig,
) -> Option<usize> {
    let nbins = config.sah_bins.max(2);
    let ax = axis.index();
    let lo = centroid_bounds.min[ax];
    let scale = nbins as f32 / (centroid_bounds.max[ax] - lo);
    let bin_of =
        |p: &PrimInfo| -> usize { (((p.centroid[ax] - lo) * scale) as usize).min(nbins - 1) };

    let mut bin_bounds = [Aabb::EMPTY; MAX_BINS];
    let mut bin_counts = [0usize; MAX_BINS];
    for p in prims.iter() {
        let b = bin_of(p);
        bin_bounds[b] = bin_bounds[b].union(&p.bounds);
        bin_counts[b] += 1;
    }

    // Sweep: suffix areas/counts right-to-left, then prefix left-to-right.
    let mut right_area = [0.0f32; MAX_BINS];
    let mut right_count = [0usize; MAX_BINS];
    let mut acc_bounds = Aabb::EMPTY;
    let mut acc_count = 0;
    for i in (1..nbins).rev() {
        acc_bounds = acc_bounds.union(&bin_bounds[i]);
        acc_count += bin_counts[i];
        right_area[i] = acc_bounds.surface_area();
        right_count[i] = acc_count;
    }

    let total = prims.len();
    let parent_area = bounds.surface_area().max(1e-12);
    let leaf_cost = total as f32;
    let mut best: Option<(f32, usize)> = None; // (cost, split bin)
    let mut left_bounds = Aabb::EMPTY;
    let mut left_count = 0usize;
    for split in 1..nbins {
        left_bounds = left_bounds.union(&bin_bounds[split - 1]);
        left_count += bin_counts[split - 1];
        if left_count == 0 || right_count[split] == 0 {
            continue;
        }
        let cost = config.traversal_cost
            + (left_bounds.surface_area() * left_count as f32
                + right_area[split] * right_count[split] as f32)
                / parent_area;
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, split));
        }
    }

    let (cost, split_bin) = best?;
    if cost >= leaf_cost && total <= config.max_leaf_prims_hard {
        return None;
    }

    // Partition in place around the chosen bin boundary.
    let offset = partition_in_place(prims, |p| bin_of(p) < split_bin);
    if offset == 0 || offset == prims.len() {
        None // numerically degenerate; caller falls back to median
    } else {
        Some(offset)
    }
}

/// Stable-enough in-place partition; returns the number of elements
/// satisfying the predicate (which end up in the prefix).
fn partition_in_place<T>(items: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut i = 0;
    for j in 0..items.len() {
        if pred(&items[j]) {
            items.swap(i, j);
            i += 1;
        }
    }
    i
}

/// Every field of every node and the whole permutation, floats by bits:
/// what "the same `Bvh2`" means in the builders' tests.
#[cfg(test)]
pub(crate) fn arena_bits(bvh: &Bvh2) -> (Vec<[u32; 9]>, u32, &[u32]) {
    let nodes = bvh
        .nodes
        .iter()
        .map(|node| {
            let (b, tag, x, y) = match *node {
                Node2::Inner { bounds, left, right } => (bounds, 0, left, right),
                Node2::Leaf { bounds, first, count } => (bounds, 1, first, count),
            };
            let f = [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits);
            [f[0], f[1], f[2], f[3], f[4], f[5], tag, x, y]
        })
        .collect();
    (nodes, bvh.root, &bvh.prim_indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmath::Vec3;
    use rtscene::MaterialId;

    fn grid_triangles(n: usize) -> Vec<Triangle> {
        // n^2 disjoint triangles on a grid in the XZ plane.
        let mut tris = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let o = Vec3::new(i as f32 * 2.0, 0.0, j as f32 * 2.0);
                tris.push(Triangle::new(
                    o,
                    o + Vec3::new(1.0, 0.0, 0.0),
                    o + Vec3::new(0.0, 0.0, 1.0),
                    MaterialId::new(0),
                ));
            }
        }
        tris
    }

    fn leaf_prim_count(bvh: &Bvh2) -> usize {
        bvh.nodes
            .iter()
            .map(|n| match n {
                Node2::Leaf { count, .. } => *count as usize,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn single_triangle_is_one_leaf() {
        let tris = grid_triangles(1);
        let bvh = build(&tris, &BvhConfig::default());
        assert_eq!(bvh.nodes.len(), 1);
        assert!(matches!(bvh.nodes[bvh.root as usize], Node2::Leaf { count: 1, .. }));
    }

    #[test]
    fn every_primitive_lands_in_exactly_one_leaf() {
        let tris = grid_triangles(13);
        let bvh = build(&tris, &BvhConfig::default());
        assert_eq!(leaf_prim_count(&bvh), tris.len());
        let mut seen: Vec<u32> = bvh.prim_indices.clone();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..tris.len() as u32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn parent_bounds_contain_children() {
        let tris = grid_triangles(9);
        let bvh = build(&tris, &BvhConfig::default());
        for node in &bvh.nodes {
            if let Node2::Inner { bounds, left, right } = node {
                assert!(bounds.contains_box(&bvh.nodes[*left as usize].bounds()));
                assert!(bounds.contains_box(&bvh.nodes[*right as usize].bounds()));
            }
        }
    }

    #[test]
    fn leaf_sizes_respect_hard_cap() {
        let tris = grid_triangles(16);
        let cfg = BvhConfig::default();
        let bvh = build(&tris, &cfg);
        for node in &bvh.nodes {
            if let Node2::Leaf { count, .. } = node {
                assert!(*count as usize <= cfg.max_leaf_prims_hard);
            }
        }
    }

    #[test]
    fn coincident_centroids_are_split_by_median() {
        // 64 identical triangles: centroid extent is zero, hard cap forces
        // median splits.
        let t = grid_triangles(1)[0];
        let tris = vec![t; 64];
        let cfg = BvhConfig::default();
        let bvh = build(&tris, &cfg);
        assert_eq!(leaf_prim_count(&bvh), 64);
        for node in &bvh.nodes {
            if let Node2::Leaf { count, .. } = node {
                assert!(*count as usize <= cfg.max_leaf_prims_hard);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero triangles")]
    fn empty_input_panics() {
        let _ = build(&[], &BvhConfig::default());
    }

    #[test]
    #[should_panic(expected = "exceeds 32")]
    fn more_bins_than_the_scratch_arrays_hold_panics() {
        let cfg = BvhConfig { sah_bins: MAX_BINS + 1, ..Default::default() };
        let _ = build(&grid_triangles(2), &cfg);
    }

    #[test]
    fn forked_build_is_the_serial_arena_bit_for_bit() {
        use rtscene::lumibench::{build_scaled, SceneId};
        let cfg = BvhConfig::default();
        let inputs = [
            ("LANDS (balanced)", build_scaled(SceneId::Lands, 8).triangles().to_vec()),
            // Opens with five sliver splits, so the first forks sit deep.
            ("ROBOT (sliver-topped)", build_scaled(SceneId::Robot, 8).triangles().to_vec()),
            ("coincident (median splits)", vec![grid_triangles(1)[0]; 64]),
        ];
        for (name, tris) in &inputs {
            let serial = build_on(1, 0, tris, &cfg);
            assert_eq!(arena_bits(&serial), arena_bits(&build(tris, &cfg)), "{name}: build");
            for threads in [2, 3, 8] {
                // `fork_min` 0: fork at every split that finds a thread idle.
                let forked = build_on(threads, 0, tris, &cfg);
                assert_eq!(arena_bits(&serial), arena_bits(&forked), "{name}: {threads} threads");
            }
        }
    }

    #[test]
    fn sah_separates_two_clusters() {
        // Two distant clusters: the root split must separate them.
        let mut tris = grid_triangles(4);
        for t in grid_triangles(4) {
            tris.push(Triangle::new(
                t.v0 + Vec3::new(1000.0, 0.0, 0.0),
                t.v1 + Vec3::new(1000.0, 0.0, 0.0),
                t.v2 + Vec3::new(1000.0, 0.0, 0.0),
                t.material,
            ));
        }
        let bvh = build(&tris, &BvhConfig::default());
        if let Node2::Inner { left, right, .. } = &bvh.nodes[bvh.root as usize] {
            let lb = bvh.nodes[*left as usize].bounds();
            let rb = bvh.nodes[*right as usize].bounds();
            // The two child boxes must not overlap on x.
            assert!(lb.max.x < rb.min.x || rb.max.x < lb.min.x);
        } else {
            panic!("root of 32 triangles should be an inner node");
        }
    }

    #[test]
    fn partition_in_place_counts() {
        let mut v = vec![5, 1, 4, 2, 3];
        let k = partition_in_place(&mut v, |&x| x <= 2);
        assert_eq!(k, 2);
        assert!(v[..k].iter().all(|&x| x <= 2));
        assert!(v[k..].iter().all(|&x| x > 2));
    }
}
