//! Per-ray traversal state: the two-stack *treelet traversal order*.
//!
//! Both the baseline and virtualized treelet queues traverse with the
//! two-stack scheme of Chou et al. \[8] (§2.3): a **current stack** holding
//! pending nodes inside the ray's current treelet, and a **treelet stack**
//! holding entry nodes of other treelets the ray must visit later. A ray
//! exhausts its current stack before moving to the next treelet, which is
//! what makes grouping rays by treelet meaningful.

use rtbvh::{aabb4_intersect, Bvh, NodeId, PrimHit, TreeletId, WIDE_WIDTH};
use rtmath::Ray;
use rtscene::Triangle;

/// Identifier of a ray within one simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RayId(pub u32);

impl RayId {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pending node on one of the two stacks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    node: NodeId,
    t_enter: f32,
}

/// What the RT unit should do next for a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NextNode {
    /// Fetch and intersect this node.
    Visit(NodeId),
    /// The ray has left the warp's current treelet; it must be queued for
    /// the given treelet (treelet-stationary mode only).
    ExitTreelet(TreeletId),
    /// Traversal is complete.
    Done,
}

/// Cost counters of one node visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisitCost {
    /// Child-box tests performed.
    pub box_tests: u32,
    /// Triangle tests performed.
    pub tri_tests: u32,
}

/// Traversal state of a single ray in the RT unit.
#[derive(Debug, Clone, PartialEq)]
pub struct RayTraversal {
    /// This ray's id (also addresses its 32 B record in the ray region).
    pub id: RayId,
    /// The geometric ray.
    pub ray: Ray,
    current_treelet: TreeletId,
    current_stack: Vec<Pending>,
    treelet_stack: Vec<Pending>,
    /// Closest hit found so far.
    pub best: Option<PrimHit>,
    t_min: f32,
    t_max: f32,
    limit: f32,
    anyhit: bool,
    /// Nodes fetched by this ray (analytics).
    pub nodes_visited: u32,
    /// The leaf node the current best hit came from — what a ray-path
    /// predictor learns from on completion (`None` until a hit lands).
    pub best_node: Option<NodeId>,
}

impl RayTraversal {
    /// Creates traversal state positioned at the BVH root. If the ray
    /// misses the root bounds entirely, the state starts out finished.
    pub fn new(id: RayId, ray: Ray, bvh: &Bvh, t_min: f32, t_max: f32) -> RayTraversal {
        RayTraversal::with_stacks(id, ray, bvh, t_min, t_max, Vec::new(), Vec::new())
    }

    /// Re-aims this traversal at a new ray, as [`RayTraversal::new`] would
    /// create it, but keeping the stacks' storage: the simulator pools
    /// finished walks and resets them for fresh rays, so steady-state
    /// cycling never allocates — the stack capacities warm up once and
    /// are reused for the rest of the run.
    pub fn reset(&mut self, id: RayId, ray: Ray, bvh: &Bvh, t_min: f32, t_max: f32) {
        let mut current = std::mem::take(&mut self.current_stack);
        let mut treelet = std::mem::take(&mut self.treelet_stack);
        current.clear();
        treelet.clear();
        *self = RayTraversal::with_stacks(id, ray, bvh, t_min, t_max, current, treelet);
    }

    /// [`RayTraversal::new`] on the given (empty) stacks.
    fn with_stacks(
        id: RayId,
        ray: Ray,
        bvh: &Bvh,
        t_min: f32,
        t_max: f32,
        current_stack: Vec<Pending>,
        treelet_stack: Vec<Pending>,
    ) -> RayTraversal {
        let root = bvh.root();
        let mut state = RayTraversal {
            id,
            ray,
            current_treelet: bvh.treelet_of(root),
            current_stack,
            treelet_stack,
            best: None,
            t_min,
            t_max,
            limit: t_max,
            anyhit: false,
            nodes_visited: 0,
            best_node: None,
        };
        if let Some(t) = bvh.root_bounds().intersect(&ray, t_min, t_max) {
            state.current_stack.push(Pending { node: root, t_enter: t });
        }
        state
    }

    /// Schedules a predicted node (a leaf, for ray-path prediction) to be
    /// visited *before* the pending traversal work, entering at `t_min` so
    /// pruning never drops it. Verified speculation: the early leaf visit
    /// can only tighten the search limit sooner — the triangle tests and
    /// the equal-t lowest-prim tie-break are interval-wide, so the final
    /// (prim, t) is bit-equal to the unspeculated traversal.
    pub fn speculate(&mut self, node: NodeId) {
        self.current_stack.push(Pending { node, t_enter: self.t_min });
    }

    /// What [`speculate`](Self::speculate) must never do: *trusts* the
    /// prediction by discarding all pending traversal work and visiting
    /// only `node`, which is unsound on a misprediction.
    #[cfg(test)]
    fn speculate_trusted(&mut self, node: NodeId) {
        self.current_stack.clear();
        self.treelet_stack.clear();
        self.current_stack.push(Pending { node, t_enter: self.t_min });
    }

    /// Switches this ray to anyhit (occlusion) semantics: traversal stops
    /// at the first accepted intersection (§2.1.2). Call before stepping.
    pub fn set_anyhit(&mut self) {
        self.anyhit = true;
    }

    /// `true` once both stacks are exhausted.
    pub fn is_done(&self) -> bool {
        self.current_stack.is_empty() && self.treelet_stack.is_empty()
    }

    /// The treelet this ray needs next: its current treelet while the
    /// current stack holds work, otherwise the treelet of the top pending
    /// entry of the treelet stack. `None` when finished. Non-destructive —
    /// used for divergence checks and queue insertion.
    pub fn pending_treelet(&mut self, bvh: &Bvh) -> Option<TreeletId> {
        self.prune();
        if !self.current_stack.is_empty() {
            return Some(self.current_treelet);
        }
        self.treelet_stack.last().map(|e| bvh.treelet_of(e.node))
    }

    /// Drops stack entries that can no longer beat the best hit.
    fn prune(&mut self) {
        while self.current_stack.last().is_some_and(|e| e.t_enter > self.limit) {
            self.current_stack.pop();
        }
        while self.treelet_stack.last().is_some_and(|e| e.t_enter > self.limit) {
            self.treelet_stack.pop();
        }
    }

    /// Pops the next node to visit.
    ///
    /// With `restrict_to = Some(t)` (treelet-stationary mode) the ray only
    /// advances within treelet `t` and reports [`NextNode::ExitTreelet`]
    /// when its next work lies elsewhere. With `None` the ray freely moves
    /// to the next treelet on its treelet stack (ray-stationary modes).
    pub fn next_node(&mut self, bvh: &Bvh, restrict_to: Option<TreeletId>) -> NextNode {
        loop {
            self.prune();
            if let Some(e) = self.current_stack.pop() {
                return NextNode::Visit(e.node);
            }
            // Current treelet exhausted: consult the treelet stack.
            let Some(top) = self.treelet_stack.last().copied() else {
                return NextNode::Done;
            };
            let next_treelet = bvh.treelet_of(top.node);
            match restrict_to {
                Some(t) if next_treelet != t => return NextNode::ExitTreelet(next_treelet),
                _ => self.enter_treelet(bvh, next_treelet),
            }
        }
    }

    /// Moves every pending entry of `treelet` from the treelet stack onto
    /// the current stack and makes it the ray's current treelet. Called
    /// when a queued ray is activated for its treelet (or when the ray
    /// moves on by itself in ray-stationary mode).
    pub fn enter_treelet(&mut self, bvh: &Bvh, treelet: TreeletId) {
        self.current_treelet = treelet;
        let mut i = 0;
        while i < self.treelet_stack.len() {
            if bvh.treelet_of(self.treelet_stack[i].node) == treelet {
                let e = self.treelet_stack.remove(i);
                self.current_stack.push(e);
            } else {
                i += 1;
            }
        }
    }

    /// Fetch-independent part of visiting `node`: intersects children (or
    /// leaf triangles), updates the hit record and pushes survivors onto
    /// the appropriate stacks. Returns the test counts for statistics.
    pub fn visit(&mut self, bvh: &Bvh, triangles: &[Triangle], node: NodeId) -> VisitCost {
        self.nodes_visited += 1;
        let mut cost = VisitCost::default();
        let n4 = *bvh.node(node);
        if n4.is_leaf() {
            for &prim in bvh.leaf_prims(n4.first, n4.count) {
                cost.tri_tests += 1;
                // Test against the full search interval and compare
                // (t, prim) lexicographically: at equal t the lowest
                // prim id wins, so the winner is independent of the
                // policy-dependent node visit order (the differential
                // conformance harness relies on this).
                if let Some(t) =
                    triangles[prim as usize].intersect(&self.ray, self.t_min, self.t_max)
                {
                    let better = match self.best {
                        None => true,
                        Some(b) => t < b.t || (t == b.t && prim < b.prim),
                    };
                    if better {
                        self.limit = t;
                        self.best = Some(PrimHit { t, prim });
                        self.best_node = Some(node);
                        if self.anyhit {
                            // Occlusion query: the first accepted hit
                            // ends traversal immediately.
                            self.current_stack.clear();
                            self.treelet_stack.clear();
                            break;
                        }
                    }
                }
            }
        } else {
            // All four lanes at once; empty lanes are masked inside the
            // kernel. The scratch is a fixed array with a stable insertion
            // sort (far-to-near so the nearest child pops first) — no heap
            // traffic per visit.
            cost.box_tests += n4.child_count() as u32;
            let ts = aabb4_intersect(&n4, &self.ray, self.t_min, self.limit);
            let mut hits = [Pending { node: NodeId(0), t_enter: 0.0 }; WIDE_WIDTH];
            let mut n = 0;
            for (lane, slot) in ts.iter().enumerate() {
                if let Some(t) = *slot {
                    hits[n] = Pending { node: NodeId(n4.child[lane]), t_enter: t };
                    n += 1;
                }
            }
            for i in 1..n {
                let key = hits[i];
                let mut j = i;
                while j > 0 && hits[j - 1].t_enter.total_cmp(&key.t_enter).is_lt() {
                    hits[j] = hits[j - 1];
                    j -= 1;
                }
                hits[j] = key;
            }
            for e in &hits[..n] {
                if bvh.treelet_of(e.node) == self.current_treelet {
                    self.current_stack.push(*e);
                } else {
                    self.treelet_stack.push(*e);
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbvh::BvhConfig;
    use rtmath::Vec3;
    use rtscene::lumibench::{self, SceneId};

    fn setup() -> (Vec<Triangle>, Bvh) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let tris = scene.triangles().to_vec();
        // Small treelets so rays genuinely cross treelet boundaries.
        let bvh = Bvh::build(&tris, &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        (tris, bvh)
    }

    /// Drives a single ray to completion in unrestricted mode.
    fn run_free(tris: &[Triangle], bvh: &Bvh, ray: Ray) -> (Option<PrimHit>, u32) {
        let mut r = RayTraversal::new(RayId(0), ray, bvh, 1e-3, f32::INFINITY);
        loop {
            match r.next_node(bvh, None) {
                NextNode::Visit(n) => {
                    r.visit(bvh, tris, n);
                }
                NextNode::Done => return (r.best, r.nodes_visited),
                NextNode::ExitTreelet(_) => unreachable!("unrestricted mode never exits"),
            }
        }
    }

    #[test]
    fn two_stack_traversal_finds_same_hits_as_reference() {
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        for py in (0..48).step_by(5) {
            for px in (0..48).step_by(5) {
                let ray = scene.camera().primary_ray(px, py, 48, 48, None);
                let (ours, _) = run_free(&tris, &bvh, ray);
                let reference = bvh.intersect(&tris, &ray, 1e-3, f32::INFINITY);
                match (ours, reference) {
                    (Some(a), Some(b)) => assert!((a.t - b.t).abs() < 1e-3),
                    (None, None) => {}
                    (a, b) => panic!("disagreement at ({px},{py}): {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn restricted_traversal_exits_at_treelet_boundary() {
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let ray = scene.camera().primary_ray(24, 24, 48, 48, None);
        let mut r = RayTraversal::new(RayId(1), ray, &bvh, 1e-3, f32::INFINITY);
        let home = r.pending_treelet(&bvh).expect("ray starts with work");
        let mut exited = None;
        loop {
            match r.next_node(&bvh, Some(home)) {
                NextNode::Visit(n) => {
                    assert_eq!(bvh.treelet_of(n), home, "restricted visits stay in the treelet");
                    r.visit(&bvh, &tris, n);
                }
                NextNode::ExitTreelet(t) => {
                    exited = Some(t);
                    break;
                }
                NextNode::Done => break,
            }
        }
        // The bunny BVH with 1 KB treelets forces at least one boundary
        // crossing for a center ray.
        let t = exited.expect("center ray must cross treelets");
        assert_ne!(t, home);
        // After entering the new treelet, traversal resumes there.
        r.enter_treelet(&bvh, t);
        match r.next_node(&bvh, Some(t)) {
            NextNode::Visit(n) => assert_eq!(bvh.treelet_of(n), t),
            other => panic!("expected a visit in the new treelet, got {other:?}"),
        }
    }

    #[test]
    fn restricted_and_free_traversal_agree_on_hits() {
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        for i in 0..40 {
            let ray = scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None);
            let (free_hit, _) = run_free(&tris, &bvh, ray);
            // Simulate queue-based traversal: always service the ray's
            // pending treelet next.
            let mut r = RayTraversal::new(RayId(2), ray, &bvh, 1e-3, f32::INFINITY);
            while let Some(t) = r.pending_treelet(&bvh) {
                r.enter_treelet(&bvh, t);
                while let NextNode::Visit(n) = r.next_node(&bvh, Some(t)) {
                    r.visit(&bvh, &tris, n);
                }
            }
            assert_eq!(free_hit.map(|h| h.prim), r.best.map(|h| h.prim), "ray {i}");
        }
    }

    #[test]
    fn missing_ray_is_done_immediately() {
        let (_, bvh) = setup();
        let ray = Ray::new(Vec3::new(1000.0, 1000.0, 1000.0), Vec3::new(1.0, 0.0, 0.0));
        let mut r = RayTraversal::new(RayId(3), ray, &bvh, 1e-3, f32::INFINITY);
        assert!(r.is_done());
        assert_eq!(r.next_node(&bvh, None), NextNode::Done);
        assert_eq!(r.pending_treelet(&bvh), None);
        assert_eq!(r.nodes_visited, 0);
    }

    #[test]
    fn pruning_reduces_visits() {
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let ray = scene.camera().primary_ray(24, 24, 48, 48, None);
        let (hit, visited) = run_free(&tris, &bvh, ray);
        assert!(hit.is_some());
        assert!(
            (visited as usize) < bvh.nodes().len() / 2,
            "visited {visited} of {} nodes",
            bvh.nodes().len()
        );
    }

    #[test]
    fn speculated_leaf_keeps_results_bit_equal() {
        // Seed every ray with the leaf its own unspeculated traversal hits:
        // a correct prediction must not change a single result bit, only
        // (possibly) the visit count.
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let mut checked = 0;
        for i in 0..60 {
            let ray = scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None);
            let (plain, plain_visits) = run_free(&tris, &bvh, ray);
            let mut r = RayTraversal::new(RayId(10), ray, &bvh, 1e-3, f32::INFINITY);
            let mut probe = RayTraversal::new(RayId(11), ray, &bvh, 1e-3, f32::INFINITY);
            while let NextNode::Visit(n) = probe.next_node(&bvh, None) {
                probe.visit(&bvh, &tris, n);
            }
            let Some(leaf) = probe.best_node else {
                continue;
            };
            r.speculate(leaf);
            while let NextNode::Visit(n) = r.next_node(&bvh, None) {
                r.visit(&bvh, &tris, n);
            }
            assert_eq!(
                r.best.map(|h| (h.prim, h.t.to_bits())),
                plain.map(|h| (h.prim, h.t.to_bits())),
                "ray {i}"
            );
            // Early pruning never costs extra interior fetches beyond the
            // one speculated leaf visit.
            assert!(r.nodes_visited <= plain_visits + 1, "ray {i}");
            checked += 1;
        }
        assert!(checked > 20, "most camera rays hit the bunny");
    }

    #[test]
    fn trusted_speculation_of_a_wrong_leaf_diverges() {
        // Trusting a misprediction abandons the real traversal, so some
        // ray must produce a different result: speculation is sound only
        // because the pending work stays on the stack.
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let wrong_leaf = bvh
            .nodes()
            .iter()
            .enumerate()
            .find(|(_, n)| n.is_leaf())
            .map(|(i, _)| NodeId(i as u32))
            .unwrap();
        let mut diverged = false;
        for i in 0..40 {
            let ray = scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None);
            let (plain, _) = run_free(&tris, &bvh, ray);
            let mut r = RayTraversal::new(RayId(12), ray, &bvh, 1e-3, f32::INFINITY);
            if r.is_done() {
                continue;
            }
            r.speculate_trusted(wrong_leaf);
            while let NextNode::Visit(n) = r.next_node(&bvh, None) {
                r.visit(&bvh, &tris, n);
            }
            diverged |=
                r.best.map(|h| (h.prim, h.t.to_bits())) != plain.map(|h| (h.prim, h.t.to_bits()));
        }
        assert!(diverged, "trusting one fixed leaf for every ray must break some hit");
    }

    #[test]
    fn visit_cost_counts_tests() {
        let (tris, bvh) = setup();
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let ray = scene.camera().primary_ray(24, 24, 48, 48, None);
        let mut r = RayTraversal::new(RayId(4), ray, &bvh, 1e-3, f32::INFINITY);
        let mut boxes = 0;
        let mut tri_tests = 0;
        while let NextNode::Visit(n) = r.next_node(&bvh, None) {
            let c = r.visit(&bvh, &tris, n);
            boxes += c.box_tests;
            tri_tests += c.tri_tests;
        }
        assert!(boxes > 0);
        assert!(tri_tests > 0);
    }
}
