use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rtmath::{Aabb, Ray};
use rtscene::Triangle;

use crate::qnode::{self, QBvh4Node};
use crate::treelet::{self, TreeletPartition};
use crate::wide::{self, aabb4_intersect, Bvh4Node, WIDE_WIDTH};
use crate::{build2, lbvh, BvhConfig, NodeAddr, NodeFormat, NodeId, TreeletId};

/// Which construction algorithm [`WideTree::build`] (and so
/// [`Bvh::build_with`]) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Builder {
    /// Binned surface-area-heuristic sweep (the default; what the paper's
    /// Embree toolchain uses).
    #[default]
    BinnedSah,
    /// Morton-ordered linear BVH: much faster to build, lower tree
    /// quality. See [`lbvh`].
    Lbvh,
}

/// A hit against a primitive found by BVH traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimHit {
    /// Hit distance along the ray.
    pub t: f32,
    /// Index of the hit triangle in the original scene array.
    pub prim: u32,
}

/// Structural statistics of a built BVH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhStats {
    /// Total node count (interior + leaf).
    pub node_count: usize,
    /// Leaf node count.
    pub leaf_count: usize,
    /// Maximum tree depth (root = 1).
    pub max_depth: usize,
    /// Total size of the flat memory image in bytes (the paper's Table 2
    /// "BVH Size" column).
    pub total_bytes: u64,
    /// Number of treelets.
    pub treelet_count: usize,
    /// Mean treelet byte size.
    pub mean_treelet_bytes: f32,
}

/// Invariant violations detected by [`Bvh::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// A primitive appears in zero or multiple leaves.
    PrimitiveCoverage {
        /// The offending primitive index.
        prim: u32,
        /// How many leaves reference it.
        occurrences: usize,
    },
    /// A child's bounds are not contained by its parent's.
    ChildBoundsEscape {
        /// The parent node.
        parent: NodeId,
        /// The child node.
        child: NodeId,
    },
    /// Two node records overlap in the byte layout.
    LayoutOverlap {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
    },
    /// A multi-node treelet exceeds the byte budget.
    TreeletOverBudget {
        /// The offending treelet.
        treelet: TreeletId,
        /// Its byte size.
        bytes: u32,
    },
    /// Nodes of one treelet are not contiguous in the byte layout.
    TreeletNotContiguous {
        /// The offending treelet.
        treelet: TreeletId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::PrimitiveCoverage { prim, occurrences } => {
                write!(f, "primitive {prim} appears in {occurrences} leaves (expected 1)")
            }
            ValidateError::ChildBoundsEscape { parent, child } => {
                write!(f, "bounds of {child} escape parent {parent}")
            }
            ValidateError::LayoutOverlap { a, b } => {
                write!(f, "layout records of {a} and {b} overlap")
            }
            ValidateError::TreeletOverBudget { treelet, bytes } => {
                write!(f, "{treelet} holds {bytes} bytes, over budget")
            }
            ValidateError::TreeletNotContiguous { treelet } => {
                write!(f, "{treelet} is not contiguous in the byte layout")
            }
        }
    }
}

impl Error for ValidateError {}

/// The tree half of a [`Bvh`]: a BVH2 collapsed into 4-wide nodes, before
/// any memory layout. Traversal reads nothing more, so a path tracer
/// traces on it directly; [`Bvh::lay_out`] adds the node format, the
/// treelet partition and the byte addresses. The layouts of one scene
/// (node formats, treelet budgets) are layouts of one tree.
///
/// A [`Bvh`] dereferences to its tree: under [`NodeFormat::Wide`] the
/// tree it was laid out from, under [`NodeFormat::Quantized`] the same
/// topology over the conservative decodes of its quantized records.
///
/// # Example
///
/// ```
/// use rtbvh::{Builder, Bvh, BvhConfig, NodeFormat, WideTree};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let tree = WideTree::build(scene.triangles(), &BvhConfig::default(), Builder::BinnedSah);
/// let ray = scene.camera().primary_ray(32, 32, 64, 64, None);
/// let hit = tree.intersect(scene.triangles(), &ray, 1e-3, f32::INFINITY);
/// assert!(hit.is_some()); // the statue fills the view center
///
/// // Two layouts of the one tree.
/// let tree = std::sync::Arc::new(tree);
/// let wide = Bvh::lay_out(tree.clone(), &BvhConfig::default());
/// let quantized = BvhConfig { node_format: NodeFormat::Quantized, ..Default::default() };
/// let quantized = Bvh::lay_out(tree.clone(), &quantized);
/// assert!(std::ptr::eq(wide.nodes(), tree.nodes()));
/// assert!(quantized.total_bytes() < wide.total_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct WideTree {
    nodes: Vec<Bvh4Node>,
    prim_indices: Vec<u32>,
    root: NodeId,
    root_bounds: Aabb,
}

impl WideTree {
    /// Builds the tree over `triangles` with `builder`. Reads the SAH and
    /// leaf fields of `config` — `sah_bins`, `max_leaf_prims`,
    /// `max_leaf_prims_hard`, `traversal_cost` — and no other.
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build(triangles: &[Triangle], config: &BvhConfig, builder: Builder) -> WideTree {
        prof::add(prof::Counter::BvhBuilds, 1);
        let b2 = {
            let _sah = prof::span("binary");
            match builder {
                Builder::BinnedSah => build2::build(triangles, config),
                Builder::Lbvh => lbvh::build(triangles, config),
            }
        };
        let (nodes, root) = {
            let _collapse = prof::span("collapse");
            wide::collapse(&b2)
        };
        WideTree::new(nodes, b2.prim_indices, root)
    }

    fn new(nodes: Vec<Bvh4Node>, prim_indices: Vec<u32>, root: NodeId) -> WideTree {
        let root_bounds = nodes[root.index()].bounds();
        WideTree { nodes, prim_indices, root, root_bounds }
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// World bounds of the whole tree, cached at build/refit time (the
    /// hardware keeps the world box in registers, so the per-ray root
    /// test does not fetch a node record).
    #[inline]
    pub fn root_bounds(&self) -> Aabb {
        self.root_bounds
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Bvh4Node {
        &self.nodes[id.index()]
    }

    /// All nodes (index = `NodeId.0`). In a BVH laid out under
    /// [`NodeFormat::Quantized`] these are the conservative decodes of
    /// [`Bvh::qnodes`].
    #[inline]
    pub fn nodes(&self) -> &[Bvh4Node] {
        &self.nodes
    }

    /// The primitive indices of a leaf range.
    #[inline]
    pub fn leaf_prims(&self, first: u32, count: u32) -> &[u32] {
        &self.prim_indices[first as usize..(first + count) as usize]
    }

    /// Closest-hit traversal (CPU reference implementation).
    ///
    /// Children are visited front to back and subtrees behind the current
    /// closest hit are pruned — the same order the simulated RT unit uses,
    /// so the simulator's functional results can be checked against this.
    pub fn intersect(
        &self,
        triangles: &[Triangle],
        ray: &Ray,
        t_min: f32,
        t_max: f32,
    ) -> Option<PrimHit> {
        self.traverse(triangles, ray, t_min, t_max, |_| {})
    }

    /// Like [`WideTree::intersect`], additionally invoking `visit` for every node
    /// whose record is fetched. Used to record per-ray node-access traces
    /// for the paper's §2.4 analytical model.
    pub fn traverse(
        &self,
        triangles: &[Triangle],
        ray: &Ray,
        t_min: f32,
        t_max: f32,
        mut visit: impl FnMut(NodeId),
    ) -> Option<PrimHit> {
        // The root's own bounds are tested before any fetch (hardware keeps
        // the world box in registers).
        self.root_bounds.intersect(ray, t_min, t_max)?;
        let mut best: Option<PrimHit> = None;
        let mut limit = t_max;
        let mut stack = TraversalStack::new((self.root, t_min));
        while let Some((id, t_enter)) = stack.pop() {
            if t_enter > limit {
                continue;
            }
            visit(id);
            let node = self.node(id);
            if node.is_leaf() {
                for &prim in self.leaf_prims(node.first, node.count) {
                    // Test against the full interval and break equal-t
                    // ties by lowest prim id, the same rule the
                    // simulator's RayTraversal::visit applies, so the
                    // reference result is traversal-order independent.
                    if let Some(t) = triangles[prim as usize].intersect(ray, t_min, t_max) {
                        let better = match best {
                            None => true,
                            Some(b) => t < b.t || (t == b.t && prim < b.prim),
                        };
                        if better {
                            limit = t;
                            best = Some(PrimHit { t, prim });
                        }
                    }
                }
            } else {
                // Test all four lanes at once, then push the survivors
                // far-to-near so the nearest pops first. The scratch is a
                // fixed-size array with a stable insertion sort — no heap
                // traffic per visit.
                let ts = aabb4_intersect(node, ray, t_min, limit);
                let mut hits = [(NodeId(0), 0.0f32); WIDE_WIDTH];
                let mut n = 0;
                for (lane, slot) in ts.iter().enumerate() {
                    if let Some(t) = *slot {
                        hits[n] = (NodeId(node.child[lane]), t);
                        n += 1;
                    }
                }
                for i in 1..n {
                    let key = hits[i];
                    let mut j = i;
                    while j > 0 && hits[j - 1].1.total_cmp(&key.1).is_lt() {
                        hits[j] = hits[j - 1];
                        j -= 1;
                    }
                    hits[j] = key;
                }
                for &hit in &hits[..n] {
                    stack.push(hit);
                }
            }
        }
        best
    }

    /// Any-hit query: `true` if something is hit in `(t_min, t_max)`.
    /// Used for shadow rays; terminates at the first intersection.
    pub fn occluded(&self, triangles: &[Triangle], ray: &Ray, t_min: f32, t_max: f32) -> bool {
        if self.root_bounds.intersect(ray, t_min, t_max).is_none() {
            return false;
        }
        let mut stack = TraversalStack::new(self.root);
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.is_leaf() {
                for &prim in self.leaf_prims(node.first, node.count) {
                    if triangles[prim as usize].intersect(ray, t_min, t_max).is_some() {
                        return true;
                    }
                }
            } else {
                let ts = aabb4_intersect(node, ray, t_min, t_max);
                for (lane, slot) in ts.iter().enumerate() {
                    if slot.is_some() {
                        stack.push(NodeId(node.child[lane]));
                    }
                }
            }
        }
        false
    }
}

/// A built 4-wide BVH with treelet partition and byte-addressed layout:
/// a [`WideTree`] (which it dereferences to, for traversal) laid out in
/// memory.
///
/// See the [crate docs](crate) for the construction pipeline. All accessors
/// are cheap; the structure is immutable after [`Bvh::build`].
///
/// # Example
///
/// ```
/// use rtbvh::{Bvh, BvhConfig};
/// use rtmath::{Ray, Vec3};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let ray = scene.camera().primary_ray(32, 32, 64, 64, None);
/// let hit = bvh.intersect(scene.triangles(), &ray, 1e-3, f32::INFINITY);
/// assert!(hit.is_some()); // the statue fills the view center
/// ```
#[derive(Debug, Clone)]
pub struct Bvh {
    /// The traversal nodes: the tree laid out under [`NodeFormat::Wide`],
    /// the conservative decodes of `qnodes` under
    /// [`NodeFormat::Quantized`].
    tree: Arc<WideTree>,
    /// Quantized records under [`NodeFormat::Quantized`] (empty otherwise).
    qnodes: Vec<QBvh4Node>,
    addrs: Vec<NodeAddr>,
    partition: TreeletPartition,
    treelet_extents: Vec<(u64, u64)>,
    config: BvhConfig,
    total_bytes: u64,
}

impl Deref for Bvh {
    type Target = WideTree;

    #[inline]
    fn deref(&self) -> &WideTree {
        &self.tree
    }
}

impl Bvh {
    /// Builds the BVH over `triangles`.
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build(triangles: &[Triangle], config: &BvhConfig) -> Bvh {
        Bvh::build_with(triangles, config, Builder::BinnedSah)
    }

    /// Builds the BVH with an explicit construction algorithm: the
    /// [`WideTree`], then [`Bvh::lay_out`] over it.
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build_with(triangles: &[Triangle], config: &BvhConfig, builder: Builder) -> Bvh {
        let _build = prof::span("bvh/build");
        Bvh::lay_out(WideTree::build(triangles, config, builder), config)
    }

    /// Lays `tree` out in memory: the node format, the treelet partition
    /// and every node's byte address. Reads `node_format`,
    /// `treelet_bytes` and `layout` of `config`; the other fields are the
    /// ones `tree` was built with. Under [`NodeFormat::Wide`] the BVH
    /// shares the tree's nodes, so laying one tree out under several
    /// treelet budgets copies no node.
    pub fn lay_out(tree: impl Into<Arc<WideTree>>, config: &BvhConfig) -> Bvh {
        let tree = tree.into();
        // Under the quantized format, encode the arena and make the
        // *conservative decodes* the traversal nodes: every consumer
        // (oracle, simulator, occlusion, refit) then sees bit-identical
        // superset bounds, so the conformance contract holds by
        // construction while the byte layout shrinks to the quantized
        // record size.
        let (tree, qnodes) = match config.node_format {
            NodeFormat::Wide => (tree, Vec::new()),
            NodeFormat::Quantized => {
                let _quant = prof::span("quantize");
                let qnodes = qnode::quantize(&tree.nodes, tree.root);
                let decoded = qnodes.iter().map(QBvh4Node::decode).collect();
                let root = tree.root;
                // The primitive order is the tree's: moved out of a tree
                // nobody else holds, copied out of a shared one.
                let prim_indices = Arc::try_unwrap(tree)
                    .map_or_else(|shared| shared.prim_indices.clone(), |own| own.prim_indices);
                (Arc::new(WideTree::new(decoded, prim_indices, root)), qnodes)
            }
        };
        let nodes = &tree.nodes;
        let layout = config.effective_layout();
        let partition = {
            let _treelets = prof::span("treelets");
            treelet::partition(nodes, tree.root, config.treelet_bytes, &layout)
        };

        // Byte layout: treelet by treelet so each treelet is a contiguous
        // range ("treelets can be packed together in memory", §6.5).
        let mut addrs = vec![NodeAddr { offset: 0, size: 0 }; nodes.len()];
        let mut treelet_extents = Vec::with_capacity(partition.len());
        let mut offset = 0u64;
        for t in partition.treelets() {
            let start = offset;
            for n in &t.nodes {
                let size = nodes[n.index()].byte_size(&layout);
                addrs[n.index()] = NodeAddr { offset, size };
                offset += size as u64;
            }
            treelet_extents.push((start, offset));
        }

        Bvh {
            tree,
            qnodes,
            addrs,
            partition,
            treelet_extents,
            config: *config,
            total_bytes: offset,
        }
    }

    /// The quantized node records; empty unless the BVH was built with
    /// [`NodeFormat::Quantized`].
    #[inline]
    pub fn qnodes(&self) -> &[QBvh4Node] {
        &self.qnodes
    }

    /// Byte placement of a node.
    #[inline]
    pub fn addr(&self, id: NodeId) -> NodeAddr {
        self.addrs[id.index()]
    }

    /// Treelet containing a node.
    #[inline]
    pub fn treelet_of(&self, id: NodeId) -> TreeletId {
        self.partition.treelet_of(id)
    }

    /// The treelet partition.
    #[inline]
    pub fn partition(&self) -> &TreeletPartition {
        &self.partition
    }

    /// Byte range `[start, end)` of a treelet in the flat memory image.
    #[inline]
    pub fn treelet_extent(&self, id: TreeletId) -> (u64, u64) {
        self.treelet_extents[id.index()]
    }

    /// Total byte size of the BVH memory image.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Build configuration this BVH was constructed with.
    #[inline]
    pub fn config(&self) -> &BvhConfig {
        &self.config
    }

    /// Computes structural statistics.
    pub fn stats(&self) -> BvhStats {
        let leaf_count = self.nodes.iter().filter(|n| n.is_leaf()).count();
        let mut max_depth = 0;
        let mut stack = vec![(self.root, 1usize)];
        while let Some((id, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for c in self.node(id).children() {
                stack.push((c, d + 1));
            }
        }
        let tl = self.partition.treelets();
        BvhStats {
            node_count: self.nodes.len(),
            leaf_count,
            max_depth,
            total_bytes: self.total_bytes,
            treelet_count: tl.len(),
            mean_treelet_bytes: tl.iter().map(|t| t.bytes as f32).sum::<f32>()
                / tl.len().max(1) as f32,
        }
    }

    /// Refits all node bounds to updated triangle positions, keeping the
    /// topology, treelet partition and byte layout unchanged — the standard
    /// per-frame update for animated geometry (and how a game engine would
    /// keep VTQ's treelet tables valid across frames without a rebuild).
    ///
    /// Quality degrades as geometry deforms away from the built topology;
    /// rebuild when `sah_cost` drifts.
    ///
    /// # Example
    ///
    /// ```
    /// use rtbvh::{Bvh, BvhConfig};
    /// use rtmath::Vec3;
    /// use rtscene::lumibench::{self, SceneId};
    ///
    /// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
    /// let mut tris = scene.triangles().to_vec();
    /// let mut bvh = Bvh::build(&tris, &BvhConfig::default());
    /// // Move everything up by one unit and refit.
    /// for t in &mut tris {
    ///     let up = Vec3::new(0.0, 1.0, 0.0);
    ///     *t = rtscene::Triangle::new(t.v0 + up, t.v1 + up, t.v2 + up, t.material);
    /// }
    /// bvh.refit(&tris);
    /// assert!(bvh.validate(&tris).is_ok());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `triangles` has a different length than the build input.
    pub fn refit(&mut self, triangles: &[Triangle]) {
        assert_eq!(
            triangles.len(),
            self.prim_indices.len(),
            "refit requires the same primitive count as the build"
        );
        // Children have larger arena indices than parents is NOT guaranteed
        // by the collapse order, so refit by explicit post-order traversal.
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            stack.push((id, true));
            for c in self.node(id).children() {
                stack.push((c, false));
            }
        }
        // A tree other BVHs share (other layouts of it) is copied first.
        let tree = Arc::make_mut(&mut self.tree);
        for id in order {
            let node = tree.nodes[id.index()];
            if node.is_leaf() {
                let mut b = Aabb::EMPTY;
                let range = node.first as usize..(node.first + node.count) as usize;
                for &p in &tree.prim_indices[range] {
                    b = b.union(&triangles[p as usize].bounds());
                }
                tree.nodes[id.index()].set_lane_bounds(0, b);
            } else {
                // Children were already refit (post-order): refresh each
                // occupied lane's slab from its child's derived bounds.
                let mut fresh = [Aabb::EMPTY; WIDE_WIDTH];
                for (lane, slot) in fresh.iter_mut().enumerate() {
                    if let Some(c) = node.lane_child(lane) {
                        *slot = tree.node(c).bounds();
                    }
                }
                for (lane, b) in fresh.iter().enumerate() {
                    if node.lane_child(lane).is_some() {
                        tree.nodes[id.index()].set_lane_bounds(lane, *b);
                    }
                }
            }
        }
        // Re-quantize so the stored records track the moved geometry and
        // the arena stays their conservative decode (topology, layout and
        // treelets are untouched — only bounds changed).
        if self.config.node_format == NodeFormat::Quantized {
            self.qnodes = qnode::quantize(&tree.nodes, tree.root);
            for (n, q) in tree.nodes.iter_mut().zip(&self.qnodes) {
                *n = q.decode();
            }
        }
        tree.root_bounds = tree.nodes[tree.root.index()].bounds();
    }

    /// Surface-area-heuristic cost of the tree: expected traversal work
    /// for a random ray, Σ over nodes of (node area / root area) weighted
    /// by the node's work (child box tests for interiors, triangle tests
    /// for leaves). A standard build-quality metric — lower is better.
    ///
    /// # Example
    ///
    /// ```
    /// use rtbvh::{Builder, Bvh, BvhConfig};
    /// use rtscene::lumibench::{self, SceneId};
    ///
    /// let scene = lumibench::build_scaled(SceneId::Crnvl, 32);
    /// let sah = Bvh::build(scene.triangles(), &BvhConfig::default());
    /// let lbvh = Bvh::build_with(scene.triangles(), &BvhConfig::default(), Builder::Lbvh);
    /// assert!(sah.sah_cost() <= lbvh.sah_cost()); // SAH optimizes this metric
    /// ```
    pub fn sah_cost(&self) -> f64 {
        let root_area = self.node(self.root).bounds().surface_area() as f64;
        if root_area <= 0.0 {
            return 0.0;
        }
        let mut cost = 0.0;
        for n in &self.nodes {
            let weight = n.bounds().surface_area() as f64 / root_area;
            let work = if n.is_leaf() { n.count as f64 } else { n.child_count() as f64 };
            cost += weight * work;
        }
        cost
    }
    /// Checks all structural invariants; see [`ValidateError`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, triangles: &[Triangle]) -> Result<(), ValidateError> {
        // 1. Primitive coverage.
        let mut occurrences = vec![0usize; triangles.len()];
        for n in &self.nodes {
            if n.is_leaf() {
                for &p in self.leaf_prims(n.first, n.count) {
                    occurrences[p as usize] += 1;
                }
            }
        }
        for (prim, &occ) in occurrences.iter().enumerate() {
            if occ != 1 {
                return Err(ValidateError::PrimitiveCoverage {
                    prim: prim as u32,
                    occurrences: occ,
                });
            }
        }

        // 2. Child bounds containment.
        for (i, n) in self.nodes.iter().enumerate() {
            let bounds = n.bounds();
            for c in n.children() {
                if !bounds.expanded(1e-4).contains_box(&self.node(c).bounds()) {
                    return Err(ValidateError::ChildBoundsEscape {
                        parent: NodeId(i as u32),
                        child: c,
                    });
                }
            }
        }

        // 3. Layout: sort by offset and check adjacency of records.
        let mut order: Vec<NodeId> = (0..self.nodes.len() as u32).map(NodeId).collect();
        order.sort_by_key(|n| self.addr(*n).offset);
        for w in order.windows(2) {
            if self.addr(w[0]).end() > self.addr(w[1]).offset {
                return Err(ValidateError::LayoutOverlap { a: w[0], b: w[1] });
            }
        }

        // 4. Treelet budgets and contiguity.
        for (i, t) in self.partition.treelets().iter().enumerate() {
            let tid = TreeletId(i as u32);
            if t.nodes.len() > 1 && t.bytes > self.config.treelet_bytes {
                return Err(ValidateError::TreeletOverBudget { treelet: tid, bytes: t.bytes });
            }
            let (start, end) = self.treelet_extents[i];
            let member_bytes: u64 = t.nodes.iter().map(|n| self.addr(*n).size as u64).sum();
            let in_range =
                t.nodes.iter().all(|n| self.addr(*n).offset >= start && self.addr(*n).end() <= end);
            if !in_range || member_bytes != end - start {
                return Err(ValidateError::TreeletNotContiguous { treelet: tid });
            }
        }

        Ok(())
    }
}

/// Entries a [`TraversalStack`] holds without touching the heap. A visit
/// pops one entry and pushes at most [`WIDE_WIDTH`], so this covers trees
/// 21 levels deep.
const STACK_INLINE: usize = 64;

/// The LIFO of nodes a ray still has to visit. The first
/// [`STACK_INLINE`] entries live in an array in the caller's frame and
/// only deeper ones spill to the heap, so a traversal of any tree the
/// scenes build never calls the allocator: a `Vec` per ray cost an eighth
/// of a serial path trace and a quarter of an oracle replay in `malloc` /
/// `realloc`, and was the one thing tracing threads would share.
struct TraversalStack<T> {
    inline: [T; STACK_INLINE],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy> TraversalStack<T> {
    /// A stack holding `first`.
    #[inline]
    fn new(first: T) -> TraversalStack<T> {
        TraversalStack { inline: [first; STACK_INLINE], len: 1, spill: Vec::new() }
    }

    #[inline]
    fn push(&mut self, entry: T) {
        if self.len < STACK_INLINE {
            self.inline[self.len] = entry;
            self.len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        // The spill is non-empty only while the array is full, so it holds
        // the newest entries.
        self.spill.pop().or_else(|| {
            self.len = self.len.checked_sub(1)?;
            Some(self.inline[self.len])
        })
    }
}

/// Brute-force closest hit, for differential testing of traversal.
///
/// Shares the traversal tie-break rule: at equal `t` the lowest prim id
/// wins (here guaranteed by iterating prims in index order with a strict
/// `<` comparison).
pub fn brute_force_intersect(
    triangles: &[Triangle],
    ray: &Ray,
    t_min: f32,
    t_max: f32,
) -> Option<PrimHit> {
    let mut best: Option<PrimHit> = None;
    let mut limit = t_max;
    for (i, tri) in triangles.iter().enumerate() {
        if let Some(t) = tri.intersect(ray, t_min, limit) {
            limit = t;
            best = Some(PrimHit { t, prim: i as u32 });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmath::{Vec3, XorShiftRng};
    use rtscene::lumibench::{self, SceneId};
    use rtscene::MaterialId;

    fn grid_triangles(n: usize) -> Vec<Triangle> {
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

    #[test]
    fn validates_on_grid_and_scene() {
        let tris = grid_triangles(15);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        bvh.validate(&tris).expect("grid BVH is valid");

        let scene = lumibench::build_scaled(SceneId::Spnza, 32);
        let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
        bvh.validate(scene.triangles()).expect("scene BVH is valid");
    }

    #[test]
    fn traversal_matches_brute_force() {
        let scene = lumibench::build_scaled(SceneId::Ref, 32);
        let tris = scene.triangles();
        let bvh = Bvh::build(tris, &BvhConfig::default());
        let mut rng = XorShiftRng::new(77);
        let mut hits = 0;
        for i in 0..300 {
            let ray = if i % 2 == 0 {
                scene.camera().primary_ray(i % 17, i / 17, 17, 18, None)
            } else {
                Ray::new(
                    Vec3::new(
                        rng.range_f32(-6.0, 6.0),
                        rng.range_f32(0.5, 5.0),
                        rng.range_f32(-6.0, 6.0),
                    ),
                    rng.unit_vector(),
                )
            };
            let ours = bvh.intersect(tris, &ray, 1e-3, f32::INFINITY);
            let reference = brute_force_intersect(tris, &ray, 1e-3, f32::INFINITY);
            match (ours, reference) {
                (Some(a), Some(b)) => {
                    assert!((a.t - b.t).abs() < 1e-3, "t mismatch: {} vs {}", a.t, b.t);
                    hits += 1;
                }
                (None, None) => {}
                (a, b) => panic!("hit disagreement: {a:?} vs {b:?}"),
            }
        }
        assert!(hits > 50, "expected many hits, got {hits}");
    }

    #[test]
    fn occluded_agrees_with_intersect() {
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let tris = scene.triangles();
        let bvh = Bvh::build(tris, &BvhConfig::default());
        let mut rng = XorShiftRng::new(3);
        for _ in 0..200 {
            let ray = Ray::new(
                Vec3::new(
                    rng.range_f32(-4.0, 4.0),
                    rng.range_f32(0.2, 3.0),
                    rng.range_f32(-4.0, 4.0),
                ),
                rng.unit_vector(),
            );
            let hit = bvh.intersect(tris, &ray, 1e-3, 100.0).is_some();
            assert_eq!(bvh.occluded(tris, &ray, 1e-3, 100.0), hit);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let tris = grid_triangles(12);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        let s = bvh.stats();
        assert_eq!(s.node_count, bvh.nodes().len());
        assert!(s.leaf_count > 0 && s.leaf_count < s.node_count);
        assert!(s.max_depth >= 2);
        assert_eq!(s.total_bytes, bvh.total_bytes());
        assert_eq!(s.treelet_count, bvh.partition().len());
        // Total bytes equals the sum of all node records.
        let layout = *bvh.config();
        let sum: u64 = bvh.nodes().iter().map(|n| n.byte_size(&layout.layout) as u64).sum();
        assert_eq!(s.total_bytes, sum);
    }

    #[test]
    fn sah_cost_prefers_the_sah_build() {
        // A deliberately unbalanced configuration (1-wide SAH sweep can't
        // separate anything: force big leaves via tiny hard cap ordering)
        // must not beat the default build; and cost must be positive and
        // finite.
        let tris = grid_triangles(12);
        let good = Bvh::build(&tris, &BvhConfig::default());
        let coarse = Bvh::build(
            &tris,
            &BvhConfig {
                sah_bins: 2,
                max_leaf_prims: 16,
                max_leaf_prims_hard: 16,
                ..Default::default()
            },
        );
        assert!(good.sah_cost() > 0.0);
        assert!(good.sah_cost().is_finite());
        assert!(
            good.sah_cost() <= coarse.sah_cost() * 1.05,
            "default build ({:.2}) should not lose to a coarse build ({:.2})",
            good.sah_cost(),
            coarse.sah_cost()
        );
    }

    #[test]
    fn treelet_extents_cover_image_without_gaps() {
        let tris = grid_triangles(12);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        let mut extents: Vec<(u64, u64)> =
            (0..bvh.partition().len()).map(|i| bvh.treelet_extent(TreeletId(i as u32))).collect();
        extents.sort_unstable();
        assert_eq!(extents.first().unwrap().0, 0);
        assert_eq!(extents.last().unwrap().1, bvh.total_bytes());
        for w in extents.windows(2) {
            assert_eq!(w[0].1, w[1].0, "extents must tile the image");
        }
    }

    #[test]
    fn traversal_stack_stays_lifo_across_the_spill() {
        // Three times the inline capacity, with pops in between, against
        // a plain `Vec`.
        let mut stack = TraversalStack::new(0u32);
        let mut model = vec![0u32];
        for i in 1..(3 * STACK_INLINE as u32) {
            stack.push(i);
            model.push(i);
            if i % 5 == 0 {
                assert_eq!(stack.pop(), model.pop());
            }
        }
        while let Some(want) = model.pop() {
            assert_eq!(stack.pop(), Some(want));
        }
        assert_eq!(stack.pop(), None);
        stack.push(7);
        assert_eq!((stack.pop(), stack.pop()), (Some(7), None));
    }

    #[test]
    fn traverse_visits_root_first() {
        let tris = grid_triangles(6);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        let ray = Ray::new(Vec3::new(5.0, 5.0, 5.0), Vec3::new(0.0, -1.0, 0.0));
        let mut visited = Vec::new();
        let _ = bvh.traverse(&tris, &ray, 1e-3, f32::INFINITY, |n| visited.push(n));
        assert_eq!(visited.first(), Some(&bvh.root()));
    }

    #[test]
    fn missing_ray_visits_nothing() {
        let tris = grid_triangles(6);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        // Ray far away pointing away from the scene.
        let ray = Ray::new(Vec3::new(1000.0, 1000.0, 1000.0), Vec3::new(1.0, 0.0, 0.0));
        let mut visited = 0;
        let hit = bvh.traverse(&tris, &ray, 1e-3, f32::INFINITY, |_| visited += 1);
        assert!(hit.is_none());
        assert_eq!(visited, 0, "root box test fails before any fetch");
    }

    #[test]
    fn front_to_back_prunes_far_subtrees() {
        // A ray hitting the nearest of a long row of triangles should visit
        // far fewer nodes than the total.
        let tris = grid_triangles(16);
        let bvh = Bvh::build(&tris, &BvhConfig::default());
        let ray = Ray::new(Vec3::new(0.2, 5.0, 0.2), Vec3::new(0.0, -1.0, 0.0));
        let mut visited = 0;
        let hit = bvh.traverse(&tris, &ray, 1e-3, f32::INFINITY, |_| visited += 1).unwrap();
        assert!((hit.t - 5.0).abs() < 1e-4);
        assert!(
            visited < bvh.nodes().len() / 4,
            "visited {visited} of {} nodes",
            bvh.nodes().len()
        );
    }
}
