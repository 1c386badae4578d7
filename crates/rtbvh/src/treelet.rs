//! Treelet partitioning of the wide BVH.
//!
//! A *treelet* is a connected subtree of BVH nodes whose total byte size
//! fits a budget (the paper sizes treelets to half the L1 cache so one
//! treelet can be processed while the next is preloaded, §4.3/§5). We use
//! the greedy growth rule of Aila & Karras as adopted by Chou et al. \[8]:
//! starting from an unassigned entry node, repeatedly absorb the frontier
//! node with the largest surface area (the node most likely to be visited
//! by many rays) until the byte budget is exhausted; frontier remainders
//! seed subsequent treelets.

use std::collections::VecDeque;
use std::fmt;

use crate::{Bvh4Node, NodeId, NodeLayout};

/// Identifier of a treelet within a [`TreeletPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeletId(pub u32);

impl TreeletId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TreeletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "treelet#{}", self.0)
    }
}

/// Metadata for one treelet.
#[derive(Debug, Clone)]
pub struct TreeletInfo {
    /// Nodes belonging to this treelet, in assignment (≈ priority) order.
    pub nodes: Vec<NodeId>,
    /// Total byte size of the member node records.
    pub bytes: u32,
    /// Entry node (the node through which rays enter this treelet).
    pub entry: NodeId,
    /// Mean depth of member nodes below the entry node — the paper's proxy
    /// for "nodes intersected per treelet", used for preload timing.
    pub mean_depth: f32,
}

/// The complete node → treelet assignment of a BVH.
#[derive(Debug, Clone)]
pub struct TreeletPartition {
    node_to_treelet: Vec<TreeletId>,
    treelets: Vec<TreeletInfo>,
}

impl TreeletPartition {
    /// Treelet containing `node`.
    #[inline]
    pub fn treelet_of(&self, node: NodeId) -> TreeletId {
        self.node_to_treelet[node.index()]
    }

    /// All treelets.
    #[inline]
    pub fn treelets(&self) -> &[TreeletInfo] {
        &self.treelets
    }

    /// Number of treelets.
    #[inline]
    pub fn len(&self) -> usize {
        self.treelets.len()
    }

    /// `true` if there are no treelets (never the case for a built BVH).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.treelets.is_empty()
    }

    /// Metadata of one treelet.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn info(&self, id: TreeletId) -> &TreeletInfo {
        &self.treelets[id.index()]
    }
}

/// Partitions `nodes` (rooted at `root`) into treelets of at most
/// `budget_bytes` bytes each.
///
/// Every node is assigned to exactly one treelet. A node whose record alone
/// exceeds the budget still gets assigned (forming an oversized singleton
/// treelet); this can only happen with pathological leaf sizes.
pub fn partition(
    nodes: &[Bvh4Node],
    root: NodeId,
    budget_bytes: u32,
    layout: &NodeLayout,
) -> TreeletPartition {
    // What every pick compares, once per node instead of once per
    // frontier node per pick.
    let area: Vec<f32> = nodes.iter().map(|n| n.bounds().surface_area()).collect();
    let size: Vec<u32> = nodes.iter().map(|n| n.byte_size(layout)).collect();
    partition_by(nodes, root, budget_bytes, |n| area[n.index()], |n| size[n.index()])
}

/// [`partition`] with every pick recomputing the area and byte size of
/// every frontier node, as it did before the per-node tables. Kept as the
/// reference the tests compare against.
#[cfg(test)]
fn partition_reference(
    nodes: &[Bvh4Node],
    root: NodeId,
    budget_bytes: u32,
    layout: &NodeLayout,
) -> TreeletPartition {
    partition_by(
        nodes,
        root,
        budget_bytes,
        |n| nodes[n.index()].bounds().surface_area(),
        |n| nodes[n.index()].byte_size(layout),
    )
}

/// The greedy growth itself, over any source of a node's surface area
/// and record size.
fn partition_by(
    nodes: &[Bvh4Node],
    root: NodeId,
    budget_bytes: u32,
    area: impl Fn(NodeId) -> f32,
    size: impl Fn(NodeId) -> u32,
) -> TreeletPartition {
    let mut node_to_treelet = vec![TreeletId(u32::MAX); nodes.len()];
    let mut treelets = Vec::new();
    let mut pending: VecDeque<NodeId> = VecDeque::new();
    pending.push_back(root);

    while let Some(entry) = pending.pop_front() {
        if node_to_treelet[entry.index()] != TreeletId(u32::MAX) {
            continue;
        }
        let tid = TreeletId(treelets.len() as u32);
        let mut members = Vec::new();
        let mut bytes = 0u32;
        // Frontier of candidate nodes, grown greedily by surface area.
        let mut frontier: Vec<NodeId> = vec![entry];
        while !frontier.is_empty() {
            // Pick the largest-surface-area frontier node that still fits
            // the remaining budget (the entry always "fits" so oversized
            // single nodes form their own treelet).
            let remaining = budget_bytes.saturating_sub(bytes);
            let best = frontier
                .iter()
                .enumerate()
                .filter(|(_, &n)| members.is_empty() || size(n) <= remaining)
                .max_by(|(_, &a), (_, &b)| area(a).total_cmp(&area(b)))
                .map(|(i, _)| i);
            let Some(best) = best else {
                // Nothing fits: the whole frontier seeds future treelets.
                for n in frontier.drain(..) {
                    pending.push_back(n);
                }
                break;
            };
            let candidate = frontier.swap_remove(best);
            node_to_treelet[candidate.index()] = tid;
            bytes += size(candidate);
            members.push(candidate);
            for c in nodes[candidate.index()].children() {
                if node_to_treelet[c.index()] == TreeletId(u32::MAX) {
                    frontier.push(c);
                }
            }
        }
        let mean_depth = mean_depth_below(nodes, entry, &node_to_treelet, tid);
        treelets.push(TreeletInfo { nodes: members, bytes, entry, mean_depth });
    }

    debug_assert!(node_to_treelet.iter().all(|t| *t != TreeletId(u32::MAX)));
    TreeletPartition { node_to_treelet, treelets }
}

/// Mean BFS depth (entry = 0) of the treelet's members below its entry.
fn mean_depth_below(
    nodes: &[Bvh4Node],
    entry: NodeId,
    assignment: &[TreeletId],
    tid: TreeletId,
) -> f32 {
    let mut queue = VecDeque::new();
    queue.push_back((entry, 0u32));
    let mut total = 0u64;
    let mut count = 0u64;
    while let Some((id, depth)) = queue.pop_front() {
        total += depth as u64;
        count += 1;
        for c in nodes[id.index()].children() {
            if assignment[c.index()] == tid {
                queue.push_back((c, depth + 1));
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f32 / count as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build2, wide, BvhConfig};
    use rtmath::Vec3;
    use rtscene::{MaterialId, Triangle};

    fn build_wide(n: usize) -> (Vec<Bvh4Node>, NodeId) {
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
        let b2 = build2::build(&tris, &BvhConfig::default());
        wide::collapse(&b2)
    }

    #[test]
    fn per_node_tables_pick_what_the_reference_picks() {
        use rtscene::lumibench::{build_scaled, SceneId};
        // A second layout with smaller records (80 B interior nodes, 32 B
        // leaf triangles) packs other nodes into the same budget.
        let compressed = NodeLayout {
            inner_bytes: 80,
            leaf_header_bytes: 16,
            leaf_tri_bytes: 32,
            leaf_align_bytes: 32,
        };
        for (id, layout) in [
            (SceneId::Crnvl, NodeLayout::wide()),
            (SceneId::Lands, compressed),
            (SceneId::Fox, NodeLayout::wide()),
        ] {
            let scene = build_scaled(id, 8);
            let (nodes, root) =
                wide::collapse(&build2::build(scene.triangles(), &BvhConfig::default()));
            let got = partition(&nodes, root, 2048, &layout);
            let want = partition_reference(&nodes, root, 2048, &layout);
            assert_eq!(got.node_to_treelet, want.node_to_treelet, "{}", id.name());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.treelets().iter().zip(want.treelets()) {
                assert_eq!((&g.nodes, g.bytes, g.entry), (&w.nodes, w.bytes, w.entry));
                assert_eq!(g.mean_depth.to_bits(), w.mean_depth.to_bits());
            }
        }
    }

    #[test]
    fn every_node_is_assigned_exactly_once() {
        let (nodes, root) = build_wide(20);
        let p = partition(&nodes, root, 1024, &NodeLayout::wide());
        let mut counts = vec![0usize; nodes.len()];
        for t in p.treelets() {
            for n in &t.nodes {
                counts[n.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
        for (i, _) in nodes.iter().enumerate() {
            let tid = p.treelet_of(NodeId(i as u32));
            assert!(p.info(tid).nodes.contains(&NodeId(i as u32)));
        }
    }

    #[test]
    fn treelets_respect_budget() {
        let (nodes, root) = build_wide(20);
        let budget = 2048;
        let p = partition(&nodes, root, budget, &NodeLayout::wide());
        for t in p.treelets() {
            assert!(
                t.bytes <= budget || t.nodes.len() == 1,
                "oversized multi-node treelet: {} bytes",
                t.bytes
            );
            let sum: u32 =
                t.nodes.iter().map(|n| nodes[n.index()].byte_size(&NodeLayout::wide())).sum();
            assert_eq!(sum, t.bytes);
        }
    }

    #[test]
    fn bigger_budget_means_fewer_treelets() {
        let (nodes, root) = build_wide(20);
        let small = partition(&nodes, root, 512, &NodeLayout::wide()).len();
        let large = partition(&nodes, root, 8192, &NodeLayout::wide()).len();
        assert!(large < small, "large {large} should be < small {small}");
    }

    #[test]
    fn whole_tree_fits_one_treelet_with_huge_budget() {
        let (nodes, root) = build_wide(6);
        let p = partition(&nodes, root, u32::MAX, &NodeLayout::wide());
        assert_eq!(p.len(), 1);
        assert_eq!(p.info(TreeletId(0)).nodes.len(), nodes.len());
    }

    #[test]
    fn treelets_are_connected_through_entry() {
        // Every non-entry member must have its parent in the same treelet.
        let (nodes, root) = build_wide(16);
        let p = partition(&nodes, root, 2048, &NodeLayout::wide());
        // Build a parent map.
        let mut parent = vec![None; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            for c in n.children() {
                parent[c.index()] = Some(NodeId(i as u32));
            }
        }
        for t in p.treelets() {
            for n in &t.nodes {
                if *n != t.entry {
                    let par = parent[n.index()].expect("non-root node has a parent");
                    assert_eq!(
                        p.treelet_of(par),
                        p.treelet_of(*n),
                        "member {n} of a treelet must be connected via its parent"
                    );
                }
            }
        }
    }

    #[test]
    fn entry_of_root_treelet_is_root() {
        let (nodes, root) = build_wide(10);
        let p = partition(&nodes, root, 1024, &NodeLayout::wide());
        assert_eq!(p.info(p.treelet_of(root)).entry, root);
    }

    #[test]
    fn mean_depth_is_zero_for_singleton() {
        let (nodes, root) = build_wide(1);
        let p = partition(&nodes, root, 64, &NodeLayout::wide());
        assert_eq!(p.info(TreeletId(0)).mean_depth, 0.0);
    }

    #[test]
    fn mean_depth_grows_with_budget() {
        // Node-weighted: singleton leaf treelets (depth 0) exist at every
        // budget, so weight by member count.
        let (nodes, root) = build_wide(20);
        let small = partition(&nodes, root, 512, &NodeLayout::wide());
        let large = partition(&nodes, root, 16 * 1024, &NodeLayout::wide());
        let avg = |p: &TreeletPartition| {
            let total: usize = p.treelets().iter().map(|t| t.nodes.len()).sum();
            p.treelets().iter().map(|t| t.mean_depth * t.nodes.len() as f32).sum::<f32>()
                / total as f32
        };
        assert!(avg(&large) > avg(&small));
    }
}
