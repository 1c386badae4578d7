//! The standalone analytical model of §2.4 (Figure 5).
//!
//! The paper motivates treelet queues with a latency-free model: record
//! every BVH node access each ray makes; assume *no* caching (every access
//! is a miss). Then
//!
//! * **baseline cycles** ≈ (total nodes traversed by all rays) × memory
//!   latency, and
//! * **treelet-queue cycles** ≈ Σ over batches of `C` concurrent rays of
//!   (unique treelets touched by the batch) × (nodes per treelet) × memory
//!   latency,
//!
//! because all rays in a batch reuse a fetched treelet at no latency cost.
//! More concurrent rays ⇒ fewer unique-treelet fetches per traversed node
//! ⇒ more speedup. This module reproduces that estimate from real per-ray
//! traces: the node visits of the workload's [`Tape`], the unrestricted
//! walk every simulation replays.

use std::collections::BTreeSet;

use gpusim::ray::NextNode;
use gpusim::{Tape, Workload};
use rtbvh::{Bvh, TreeletId};

/// Node-access trace of one ray.
#[derive(Debug, Clone, Default)]
pub struct RayTrace {
    /// Treelet of every node the ray fetched, in visit order.
    pub treelets: Vec<TreeletId>,
}

impl RayTrace {
    /// Number of node fetches.
    pub fn nodes(&self) -> usize {
        self.treelets.len()
    }
}

/// The per-ray node-access traces of a workload (every trace call of every
/// task), read off `tape`, the workload's tape on `bvh`.
pub fn record_traces(bvh: &Bvh, tape: &Tape, workload: &Workload) -> Vec<RayTrace> {
    let mut traces = Vec::with_capacity(workload.total_rays());
    for (task, t) in workload.tasks.iter().enumerate() {
        for call in 0..t.rays.len() {
            let mut cursor = tape.cursor(task, call);
            let mut trace = RayTrace::default();
            while let NextNode::Visit(n) = cursor.next_node(tape, None) {
                trace.treelets.push(bvh.treelet_of(n));
                cursor.visit(tape, n);
            }
            traces.push(trace);
        }
    }
    traces
}

/// Evaluates the analytical model over recorded traces.
///
/// Returns `(concurrent_rays, estimated_speedup)` for each requested batch
/// size. Each unique treelet a batch touches costs its full node count
/// (the whole treelet is fetched), exactly the paper's accounting.
///
/// # Panics
///
/// Panics if `traces` is empty or any batch size is zero.
pub fn analytical_speedups(
    bvh: &Bvh,
    traces: &[RayTrace],
    batch_sizes: &[usize],
) -> Vec<(usize, f64)> {
    assert!(!traces.is_empty(), "no traces recorded");
    let total_nodes: u64 = traces.iter().map(|t| t.nodes() as u64).sum();

    batch_sizes
        .iter()
        .map(|&c| {
            assert!(c > 0, "zero batch size");
            let mut treelet_fetch_cost = 0.0f64;
            for batch in traces.chunks(c) {
                let mut unique: BTreeSet<TreeletId> = BTreeSet::new();
                for t in batch {
                    unique.extend(t.treelets.iter().copied());
                }
                // Fetching a treelet costs its full node count (every node
                // of the treelet is loaded), exactly as in §2.4.
                treelet_fetch_cost +=
                    unique.iter().map(|t| bvh.partition().info(*t).nodes.len() as f64).sum::<f64>();
            }
            // Memory latency multiplies both sides and cancels.
            let speedup = if treelet_fetch_cost == 0.0 {
                1.0
            } else {
                total_nodes as f64 / treelet_fetch_cost
            };
            (c, speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PathTracer;
    use rtbvh::BvhConfig;
    use rtscene::lumibench::{self, SceneId};

    fn setup() -> (Tape, Bvh, Workload) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 16);
        let tris = scene.triangles();
        let bvh = Bvh::build(tris, &BvhConfig { treelet_bytes: 2048, ..Default::default() });
        let (w, _) = PathTracer::new(24, 2).run(&scene, &bvh);
        (Tape::record(&bvh, tris, &w), bvh, w)
    }

    #[test]
    fn traces_record_visits() {
        let (tape, bvh, w) = setup();
        let traces = record_traces(&bvh, &tape, &w);
        assert_eq!(traces.len(), w.total_rays());
        let total: usize = traces.iter().map(|t| t.nodes()).sum();
        assert!(total > traces.len(), "rays visit multiple nodes on average");
    }

    #[test]
    fn speedup_grows_with_concurrency() {
        let (tape, bvh, w) = setup();
        let traces = record_traces(&bvh, &tape, &w);
        let rows = analytical_speedups(&bvh, &traces, &[1, 32, 256, 4096]);
        assert_eq!(rows.len(), 4);
        // Monotonically non-decreasing in batch size: bigger batches can
        // only merge more treelet fetches.
        for pair in rows.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.999,
                "speedup dropped: {:?} -> {:?}",
                pair[0],
                pair[1]
            );
        }
        // With thousands of concurrent rays the model must show a gain.
        assert!(rows[3].1 > rows[0].1);
    }

    #[test]
    fn single_ray_batches_penalize_treelet_fetches() {
        let (tape, bvh, w) = setup();
        let traces = record_traces(&bvh, &tape, &w);
        let rows = analytical_speedups(&bvh, &traces, &[1]);
        // A single ray rarely uses a whole treelet: the model must show a
        // slowdown (speedup < 1) at batch size 1.
        assert!(rows[0].1 < 1.0, "got {}", rows[0].1);
    }

    #[test]
    #[should_panic(expected = "no traces")]
    fn empty_traces_panics() {
        let (_, bvh, _) = setup();
        let _ = analytical_speedups(&bvh, &[], &[32]);
    }
}
