//! Layer probes: small fixed kernels that call one layer's public
//! functions in a loop, so a traced run can say what that layer costs on
//! this host. They run after the timed passes and never feed an
//! end-to-end metric.

use std::hint::black_box;

use gpumem::{AccessKind, Assoc, Cache, CacheConfig, CachePolicy, MemConfig, MemorySystem};
use gpusim::hw_table::HwQueueTable;
use gpusim::queues::TreeletQueues;
use gpusim::{predict_key, NextNode, PredictTable, RayId, RayTraversal, Workload, TRACE_T_MIN};
use rtbvh::{aabb4_intersect, quantize, Bvh, NodeId, TreeletId};
use rtscene::{Scene, Triangle};

use crate::harness::{ns_per_iter, timed};
use crate::metrics::Values;

/// The first `limit` trace calls of a workload.
fn calls(workload: &Workload, limit: usize) -> Vec<gpusim::TraceCall> {
    workload.tasks.iter().flat_map(|t| t.rays.iter().copied()).take(limit).collect()
}

/// `rtbvh.aabb4_mtests_per_s`: the 4-lane slab test over the BVH's own
/// interior nodes and the workload's own rays.
pub fn aabb4(values: &mut Values, bvh: &Bvh, workload: &Workload) {
    let rays = calls(workload, 256);
    let nodes: Vec<_> = bvh.nodes().iter().filter(|n| !n.is_leaf()).take(1024).collect();
    if nodes.is_empty() {
        return;
    }
    let ns = ns_per_iter(1 << 16, |i| {
        let node = nodes[i as usize % nodes.len()];
        let ray = &rays[i as usize % rays.len()].ray;
        black_box(aabb4_intersect(black_box(node), black_box(ray), TRACE_T_MIN, f32::MAX));
    });
    values.set("rtbvh.aabb4_mtests_per_s", 4.0 * 1e3 / ns);
}

/// `rtbvh.qnode_decode_mnodes_per_s`: quantized node → conservative wide node.
pub fn qnode_decode(values: &mut Values, bvh: &Bvh) {
    let qnodes = quantize(bvh.nodes(), bvh.root());
    let ns = ns_per_iter(1 << 16, |i| {
        black_box(black_box(&qnodes[i as usize % qnodes.len()]).decode());
    });
    values.set("rtbvh.qnode_decode_mnodes_per_s", 1e3 / ns);
}

/// `rtbvh.intersect_krays_per_s` / `rtbvh.occluded_krays_per_s`: the host
/// BVH traversal the path tracer and the oracle run per ray.
pub fn traversal(values: &mut Values, bvh: &Bvh, triangles: &[Triangle], workload: &Workload) {
    let rays = calls(workload, 20_000);
    let (_, s) = timed(|| {
        for call in &rays {
            black_box(bvh.intersect(triangles, &call.ray, TRACE_T_MIN, call.t_max));
        }
    });
    values.set("rtbvh.intersect_krays_per_s", rays.len() as f64 / 1e3 / s);
    let (_, s) = timed(|| {
        for call in &rays {
            black_box(bvh.occluded(triangles, &call.ray, TRACE_T_MIN, call.t_max));
        }
    });
    values.set("rtbvh.occluded_krays_per_s", rays.len() as f64 / 1e3 / s);
}

/// `gpumem.cache_hit_ns` / `gpumem.cache_miss_ns`: one set-associative
/// L1 lookup, resident and streaming.
pub fn cache(values: &mut Values) {
    let l1 =
        CacheConfig { size_bytes: 32 << 10, assoc: Assoc::Ways(4), line_bytes: 64, latency: 28 };
    let mut hot = Cache::new(&l1);
    for i in 0..64u64 {
        hot.fill(i * 64, i);
    }
    values.set(
        "gpumem.cache_hit_ns",
        ns_per_iter(1 << 16, |i| {
            black_box(hot.access((i % 64) * 64, i));
        }),
    );
    let mut cold = Cache::new(&l1);
    let mut tick = 0u64;
    values.set(
        "gpumem.cache_miss_ns",
        ns_per_iter(1 << 16, |_| {
            // Stride past the capacity so every access misses.
            tick += 1;
            black_box(cold.access(tick * 4096, tick));
        }),
    );
}

/// `gpumem.system_access_ns`: `MemorySystem::access` replaying the node
/// fetches the workload's first rays make, recorded with the simulator's
/// own treelet-order traversal.
pub fn memory_system(
    values: &mut Values,
    mem: &MemConfig,
    bvh: &Bvh,
    triangles: &[Triangle],
    workload: &Workload,
) {
    let mut stream = Vec::new();
    for (i, call) in calls(workload, 2048).into_iter().enumerate() {
        let mut ray = RayTraversal::new(RayId(i as u32), call.ray, bvh, TRACE_T_MIN, call.t_max);
        if call.anyhit {
            ray.set_anyhit();
        }
        while let NextNode::Visit(node) = ray.next_node(bvh, None) {
            stream.push(bvh.addr(node));
            ray.visit(bvh, triangles, node);
        }
    }
    if stream.is_empty() {
        return;
    }
    let mut system = MemorySystem::new(mem);
    let mut now = 0u64;
    let (_, s) = timed(|| {
        for (i, addr) in stream.iter().enumerate() {
            // One access per simulated cycle, spread over the SMs' L1s.
            now += 1;
            let sm = i % mem.num_sms;
            black_box(system.access(
                sm,
                addr.offset,
                addr.size,
                AccessKind::Bvh,
                CachePolicy::L1AndL2,
                now,
            ));
        }
    });
    values.set("gpumem.system_access_ns", s * 1e9 / stream.len() as f64);
}

/// `gpusim.queues_*_ns` and `gpusim.hw_table_*_ns`: the treelet-queue
/// structures only the Vtq policy touches.
pub fn queues(values: &mut Values) {
    const RAYS: u32 = 4096;
    let (_, s) = timed(|| {
        for _ in 0..64 {
            let mut q = TreeletQueues::new();
            for i in 0..RAYS {
                q.push(TreeletId(i % 64), RayId(i));
            }
            black_box(q.total_rays());
        }
    });
    values.set("gpusim.queues_push_ns", s * 1e9 / (64.0 * RAYS as f64));
    let mut prefilled = TreeletQueues::new();
    for i in 0..RAYS {
        prefilled.push(TreeletId(i % 64), RayId(i));
    }
    let fills: Vec<TreeletQueues> = (0..64).map(|_| prefilled.clone()).collect();
    let (_, s) = timed(|| {
        for mut q in fills {
            while let Some((treelet, _len)) = q.largest() {
                black_box(q.pop_from(treelet, 32));
            }
        }
    });
    values.set("gpusim.queues_pop_ns", s * 1e9 / (64.0 * RAYS as f64));

    // Table 1 geometry: 128 entries of 32 rays.
    let mut table = HwQueueTable::new(128, 32);
    values.set(
        "gpusim.hw_table_insert_ns",
        ns_per_iter(1 << 14, |i| {
            if i % 4096 == 0 {
                table = HwQueueTable::new(128, 32);
            }
            black_box(table.push((i % 256) * 64));
        }),
    );
    let mut table = HwQueueTable::new(128, 32);
    for i in 0..128u64 {
        table.push(i * 64);
    }
    values.set(
        "gpusim.hw_table_lookup_ns",
        ns_per_iter(1 << 14, |i| {
            let addr = (i % 128) * 64;
            black_box(table.push(addr));
            black_box(table.pop(addr));
        }) / 2.0,
    );
}

/// `gpusim.predict_lookup_ns`: cuckoo lookups of keys the table holds.
pub fn predict(values: &mut Values, scene: &Scene, bvh: &Bvh) {
    let bounds = bvh.root_bounds();
    let keys: Vec<u64> = (0..256u32)
        .map(|i| {
            predict_key(&bounds, &scene.camera().primary_ray(i % 16, i / 16, 16, 16, None), 6, 5)
        })
        .collect();
    let mut table = PredictTable::new(256);
    for &key in &keys {
        table.train(key, NodeId(1));
    }
    values.set(
        "gpusim.predict_lookup_ns",
        ns_per_iter(1 << 16, |i| {
            black_box(table.lookup(black_box(keys[i as usize % keys.len()])));
        }),
    );
}

/// `gpusim.metrics_json_us`: rendering one report's flat metrics line.
pub fn metrics_json(values: &mut Values, report: &gpusim::SimReport) {
    let ns = ns_per_iter(256, |_| {
        black_box(gpusim::export::metrics_json("SCENE/policy", black_box(report)));
    });
    values.set("gpusim.metrics_json_us", ns / 1e3);
}

/// `vtq.jsonl.*_mb_per_s`: CRC framing and checking of `lines`.
pub fn jsonl(values: &mut Values, lines: &[String]) {
    let bytes: usize = lines.iter().map(String::len).sum();
    if bytes == 0 {
        return;
    }
    const ROUNDS: usize = 16;
    let mb = (bytes * ROUNDS) as f64 / 1e6;
    let (_, s) = timed(|| {
        for _ in 0..ROUNDS {
            for line in lines {
                black_box(vtq::jsonl::frame_line(black_box(line)));
            }
        }
    });
    values.set("vtq.jsonl.frame_line_mb_per_s", mb / s);
    let framed: Vec<String> = lines.iter().map(|l| vtq::jsonl::frame_line(l)).collect();
    let (_, s) = timed(|| {
        for _ in 0..ROUNDS {
            for line in &framed {
                black_box(vtq::jsonl::check_line(black_box(line)).is_ok());
            }
        }
    });
    values.set("vtq.jsonl.check_line_mb_per_s", mb / s);
}
