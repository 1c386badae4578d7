//! The staged prepared-scene cache, against the premise its keys rest on
//! and against preparing every cell from scratch:
//!
//! * **The workload does not read the layout.** One wide tree per scene,
//!   path-traced under its wide, quantized and 1 KB-treelet layouts,
//!   yields the same trace calls and image bit for bit — in pixel order
//!   and sorted by first hit — so the cache may trace once per tree.
//! * **Staged equals monolithic.** Every preset on BUNNY and REF, served
//!   from one shared cache, simulates exactly what a fresh
//!   `Prepared::build` of the cell's configuration simulates.
//! * **Each stage builds once per distinct input.**

use std::sync::Arc;

use gpusim::{SimReport, Workload};
use rtbvh::{Builder, Bvh, BvhConfig, NodeFormat, WideTree};
use rtmath::Vec3;
use rtscene::lumibench::{self, SceneId};
use vtq::experiment::{presets, run_presets};
use vtq::reorder::RayOrder;
use vtq::sweep::{PreparedCache, RunMatrix, StageCounts, SweepEngine};
use vtq::workload::{Image, PathTracer};
use vtq::{ExperimentConfig, Prepared};

fn vec_bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// Every trace call — origin, direction, `t_max`, kind — as bits, task by
/// task.
fn call_bits(workload: &Workload) -> Vec<Vec<([u32; 9], u32, bool)>> {
    let call = |c: &gpusim::TraceCall| {
        let [ox, oy, oz] = vec_bits(c.ray.origin);
        let [dx, dy, dz] = vec_bits(c.ray.dir);
        let [ix, iy, iz] = vec_bits(c.ray.inv_dir);
        ([ox, oy, oz, dx, dy, dz, ix, iy, iz], c.t_max.to_bits(), c.anyhit)
    };
    workload.tasks.iter().map(|t| t.rays.iter().map(call).collect()).collect()
}

fn pixel_bits(image: &Image) -> Vec<[u32; 3]> {
    let (w, h) = (image.width(), image.height());
    (0..h).flat_map(|y| (0..w).map(move |x| vec_bits(image.pixel(x, y)))).collect()
}

#[test]
fn every_layout_of_a_tree_traces_the_same_workload() {
    let cfg = ExperimentConfig::quick();
    let layouts = [
        cfg.bvh,
        BvhConfig { node_format: NodeFormat::Quantized, ..cfg.bvh },
        BvhConfig { treelet_bytes: 1024, ..cfg.bvh },
    ];
    let tracer = PathTracer::new(cfg.resolution, cfg.max_bounces);
    for id in SceneId::ALL {
        let scene = lumibench::build_scaled(id, cfg.detail_divisor);
        let tree = Arc::new(WideTree::build(scene.triangles(), &cfg.bvh, Builder::BinnedSah));
        let traced: Vec<_> = layouts
            .iter()
            .map(|layout| {
                let bvh = Bvh::lay_out(Arc::clone(&tree), layout);
                let (workload, image) = tracer.run(&scene, &bvh);
                let sorted = RayOrder::FirstHitSorted.apply(workload.clone(), &scene, &bvh);
                (call_bits(&workload), pixel_bits(&image), call_bits(&sorted))
            })
            .collect();
        let (calls, pixels, sorted) = &traced[0];
        assert!(calls.iter().any(|task| task.len() > 1), "{id}: no secondary rays");
        assert_ne!(calls, sorted, "{id}: sorting changed nothing");
        for (layout, other) in layouts.iter().zip(&traced).skip(1) {
            assert!(calls == &other.0, "{id}: {layout:?} traced other calls");
            assert!(pixels == &other.1, "{id}: {layout:?} rendered other pixels");
            assert!(sorted == &other.2, "{id}: {layout:?} sorted into another order");
        }
    }
}

/// `Debug`-equal statistics and memory counters, and equal hits.
fn same_run(a: &SimReport, b: &SimReport) -> bool {
    format!("{:?}", a.stats) == format!("{:?}", b.stats)
        && format!("{:?}", a.mem) == format!("{:?}", b.mem)
        && a.hits == b.hits
}

#[test]
fn a_shared_cache_simulates_what_a_fresh_prepare_does_under_every_preset() {
    let base = ExperimentConfig { resolution: 32, ..ExperimentConfig::quick() };
    let mut matrix = RunMatrix::new();
    for scene in [SceneId::Bunny, SceneId::Ref] {
        for preset in presets() {
            matrix.push(preset.cell(scene, &base, preset.label));
        }
    }
    let results = SweepEngine::new(2).run_map(&matrix, |cell, shared| {
        let fresh = Prepared::build(cell.scene, &cell.config);
        same_run(&shared.run_policy(cell.policy), &fresh.run_policy(cell.policy))
    });
    for (cell, same) in matrix.cells().iter().zip(results) {
        let same = same.unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        assert!(same, "{}: the shared cache and a fresh prepare disagree", cell.label);
    }
}

#[test]
fn each_stage_builds_once_per_distinct_input() {
    let base = ExperimentConfig { resolution: 16, ..ExperimentConfig::quick() };
    let scenes = [SceneId::Bunny, SceneId::Ref];
    // `figpolicies` ∪ the warp-buffer ablation: baseline, predict and the
    // three `wbuf-*` presets share everything; `qnode` adds a layout and
    // its tape.
    let labels = ["baseline", "predict", "qnode", "wbuf-2", "wbuf-4", "wbuf-8"];
    let cache = PreparedCache::new();
    for label in labels {
        let preset = presets().into_iter().find(|p| p.label == label).expect("listed");
        for scene in scenes {
            let prepared = cache.get(scene, &preset.config(&base));
            assert_eq!(
                prepared.bvh.config().node_format == NodeFormat::Quantized,
                label == "qnode"
            );
        }
    }
    let want = StageCounts { scenes: 2, trees: 2, workloads: 2, layouts: 4, tapes: 4 };
    assert_eq!(cache.misses(), want);

    // The same stages through the sweep engine's cache, simulated.
    let engine = SweepEngine::new(2);
    let run = run_presets(&engine, &labels, &scenes, &base);
    assert_eq!(run.failures().count(), 0);
    assert_eq!(engine.cache().misses(), want);

    // A ray order re-traces (the workload reads it); a treelet budget
    // re-lays the tree out (the workload does not read it).
    let sorted = ExperimentConfig { ray_order: RayOrder::FirstHitSorted, ..base };
    let budget = ExperimentConfig { bvh: BvhConfig { treelet_bytes: 1024, ..base.bvh }, ..base };
    cache.get(SceneId::Bunny, &sorted);
    cache.get(SceneId::Bunny, &budget);
    let want = StageCounts { workloads: 3, layouts: 5, tapes: 6, ..want };
    assert_eq!(cache.misses(), want);
}
