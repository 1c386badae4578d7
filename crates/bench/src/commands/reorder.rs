//! Ray-reordering comparison (§7.2.1): does first-hit Morton sorting of
//! threads help the baseline, and does VTQ still win without any sorting?
//! The paper argues treelet queues group rays dynamically, "essentially
//! achieving a similar goal" to sorting "but without the high overhead".
//! A shuffled (decohered) variant stress-tests both.

use rtscene::lumibench::SceneId;
use vtq::prelude::*;
use vtq::reorder;

use crate::{header, ok_rows, row, HarnessOpts};

const ORDERS: [&str; 3] = ["pixel", "sorted", "shuffled"];

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Lands, SceneId::Park]);
    // One pool task per (scene, ray order); each runs baseline + VTQ on
    // the cached prepared scene with the reordered workload.
    let cfg = &opts.config;
    let cache = engine.cache();
    let tasks: Vec<(String, _)> = scenes
        .iter()
        .flat_map(|&id| {
            ORDERS.iter().map(move |&order| {
                (format!("{id}/{order}"), move || {
                    let p = cache.get(id, cfg);
                    let workload = match order {
                        "pixel" => p.workload.clone(),
                        "sorted" => reorder::sort_by_first_hit(&p.workload, &p.scene, &p.bvh),
                        _ => reorder::shuffle(&p.workload, 0x5EED),
                    };
                    let gpu = &cfg.gpu;
                    let base = Simulator::new(
                        &p.bvh,
                        p.scene.triangles(),
                        gpu.with_policy(TraversalPolicy::Baseline),
                    )
                    .try_run(&workload)
                    .unwrap();
                    let vtq = Simulator::new(
                        &p.bvh,
                        p.scene.triangles(),
                        gpu.with_policy(TraversalPolicy::Vtq(VtqParams::default())),
                    )
                    .try_run(&workload)
                    .unwrap();
                    (id, order, base.stats.cycles, vtq.stats.cycles)
                })
            })
        })
        .collect();

    header(&["scene", "order", "base_cyc", "vtq_cyc", "vtq_gain"]);
    for (id, order, base, vtq) in ok_rows(engine.run_tasks(tasks)) {
        row(
            &format!("{id}/{order}"),
            &[
                String::new(),
                base.to_string(),
                vtq.to_string(),
                format!("{:.2}x", base as f64 / vtq as f64),
            ],
        );
    }
    crate::EXIT_OK
}
