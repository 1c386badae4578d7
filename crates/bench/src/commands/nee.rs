//! Extension experiment: next-event estimation. Real game integrations
//! trace anyhit shadow rays from every hit (§2.1.2's anyhit stage); the
//! paper's workload (§5.1) is plain path tracing. This harness compares
//! both workloads under all policies, checking that VTQ's win carries over
//! to shadow-ray-heavy kernels.

use rtscene::lumibench::SceneId;
use vtq::prelude::*;

use crate::{header, ok_rows, row, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Bath, SceneId::Lands]);
    // One pool task per (scene, workload variant). The plain and NEE
    // configurations differ in fingerprint, so each gets its own cache
    // entry and the workloads build in parallel too.
    let base_cfg = &opts.config;
    let cache = engine.cache();
    let tasks: Vec<(String, _)> = scenes
        .iter()
        .flat_map(|&id| {
            [false, true].into_iter().map(move |shadow| {
                let tag = if shadow { "nee" } else { "plain" };
                (format!("{id}/{tag}"), move || {
                    let mut cfg = *base_cfg;
                    cfg.shadow_rays = shadow;
                    let p = cache.get(id, &cfg);
                    let base = p.run_policy(TraversalPolicy::Baseline);
                    let vtq = p.run_vtq(VtqParams::default());
                    (id, tag, p.workload.total_rays(), base.stats.cycles, vtq.stats.cycles)
                })
            })
        })
        .collect();

    header(&["scene", "workload", "rays", "base_cyc", "vtq_cyc", "vtq_gain"]);
    for (id, tag, rays, base, vtq) in ok_rows(engine.run_tasks(tasks)) {
        row(
            &format!("{id}/{tag}"),
            &[
                String::new(),
                rays.to_string(),
                base.to_string(),
                vtq.to_string(),
                format!("{:.2}x", base as f64 / vtq as f64),
            ],
        );
    }
    crate::EXIT_OK
}
