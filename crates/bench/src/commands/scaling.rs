//! Scale-model validation: the paper (and our DESIGN.md substitution)
//! leans on scale-model simulation — if scene size and cache size shrink
//! proportionally, relative results should be stable. This harness sweeps
//! scene detail with proportionally scaled caches and reports the VTQ
//! speedup at each point; a flat column validates the methodology.

use rtbvh::BvhConfig;
use rtscene::lumibench::{self, SceneId};
use vtq::prelude::*;

use crate::{header, ok_rows, row, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Lands]);
    // One pool task per (scene, detail divisor). Each point derives its
    // own full-detail-relative config, so this sweep intentionally starts
    // from `ExperimentConfig::default()` rather than `--quick` overrides.
    let cache = engine.cache();
    let tasks: Vec<(String, _)> = scenes
        .iter()
        .flat_map(|&id| {
            [1u32, 2, 4, 8].into_iter().map(move |div| {
                (format!("{id}/{div}"), move || {
                    // Keep the BVH : L1 ratio constant by scaling the cache
                    // with the scene (L1 halves when the scene halves;
                    // pow2-rounded).
                    let probe = lumibench::build_scaled(id, div);
                    let probe_bvh = rtbvh::Bvh::build(probe.triangles(), &BvhConfig::default());
                    let target_ratio = 1100.0; // ≈ LANDS full-detail vs 4 KB
                    let l1 = ((probe_bvh.total_bytes() as f64 / target_ratio) as u32)
                        .next_power_of_two()
                        .clamp(1024, 16 * 1024);
                    let mut cfg = ExperimentConfig { detail_divisor: div, ..Default::default() };
                    cfg.gpu.mem.l1.size_bytes = l1;
                    cfg.gpu.mem.l2.size_bytes = 8 * l1;
                    cfg.bvh.treelet_bytes = l1 / 2;
                    let p = cache.get(id, &cfg);
                    let base = p.run_policy(TraversalPolicy::Baseline);
                    let vtq = p.run_policy(TraversalPolicy::Vtq(VtqParams::default()));
                    (
                        id,
                        div,
                        p.bvh.total_bytes(),
                        l1,
                        base.stats.cycles as f64 / vtq.stats.cycles as f64,
                        base.stats.simt_efficiency(),
                        vtq.stats.simt_efficiency(),
                    )
                })
            })
        })
        .collect();

    header(&["scene/div", "bvh_KB", "l1_KB", "ratio", "vtq_gain", "simt_b", "simt_v"]);
    for (id, div, bvh_bytes, l1, gain, simt_b, simt_v) in ok_rows(engine.run_tasks(tasks)) {
        row(
            &format!("{id}/{div}"),
            &[
                format!("{:.0}", bvh_bytes as f64 / 1024.0),
                (l1 / 1024).to_string(),
                format!("{:.0}", bvh_bytes as f64 / l1 as f64),
                format!("{gain:.2}x"),
                format!("{simt_b:.3}"),
                format!("{simt_v:.3}"),
            ],
        );
    }
    crate::EXIT_OK
}
