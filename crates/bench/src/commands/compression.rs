//! §7.3 interaction study: BVH compression (Ylitie-style quantized wide
//! nodes) together with virtualized treelet queues. The paper: "BVH
//! compression and memory optimizations ... can be used in conjunction
//! with our proposal for even larger performance improvements."

use rtbvh::NodeLayout;
use rtscene::lumibench::SceneId;
use vtq::prelude::*;

use crate::{header, ok_rows, row, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Lands, SceneId::Car]);
    // One pool task per (scene, node layout); the two layouts fingerprint
    // differently so each builds its own cached BVH.
    let cache = engine.cache();
    let layouts = [("wide", NodeLayout::wide()), ("cwbvh", NodeLayout::compressed())];
    let tasks: Vec<(String, _)> = scenes
        .iter()
        .flat_map(|&id| {
            layouts.iter().map(move |&(label, layout)| {
                (format!("{id}/{label}"), move || {
                    let mut cfg = opts.config;
                    cfg.bvh.layout = layout;
                    let p = cache.get(id, &cfg);
                    let base = p.run_policy(TraversalPolicy::Baseline);
                    let vtq = p.run_vtq(VtqParams::default());
                    (id, label, p.bvh.total_bytes(), base.stats.cycles, vtq.stats.cycles)
                })
            })
        })
        .collect();

    header(&["scene", "layout", "bvh_KB", "base_cyc", "vtq_cyc", "vtq_gain"]);
    let mut baseline_wide = 0u64;
    for (id, label, bvh_bytes, base, vtq) in ok_rows(engine.run_tasks(tasks)) {
        if label == "wide" {
            baseline_wide = base;
        }
        row(
            &format!("{id}/{label}"),
            &[
                String::new(),
                format!("{:.0}", bvh_bytes as f64 / 1024.0),
                base.to_string(),
                vtq.to_string(),
                format!("{:.2}x", base as f64 / vtq as f64),
            ],
        );
        if label == "cwbvh" {
            row(
                &format!("{id}/combined"),
                &[
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    format!(
                        "{:.2}x (cwbvh VTQ vs wide baseline)",
                        baseline_wide as f64 / vtq as f64
                    ),
                ],
            );
        }
    }
    crate::EXIT_OK
}
