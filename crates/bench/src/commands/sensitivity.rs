//! §6.4 sensitivity study: the paper predicts the share of intersection
//! tests handled in treelet-stationary mode *increases* with samples per
//! pixel (more coherent ray batches) and *decreases* with more bounces
//! (more divergent rays). This harness measures exactly that ratio.

use gpusim::{TraversalMode, VtqParams};
use rtbvh::Bvh;
use rtscene::lumibench::{self, SceneId};
use vtq::prelude::*;
use vtq::workload::PathTracer;

use crate::{header, ok_rows, row, HarnessOpts};

fn mode_shares(
    scene: &rtscene::Scene,
    bvh: &Bvh,
    cfg: &ExperimentConfig,
    spp: u32,
    bounces: u32,
) -> [f64; 3] {
    let (workload, _) = PathTracer::new(cfg.resolution, bounces).with_spp(spp).run(scene, bvh);
    let sim = Simulator::new(
        bvh,
        scene.triangles(),
        cfg.gpu.with_policy(TraversalPolicy::Vtq(VtqParams::default())),
    );
    let r = sim.try_run(&workload).unwrap();
    let total: u64 = TraversalMode::ALL.iter().map(|m| r.stats.isect_in(*m)).sum();
    let share = |m| r.stats.isect_in(m) as f64 / total.max(1) as f64;
    [
        share(TraversalMode::Initial),
        share(TraversalMode::TreeletStationary),
        share(TraversalMode::RayStationary),
    ]
}

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Lands]);
    // Sweep points: (spp, bounces); the paper varies one axis at a time.
    const POINTS: [(u32, u32); 6] = [(1, 3), (2, 3), (4, 3), (1, 1), (1, 3), (1, 5)];

    for id in &scenes {
        let id = *id;
        // Scene and BVH build once per scene; the six (spp, bounce)
        // points borrow them and simulate in parallel on the pool.
        let scene = lumibench::build_scaled(id, opts.config.detail_divisor);
        let bvh = Bvh::build(scene.triangles(), &opts.config.bvh);
        let (scene, bvh) = (&scene, &bvh);
        let shares = ok_rows(
            engine.run_tasks(
                POINTS
                    .iter()
                    .map(|&(spp, bounces)| {
                        (format!("{id}/spp={spp},b={bounces}"), move || {
                            mode_shares(scene, bvh, &opts.config, spp, bounces)
                        })
                    })
                    .collect(),
            ),
        );

        println!("== {id}: intersection-test share per traversal mode ==");
        header(&["config", "initial", "treelet", "coherent", "ray"]);
        for (i, ((spp, bounces), s)) in POINTS.iter().zip(shares).enumerate() {
            let label = if i < 3 { format!("spp={spp} b=3") } else { format!("spp=1 b={bounces}") };
            row(
                &label,
                &[
                    format!("{:.3}", s[0]),
                    format!("{:.3}", s[1]),
                    format!("{:.3}", s[0] + s[1]),
                    format!("{:.3}", s[2]),
                ],
            );
        }
    }
    crate::EXIT_OK
}
