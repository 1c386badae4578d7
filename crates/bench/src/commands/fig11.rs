//! Figure 11: L1 BVH miss rate over time under permanently
//! treelet-stationary traversal vs the baseline (the paper plots LANDS).
//! Paper shape: treelet-stationary starts far lower (to ~9%) then rises
//! past the baseline as queues thin out.

use rtscene::lumibench::SceneId;
use vtq::experiment;
use vtq::prelude::SweepEngine;

use crate::{ok_rows, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    // Default to the paper's scene when no subset was requested.
    let scenes = opts.scenes_or(&[SceneId::Lands]);
    for d in ok_rows(experiment::fig11_sweep(engine, &scenes, &opts.config)) {
        println!("# {} — L1 BVH miss rate over time (window starts in cycles)", d.scene.name());
        println!("{:>12} {:>12} {:>12}", "cycle", "baseline", "treelet");
        let n = d.baseline.len().max(d.treelet_stationary.len());
        for i in 0..n {
            let b = d.baseline.get(i);
            let t = d.treelet_stationary.get(i);
            println!(
                "{:>12} {:>12} {:>12}",
                b.or(t).map(|w| w.start_cycle).unwrap_or(0),
                b.map_or(String::new(), |w| format!("{:.3}", w.miss_rate())),
                t.map_or(String::new(), |w| format!("{:.3}", w.miss_rate())),
            );
        }
    }
    crate::EXIT_OK
}
