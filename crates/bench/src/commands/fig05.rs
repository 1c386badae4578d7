//! Figure 5: analytical-model treelet speedup vs concurrent rays (§2.4).
//! Paper: gains grow with concurrency, reaching 3–4× for most scenes at
//! 4096 rays.

use rtscene::lumibench::SceneId;
use vtq::experiment;
use vtq::prelude::SweepEngine;

use crate::{header, ok_rows, row, HarnessOpts};

const BATCHES: [usize; 6] = [32, 128, 512, 1024, 2048, 4096];

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    // Figure 5 includes WKND and SHIP, the suite's smallest-BVH scenes,
    // which "stand out" in the paper's plot.
    let scenes = opts.scenes_or(&SceneId::ALL_WITH_EXTRAS);
    let rows = ok_rows(experiment::fig05_sweep(engine, &scenes, &opts.config, &BATCHES));
    let cols: Vec<String> = BATCHES.iter().map(|b| format!("c={b}")).collect();
    let col_refs: Vec<&str> =
        std::iter::once("scene").chain(cols.iter().map(|s| s.as_str())).collect();
    header(&col_refs);
    for r in &rows {
        let values: Vec<String> = r.speedups.iter().map(|(_, s)| format!("{s:.2}x")).collect();
        row(r.scene.name(), &values);
    }
    crate::EXIT_OK
}
